package lint

// SpanEnd checks the trace-span lifetime discipline around obs: every
// span opened with Trace.Start or Span.Start must be provably ended —
// an open span misreports its duration (Tree() clamps it to render
// time) and, on the slow-query path, keeps child annotations racing
// with the log line.
//
// For every `sp := tr.Start(...)` / `sp := parent.Start(...)` (receiver
// type named Trace or Span) the analyzer accepts, in the enclosing
// function:
//
//   - defer sp.End() — the canonical scoped span;
//   - sp.End() inside a deferred function literal — the annotate-then-
//     end pattern (defer func() { sp.SetInt(...); sp.End() }()), which
//     also covers a defer inside a goroutine the span's work runs on;
//   - use of sp.End as a value — ownership transfer of the end
//     capability (e.g. returning it as a cleanup func);
//   - sp returned, stored into a struct field / composite literal, or
//     passed to another call — ownership transfer of the whole span
//     (the holder's completion path owns the End; the server's cursor
//     root span is the canonical case).
//
// A plain, non-deferred sp.End() is flagged: an early return or panic
// between Start and End leaves the span open. A Start whose result is
// discarded is always flagged.
//
// Method calls on the span itself (sp.SetInt, sp.AddInt, sp.Start for a
// child) are annotations, not transfers — they never discharge the End
// obligation.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: "every obs Trace.Start/Span.Start span must be ended on all paths: " +
		"defer End (directly or in a deferred closure), or transfer ownership of the span",
	Run: spanEnd.run,
}

var spanEnd = &pairing{
	acquire:          "Start",
	receivers:        []string{"Trace", "Span"},
	release:          "End",
	releaseInClosure: true,
	dropped:          "%s.Start opens a span but the result is dropped; the span can never be ended",
	plainRelease:     "span %[1]s is ended without defer: an early return or panic between Start and End leaves the span open; use defer %[1]s.End() or transfer ownership",
	unreleased:       "span %[1]s is never ended: defer %[1]s.End() or transfer ownership of the span",
}
