package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTrace pins the disabled-tracing contract: the entire span
// API chains off nil without panicking or doing anything.
func TestNilTrace(t *testing.T) {
	var tr *Trace
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil trace must yield nil spans")
	}
	child := sp.Start("child")
	if child != nil {
		t.Fatal("nil span must yield nil children")
	}
	sp.End()
	sp.SetInt("k", 1)
	sp.AddInt("k", 1)
	sp.MaxInt("k", 1)
	if tr.Tree() != nil || sp.Tree() != nil || tr.Format() != "" || tr.Summary() != "" {
		t.Fatal("nil trace must render empty")
	}
	ctx := context.Background()
	if WithSpan(ctx, nil) != ctx {
		t.Fatal("WithSpan(nil) must not wrap the context")
	}
	if SpanFrom(ctx) != nil || SpanFrom(nil) != nil {
		t.Fatal("SpanFrom on a bare context must be nil")
	}
}

// TestTraceTree builds a small span tree and checks structure, attr
// merging, and the consistency invariant the acceptance criteria name:
// child spans nest within their parent's interval, so per-phase
// durations sum to no more than the parent's.
func TestTraceTree(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("query")
	parse := root.Start("parse")
	time.Sleep(time.Millisecond)
	parse.SetInt("tokens", 12)
	parse.End()
	eval := root.Start("eval")
	sh := eval.Start("shard")
	sh.AddInt("paths", 3)
	sh.AddInt("paths", 4)
	sh.MaxInt("frontier", 9)
	sh.MaxInt("frontier", 5)
	time.Sleep(time.Millisecond)
	sh.End()
	eval.End()
	root.End()

	roots := tr.Tree()
	if len(roots) != 1 || roots[0].Name != "query" {
		t.Fatalf("want one root 'query', got %+v", roots)
	}
	q := roots[0]
	if len(q.Children) != 2 || q.Children[0].Name != "parse" || q.Children[1].Name != "eval" {
		t.Fatalf("bad children: %+v", q.Children)
	}
	shj := q.Children[1].Children[0]
	if shj.Attrs["paths"] != 7 || shj.Attrs["frontier"] != 9 {
		t.Fatalf("attr merge wrong: %+v", shj.Attrs)
	}
	if sub := eval.Tree(); sub.Name != "eval" || len(sub.Children) != 1 || sub.Children[0].Attrs["paths"] != 7 {
		t.Fatalf("eval subtree wrong: %+v", sub)
	}
	// Containment + duration consistency.
	var sum int64
	for _, c := range q.Children {
		if c.StartUS < q.StartUS || c.StartUS+c.DurUS > q.StartUS+q.DurUS {
			t.Fatalf("child %s [%d,%d] escapes parent [%d,%d]",
				c.Name, c.StartUS, c.StartUS+c.DurUS, q.StartUS, q.StartUS+q.DurUS)
		}
		sum += c.DurUS
	}
	if sum > q.DurUS {
		t.Fatalf("children duration sum %dus > parent %dus", sum, q.DurUS)
	}

	txt := tr.Format()
	if !strings.Contains(txt, "query ") || !strings.Contains(txt, "  parse ") ||
		!strings.Contains(txt, "    shard ") || !strings.Contains(txt, "frontier=9 paths=7") {
		t.Fatalf("Format output wrong:\n%s", txt)
	}
	sum2 := tr.Summary()
	if !strings.Contains(sum2, "parse=") || !strings.Contains(sum2, "eval=") ||
		!strings.Contains(sum2, "(×1)") {
		t.Fatalf("Summary wrong: %q", sum2)
	}
}

// TestTraceOpenSpans checks Tree closes still-open spans at render
// time instead of producing zero/negative durations.
func TestTraceOpenSpans(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("open")
	time.Sleep(2 * time.Millisecond)
	roots := tr.Tree()
	if len(roots) != 1 || roots[0].DurUS < 1000 {
		t.Fatalf("open span should report elapsed time, got %+v", roots)
	}
	sp.End()
	end1 := tr.Tree()[0].DurUS
	time.Sleep(2 * time.Millisecond)
	if end2 := tr.Tree()[0].DurUS; end2 != end1 {
		t.Fatalf("double render after End drifted: %d vs %d", end1, end2)
	}
	sp.End() // second End keeps the first timestamp
	if end3 := tr.Tree()[0].DurUS; end3 != end1 {
		t.Fatalf("second End changed the end time: %d vs %d", end3, end1)
	}
}

// TestTraceConcurrentSpans has parallel workers opening child spans
// and annotating a shared parent — the shard-worker pattern — under
// the race detector.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("eval")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Start("shard")
			defer sp.End()
			for j := 0; j < 100; j++ {
				sp.AddInt("paths", 1)
				root.AddInt("total", 1)
			}
		}()
	}
	wg.Wait()
	root.End()
	roots := tr.Tree()
	if len(roots[0].Children) != 8 {
		t.Fatalf("want 8 shard spans, got %d", len(roots[0].Children))
	}
	if roots[0].Attrs["total"] != 800 {
		t.Fatalf("total attr %d != 800", roots[0].Attrs["total"])
	}
	var paths int64
	for _, c := range roots[0].Children {
		paths += c.Attrs["paths"]
	}
	if paths != 800 {
		t.Fatalf("shard paths sum %d != 800", paths)
	}
}

// TestSpanContext round-trips a span through context.
func TestSpanContext(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("root")
	defer sp.End()
	ctx := WithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Fatal("SpanFrom must return the stored span")
	}
	child := SpanFrom(ctx).Start("child")
	child.End()
	if len(tr.Tree()[0].Children) != 1 {
		t.Fatal("child via context not attached")
	}
}
