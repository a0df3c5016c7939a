package server

import (
	"io"

	"pathalgebra/internal/core"
	"pathalgebra/internal/engine"
	"pathalgebra/internal/obs"
)

// Per-query tracing: ?trace=1 (or "trace": true in the body) builds an
// obs.Trace whose root span parents the request's phases — parse, plan,
// cache probe, then the engine's own plan/eval/search spans via the
// query context — and the span tree rides back on the response (the
// final page trailer for /query, a "trace" field for /reach). All spans
// are nil-safe: an untraced request threads nil spans through the same
// helpers at zero cost.

// traceCompile parses and compiles the query text under a "parse" span.
func traceCompile(root *obs.Span, query string) (core.PathExpr, error) {
	sp := root.Start("parse")
	defer sp.End()
	return compile(query)
}

// tracePlan plans the logical expression under a "plan" span. The engine
// re-plans inside its evaluation entry point — by then a plan-cache hit,
// annotated on the engine's own span — so this span carries the cold
// planning cost.
func tracePlan(root *obs.Span, eng *engine.Engine, logical core.PathExpr) core.PathExpr {
	sp := root.Start("plan")
	defer sp.End()
	plan, _ := eng.Plan(logical)
	return plan
}

// probeCache looks up a footprint-invalidated cache under a
// "cache_probe" span.
func probeCache[V any](root *obs.Span, c *footprintCache[V], key string) (V, bool) {
	sp := root.Start("cache_probe")
	defer sp.End()
	val, ok := c.get(key)
	if ok {
		sp.SetInt("hit", 1)
	}
	return val, ok
}

// writePage writes lines [lo, hi) of the cursor's result under a
// "deliver" span of the cursor's trace (no-op spans when the query is
// untraced), whose bytes attribute is the path-line bytes written. A
// no_cache result's page is first encoded into a pooled buffer, under an
// encode span of its own. A write error severs the page — the caller
// must NOT write the trailer (a severed page without a trailer is how
// clients detect the cut).
func writePage(w io.Writer, cur *cursor, lo, hi int) error {
	enc := cur.enc
	if enc == nil {
		var err error
		if enc, err = encodeResult(cur.root, cur.g, cur.paths[lo:hi], false); err != nil {
			return err
		}
		defer enc.release()
		lo, hi = 0, hi-lo
	}
	sp := cur.root.Start("deliver")
	defer sp.End()
	sp.SetInt("paths", int64(hi-lo))
	n, err := enc.writeLines(w, lo, hi)
	sp.SetInt("bytes", n)
	return err
}
