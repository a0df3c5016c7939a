package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace collects the span tree for one query. A nil *Trace (and the
// nil *Span every method then yields) is the disabled state: every
// call reduces to a nil check, no allocation, no time.Now — this is
// what the ?trace=1 / -trace / slow-query switches toggle, and what
// the allocation-parity gate in scripts/check_allocs.sh pins.
//
// Span start order is recorded under the trace mutex, so sibling
// order in the rendered tree is the order Start calls landed; spans
// started from several goroutines land in scheduling order, but the
// parent/child structure and every annotation do not depend on it.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	spans []*Span
}

// NewTrace starts an empty trace; its clock starts now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Attr is one integer annotation on a span (frontier sizes, arena
// entries, paths/work charged, epoch evaluated...).
type Attr struct {
	Key string
	Val int64
}

// Span is one timed phase inside a trace. All methods are nil-safe.
// Attrs are guarded by the owning trace's mutex so several goroutines
// can annotate concurrently.
type Span struct {
	tr     *Trace
	parent *Span
	name   string
	start  int64 // ns since trace start
	end    int64 // ns since trace start; 0 while open
	attrs  []Attr
}

// newSpan appends a span under the trace lock.
func (t *Trace) newSpan(name string, parent *Span) *Span {
	s := &Span{tr: t, parent: parent, name: name, start: int64(time.Since(t.start))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Start opens a root-level span. Nil-safe: a nil trace yields a nil
// span, and the whole subtree of calls hanging off it no-ops.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, nil)
}

// Start opens a child span under s.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s)
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := int64(time.Since(s.tr.start))
	s.tr.mu.Lock()
	if s.end == 0 {
		s.end = end
	}
	s.tr.mu.Unlock()
}

// SetInt sets annotation key to v, replacing any previous value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// AddInt adds v to annotation key (creating it at v).
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val += v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// MaxInt raises annotation key to v if v is larger (or sets it).
func (s *Span) MaxInt(key string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if v > s.attrs[i].Val {
				s.attrs[i].Val = v
			}
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, v})
}

// SpanJSON is the wire form of one span: microsecond offsets from the
// trace start, sorted attrs, children in start order.
type SpanJSON struct {
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"`
	DurUS    int64            `json:"dur_us"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*SpanJSON      `json:"children,omitempty"`
}

// Tree renders the trace as a forest of SpanJSON in span start order.
// Open spans are closed at render time so the tree is always
// well-formed. Nil-safe (returns nil).
func (t *Trace) Tree() []*SpanJSON {
	if t == nil {
		return nil
	}
	roots, _ := t.render()
	return roots
}

// Tree renders s and its descendants like Trace.Tree renders the whole
// trace. Nil-safe (returns nil).
func (s *Span) Tree() *SpanJSON {
	if s == nil {
		return nil
	}
	_, nodes := s.tr.render()
	return nodes[s]
}

// render builds the SpanJSON forest and the span-to-node index.
func (t *Trace) render() ([]*SpanJSON, map[*Span]*SpanJSON) {
	now := int64(time.Since(t.start))
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make(map[*Span]*SpanJSON, len(t.spans))
	var roots []*SpanJSON
	for _, s := range t.spans {
		end := s.end
		if end == 0 {
			end = now
		}
		// Truncate both offsets to µs before subtracting: truncating the
		// duration on its own could end a child 1µs after its parent.
		j := &SpanJSON{
			Name:    s.name,
			StartUS: s.start / 1e3,
			DurUS:   end/1e3 - s.start/1e3,
		}
		if len(s.attrs) > 0 {
			j.Attrs = make(map[string]int64, len(s.attrs))
			for _, a := range s.attrs {
				j.Attrs[a.Key] = a.Val
			}
		}
		nodes[s] = j
		if p := nodes[s.parent]; p != nil {
			p.Children = append(p.Children, j)
		} else {
			roots = append(roots, j)
		}
	}
	return roots, nodes
}

// Format renders the tree as indented text for the CLI -trace flag.
func (t *Trace) Format() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, r := range t.Tree() {
		formatSpan(&b, r, 0)
	}
	return b.String()
}

func formatSpan(b *strings.Builder, j *SpanJSON, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %s", j.Name, time.Duration(j.DurUS)*time.Microsecond)
	// Sort attr keys so output is deterministic.
	keys := make([]string, 0, len(j.Attrs))
	for k := range j.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, j.Attrs[k])
	}
	b.WriteByte('\n')
	for _, c := range j.Children {
		formatSpan(b, c, depth+1)
	}
}

// Summary renders a one-line per-phase digest for the slow-query log:
// top-level spans with durations, child counts folded in.
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	var parts []string
	for _, r := range t.Tree() {
		for _, c := range r.Children {
			parts = append(parts, summarizeSpan(c))
		}
		if len(r.Children) == 0 {
			parts = append(parts, summarizeSpan(r))
		}
	}
	return strings.Join(parts, " ")
}

func summarizeSpan(j *SpanJSON) string {
	d := time.Duration(j.DurUS) * time.Microsecond
	if n := len(j.Children); n > 0 {
		return fmt.Sprintf("%s=%s(×%d)", j.Name, d, n)
	}
	return fmt.Sprintf("%s=%s", j.Name, d)
}

// ctxKey is the context key for the current span.
type ctxKey struct{}

// WithSpan returns a context carrying sp as the current span. When sp
// is nil (tracing off) the context is returned unchanged — no
// allocation on the disabled path.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFrom returns the current span, or nil when the context carries
// none (every downstream call then no-ops).
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
