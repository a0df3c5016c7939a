package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from
// outside the program: name "<layer>.<call>", the op (request) it
// belongs to, and the span that caused it (-1 for an op's root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rerun marks a child that was measured by calling the layer again on
	// its parent's inputs after the parent returned (the engine's
	// internals cannot be bracketed from outside); adopt laid it inside
	// the parent's interval so that the parent's self time excludes it.
	Rerun bool `json:"rerun,omitempty"`
}

// recorder keeps spans in memory until the child process exits. A nil
// recorder records nothing, which is how the untraced replay runs. The
// mutex is for the HTTP middleware, which ends server spans on the
// connection's goroutine while the walk waits for the response.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; -1 on a nil recorder.
func (r *recorder) begin(op int, name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(r.t0))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// adopt makes the already-closed spans children re-run children of
// parent: each is shifted, with its own descendants, to lie end to end
// from the parent's start, keeping its duration, and parented to it.
func (r *recorder) adopt(parent int, children []int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	at := r.spans[parent].Start
	for _, c := range children {
		shift := at - r.spans[c].Start
		moved := map[int]bool{c: true}
		r.spans[c].Parent, r.spans[c].Rerun = parent, true
		r.spans[c].Start += shift
		r.spans[c].End += shift
		for i := c + 1; i < len(r.spans); i++ { // descendants come later
			if moved[r.spans[i].Parent] {
				moved[i] = true
				r.spans[i].Start += shift
				r.spans[i].End += shift
			}
		}
		at = r.spans[c].End
	}
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the spans recorded from index first on.
func (r *recorder) snapshot(first int) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[first:]...)
}

func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		covered, at := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(spans[c].Start, at), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the part before the first dot.
// Root spans ("op") belong to the harness itself.
func layerOf(name string) string {
	if layer, _, ok := strings.Cut(name, "."); ok {
		return layer
	}
	return "bench"
}
