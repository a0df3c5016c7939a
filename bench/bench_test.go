package main

import (
	"reflect"
	"testing"
)

// tiny shrinks a workload to a graph of about a hundred nodes and a few
// dozen ops, keeping its mix.
func tiny(w *workload) *workload {
	t := *w
	t.Persons, t.MaxLen = 36, 3
	t.QueryPool, t.ReachPool = min(w.QueryPool, 24), min(w.ReachPool, 20)
	t.Warmup, t.WalkOps = min(w.Warmup, 8), min(w.WalkOps, 16)
	return &t
}

// sampleDependent metrics need an op of a rare kind among the walked ops,
// or a thousand samples; a tiny run may lack them.
var sampleDependent = map[string]bool{
	"http.query_p99_ms": true,
	"reach.kernel_us":   true,
	"reach.fallback_us": true,
}

// TestSmoke runs all five workloads at tiny sizes and checks that every
// metric BENCHMARK.json declares comes out, that nothing else does, and
// that every answer was right.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runChild(tiny(w), 1, 0.25, true, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d; want some and none", res.Attempted, res.Failed)
			}
			for _, m := range e2eMetrics {
				if v, ok := res.E2E[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, present %v; want a positive value", m.Name, v.Value, ok)
				}
			}
			declared := map[string]bool{}
			for _, m := range layerMetrics {
				declared[m.Name] = true
				if _, ok := res.Layers[m.Name]; !ok && m.on(w.Name) && !sampleDependent[m.Name] {
					t.Errorf("per-layer metric %s is declared for %s but was not measured", m.Name, w.Name)
				}
			}
			for name := range res.Layers {
				if !declared[name] {
					t.Errorf("per-layer metric %s was measured but is not in the registry", name)
				}
			}
			if got := res.Layers.render(layerMetrics, w.Name, true); len(got) != len(layerMetrics) {
				t.Errorf("driver line has %d per-layer metrics, registry %d", len(got), len(layerMetrics))
			}
		})
	}
}

// TestRegistryMatchesBenchmarkJSON fails when BENCHMARK.json and the
// harness's registry name different metrics, units, directions or
// workloads.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	registry := func(ms []metricDef) []benchMetric {
		var out []benchMetric
		for _, m := range ms {
			out = append(out, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		}
		return out
	}
	unbounded := func(ms []benchMetric) []benchMetric {
		out := append([]benchMetric(nil), ms...)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if got, want := unbounded(b.EndToEnd), registry(e2eMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, registry %v", got, want)
	}
	if got, want := b.PerLayer, registry(layerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, registry %v", got, want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, harness %v", names, want)
	}
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name: "nested",
			spans: []span{
				{Name: "op", Parent: -1, Start: 0, End: 100},
				{Name: "a.x", Parent: 0, Start: 10, End: 60},
				{Name: "b.y", Parent: 1, Start: 20, End: 30},
			},
			want: []int64{50, 40, 10},
		},
		{
			name: "adjacent children leave only the gaps around them",
			spans: []span{
				{Name: "op", Parent: -1, Start: 0, End: 100},
				{Name: "a.x", Parent: 0, Start: 10, End: 40},
				{Name: "a.y", Parent: 0, Start: 40, End: 90},
			},
			want: []int64{20, 30, 50},
		},
		{
			name: "overlapping children are counted once, and clipped to the parent",
			spans: []span{
				{Name: "op", Parent: -1, Start: 0, End: 100},
				{Name: "a.x", Parent: 0, Start: 10, End: 50},
				{Name: "a.y", Parent: 0, Start: 30, End: 70},
				{Name: "a.z", Parent: 0, Start: 90, End: 130},
			},
			want: []int64{30, 40, 40, 40},
		},
	}
	for _, tc := range cases {
		if got := selfTimes(tc.spans); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAdopt: re-run children are laid end to end from the parent's
// start, with their own children moving along.
func TestAdopt(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "engine.eval", Parent: -1, Start: 100, End: 200},
		{Name: "automaton.search", Parent: -1, Start: 300, End: 340},
		{Name: "pathset.add", Parent: 1, Start: 300, End: 310},
		{Name: "core.project", Parent: -1, Start: 400, End: 430},
	}}
	r.adopt(0, []int{1, 3})
	want := []span{
		{Name: "engine.eval", Parent: -1, Start: 100, End: 200},
		{Name: "automaton.search", Parent: 0, Start: 100, End: 140, Rerun: true},
		{Name: "pathset.add", Parent: 1, Start: 100, End: 110},
		{Name: "core.project", Parent: 0, Start: 140, End: 170, Rerun: true},
	}
	if !reflect.DeepEqual(r.spans, want) {
		t.Errorf("after adopt:\n%+v\nwant\n%+v", r.spans, want)
	}
	if got := selfTimes(r.spans); !reflect.DeepEqual(got, []int64{30, 30, 10, 30}) {
		t.Errorf("self times %v", got)
	}
}
