package opt

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
)

// TestCapCardSaturatesNaN pins the NaN seam of the ϕ estimates: every
// cost comparison in the planner treats NaN as "not less", so a NaN
// leaking out of capCard would make plan choice depend on operand
// order. NaN must saturate to maxCard (expensive), never pass through.
func TestCapCardSaturatesNaN(t *testing.T) {
	if got := capCard(math.NaN()); got != maxCard {
		t.Fatalf("capCard(NaN) = %v, want maxCard", got)
	}
	if got := capCard(math.Inf(1)); got != maxCard {
		t.Fatalf("capCard(+Inf) = %v, want maxCard", got)
	}
	if got := capCard(math.Inf(-1)); got != 0 {
		t.Fatalf("capCard(-Inf) = %v, want 0", got)
	}
}

// TestRecurseCardDeepHorizonPostDelete is the deep-horizon regression,
// named for the post-delete statistics that first exposed it: a huge
// Limits.MaxLen used to drive the ϕ estimate's term-by-term geometric
// loop for ~MaxLen iterations when the fan-out ratio r was <= 1 — an
// effective hang. The closed form must return promptly with a finite
// estimate. A base whose estimate falls below one path gives r < 1 on a
// sealed graph: its distinct-source estimate is clamped up to 1.
func TestRecurseCardDeepHorizonPostDelete(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 8; i++ {
		b.AddNode(fmt.Sprintf("p%d", i), "Person", nil)
	}
	for i := 0; i < 7; i++ {
		b.AddEdge(fmt.Sprintf("k%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", i+1), "knows", nil)
	}
	g := b.MustBuild()
	base := core.Select{In: core.Edges{}, Cond: cond.Conj(
		cond.Label(cond.EdgeAt(1), "knows"),
		cond.Prop(cond.EdgeAt(1), "w", graph.IntValue(1)),
	)}
	probe := &CostModel{Stats: g.Stats()}
	card := probe.Card(base)
	r := card / math.Max(1, probe.DistinctFirst(base))
	if !(r > 0 && r < 1) {
		t.Fatalf("fan-out ratio r = %v (base estimate %v), want 0 < r < 1", r, card)
	}

	knowsChain := core.Recurse{Sem: core.Walk, In: base}
	for _, maxLen := range []int{6, 1 << 20, 1 << 30, math.MaxInt} {
		cm := &CostModel{Stats: g.Stats(), Limits: core.Limits{MaxLen: maxLen}}
		start := time.Now()
		got := cm.Card(knowsChain)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Card with MaxLen=%d took %v — horizon loop is back", maxLen, d)
		}
		// Σ_{i<h} card·rⁱ = card·(1-rʰ)/(1-r).
		want := card * (1 - math.Pow(r, float64(maxLen))) / (1 - r)
		if math.IsNaN(got) || math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Card with MaxLen=%d = %v, want %v", maxLen, got, want)
		}
	}

	// A fan-out ratio > 1 at a deep horizon overflows Pow to +Inf; the
	// estimate must saturate at maxCard, not poison comparisons.
	b2 := graph.NewBuilder()
	b2.AddNode("h", "Hub", nil)
	b2.AddNode("t", "Hub", nil)
	for i := 0; i < 8; i++ {
		b2.AddEdge(fmt.Sprintf("l%d", i), "h", "t", "loops", nil)
		b2.AddEdge(fmt.Sprintf("r%d", i), "t", "h", "loops", nil)
	}
	g2 := b2.MustBuild()
	cm := &CostModel{Stats: g2.Stats(), Limits: core.Limits{MaxLen: 1 << 30}}
	if got := cm.Card(core.Recurse{Sem: core.Walk, In: core.Select{
		Cond: cond.Label(cond.EdgeAt(1), "loops"), In: core.Edges{},
	}}); got != maxCard {
		t.Fatalf("explosive recursion at deep horizon = %v, want saturation at maxCard", got)
	}
}
