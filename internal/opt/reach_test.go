package opt_test

import (
	"testing"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/opt"
	"pathalgebra/internal/rpq"
)

func knowsBase() core.PathExpr {
	return core.Select{Cond: cond.Label(cond.EdgeAt(1), "knows"), In: core.Edges{}}
}

// TestAnalyzeReachShapes is the eligibility accept/reject table: the
// kernel may only take plans whose mode-answer is invariant under erasing
// path bodies.
func TestAnalyzeReachShapes(t *testing.T) {
	walk := core.Recurse{Sem: core.Walk, In: knowsBase()}
	shortest := core.Recurse{Sem: core.Shortest, In: knowsBase()}
	gST := core.GroupSource | core.GroupTarget

	tests := []struct {
		name string
		plan core.PathExpr
		mode opt.ReachMode
		want bool
	}{
		{"bare walk recursion", walk, opt.ReachPairs, true},
		{"bare shortest recursion", shortest, opt.ReachShortestLengths, true},
		{"exists over walk", walk, opt.ReachExists, true},
		{"count-pairs over walk", walk, opt.ReachCountPairs, true},
		{"trail recursion rejected",
			core.Recurse{Sem: core.Trail, In: knowsBase()}, opt.ReachPairs, false},
		{"simple recursion rejected",
			core.Recurse{Sem: core.Simple, In: knowsBase()}, opt.ReachPairs, false},
		{"non-pattern base rejected",
			core.Recurse{Sem: core.Walk, In: core.Nodes{}}, opt.ReachPairs, false},

		// γ path counts must NEVER route to the kernel: parallel edges are
		// distinct paths with one endpoint pair.
		{"count-paths over walk rejected", walk, opt.ReachCountPaths, false},
		{"count-paths over shortest rejected", shortest, opt.ReachCountPaths, false},
		{"count-paths over identity pipeline rejected",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
				In: core.GroupBy{Key: gST, In: walk}},
			opt.ReachCountPaths, false},

		// Endpoint-only selections restrict seeds/targets; body conjuncts
		// reject.
		{"first-endpoint select",
			core.Select{Cond: cond.Label(cond.First(), "Person"), In: walk},
			opt.ReachPairs, true},
		{"both-endpoint select",
			core.Select{Cond: cond.And{
				L: cond.Label(cond.First(), "Person"),
				R: cond.Label(cond.Last(), "Person"),
			}, In: walk},
			opt.ReachPairs, true},
		{"interior-node conjunct rejected",
			core.Select{Cond: cond.Label(cond.NodeAt(2), "Person"), In: walk},
			opt.ReachPairs, false},
		{"edge conjunct rejected",
			core.Select{Cond: cond.Label(cond.EdgeAt(1), "knows"), In: walk},
			opt.ReachPairs, false},
		{"length conjunct rejected",
			core.Select{Cond: cond.Len(3), In: walk},
			opt.ReachPairs, false},

		// Identity pipeline: π(*,*,*) returns every path whatever the
		// grouping and ordering.
		{"identity pipeline",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
				In: core.OrderBy{Key: core.OrderGroup, In: core.GroupBy{Key: core.GroupSTL, In: walk}}},
			opt.ReachPairs, true},
		{"identity pipeline over endpoint select",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.AllCount(),
				In: core.GroupBy{Key: gST,
					In: core.Select{Cond: cond.Label(cond.First(), "Person"), In: walk}}},
			opt.ReachShortestLengths, true},
		{"bounded partitions rejected",
			core.Project{Parts: core.NCount(2), Groups: core.AllCount(), Paths: core.AllCount(),
				In: core.GroupBy{Key: gST, In: walk}},
			opt.ReachPairs, false},

		// ANY SHORTEST: π(*,*,1) over τ…A…(γST(X)).
		{"any-shortest shape",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
				In: core.OrderBy{Key: core.OrderPath, In: core.GroupBy{Key: gST, In: walk}}},
			opt.ReachShortestLengths, true},
		{"any-shortest with compound order key",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
				In: core.OrderBy{Key: core.OrderPartition | core.OrderPath,
					In: core.GroupBy{Key: gST, In: walk}}},
			opt.ReachPairs, true},
		{"descending path bound rejected (longest, not shortest)",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1).Descending(),
				In: core.OrderBy{Key: core.OrderPath, In: core.GroupBy{Key: gST, In: walk}}},
			opt.ReachShortestLengths, false},
		{"unranked paths rejected (arbitrary pick)",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
				In: core.OrderBy{Key: core.OrderGroup, In: core.GroupBy{Key: gST, In: walk}}},
			opt.ReachPairs, false},
		{"no order-by at all rejected",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
				In: core.GroupBy{Key: gST, In: walk}},
			opt.ReachPairs, false},
		{"source-only grouping rejected (drops pairs)",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(1),
				In: core.OrderBy{Key: core.OrderPath, In: core.GroupBy{Key: core.GroupSource, In: walk}}},
			opt.ReachPairs, false},
		{"paths bound 2 rejected",
			core.Project{Parts: core.AllCount(), Groups: core.AllCount(), Paths: core.NCount(2),
				In: core.OrderBy{Key: core.OrderPath, In: core.GroupBy{Key: gST, In: walk}}},
			opt.ReachPairs, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rp, ok := opt.Derive(tt.plan).Reach(tt.mode)
			if ok != tt.want {
				t.Fatalf("Derive(%s).Reach(%s) eligible = %v, want %v",
					tt.plan, tt.mode, ok, tt.want)
			}
			if ok && rp.Pattern == nil {
				t.Fatalf("eligible plan returned nil pattern")
			}
		})
	}
}

// TestAnalyzeReachExtractsConds pins the seed/target split: first-node
// conjuncts become SeedConds, last-node conjuncts TargetConds.
func TestAnalyzeReachExtractsConds(t *testing.T) {
	plan := core.Select{
		Cond: cond.And{
			L: cond.Label(cond.First(), "Person"),
			R: cond.Label(cond.Last(), "City"),
		},
		In: core.Recurse{Sem: core.Walk, In: knowsBase()},
	}
	rp, ok := opt.Derive(plan).Reach(opt.ReachPairs)
	if !ok {
		t.Fatal("endpoint-only select must be eligible")
	}
	if len(rp.SeedConds) != 1 || len(rp.TargetConds) != 1 {
		t.Fatalf("got %d seed conds, %d target conds, want 1 and 1",
			len(rp.SeedConds), len(rp.TargetConds))
	}
	if got := rp.SeedConds[0].String(); got != cond.Label(cond.First(), "Person").String() {
		t.Errorf("seed cond = %s", got)
	}
	if got := rp.TargetConds[0].String(); got != cond.Label(cond.Last(), "City").String() {
		t.Errorf("target cond = %s", got)
	}
	if _, ok := rp.Pattern.(rpq.Label); !ok {
		t.Errorf("pattern = %T, want rpq.Label", rp.Pattern)
	}
	if rp.Sem != core.Walk {
		t.Errorf("sem = %v, want Walk", rp.Sem)
	}
}

// TestLabelPattern pins the planner-side pattern recognizer against the
// engine's: the same bases must translate, everything else must reject.
func TestLabelPattern(t *testing.T) {
	re, ok := opt.LabelPattern(core.Join{L: knowsBase(), R: core.Edges{}})
	if !ok {
		t.Fatal("join of label bases must translate")
	}
	cc, ok := re.(rpq.Concat)
	if !ok {
		t.Fatalf("pattern = %T, want Concat", re)
	}
	if _, ok := cc.L.(rpq.Label); !ok {
		t.Errorf("left = %T, want Label", cc.L)
	}
	if _, ok := cc.R.(rpq.AnyLabel); !ok {
		t.Errorf("right = %T, want AnyLabel", cc.R)
	}
	if re, ok := opt.LabelPattern(core.Union{L: knowsBase(), R: knowsBase()}); !ok {
		t.Error("union of label bases must translate")
	} else if _, isAlt := re.(rpq.Alt); !isAlt {
		t.Errorf("union pattern = %T, want Alt", re)
	}
	for _, bad := range []core.PathExpr{
		core.Nodes{},
		core.Select{Cond: cond.Label(cond.First(), "Person"), In: core.Edges{}},
		core.Select{Cond: cond.Label(cond.EdgeAt(1), "knows"), In: core.Nodes{}},
		core.Join{L: knowsBase(), R: core.Nodes{}},
		core.Recurse{Sem: core.Walk, In: core.Edges{}},
	} {
		if _, ok := opt.LabelPattern(bad); ok {
			t.Errorf("LabelPattern(%s) must reject", bad)
		}
	}
}
