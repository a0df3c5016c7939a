// Package automaton is a budgetcharge fixture. Its import path ends in
// /automaton so the analyzer audits it; the types below mirror the
// engine's shapes (Graph adjacency, Budget, RefSet, Set, Ref, StateID)
// just closely enough for the name-based matching to engage.
package automaton

type NodeID int
type EdgeID int
type StateID int
type SymbolID int
type Ref int

type Graph struct{}

func (g *Graph) Out(n NodeID) []EdgeID                       { return nil }
func (g *Graph) OutWithSymbol(n NodeID, s SymbolID) []EdgeID { return nil }

type Budget struct{}

func (b *Budget) ChargeWork(n int) bool { return true }
func (b *Budget) ChargePath(n int) bool { return true }

type RefSet struct{}

func (s *RefSet) Add(r Ref) bool { return true }

type Set struct{}

func (s *Set) Add(p int) bool      { return true }
func (s *Set) AddArena(r Ref) bool { return true }

type evalScratch struct{}

func (sc *evalScratch) admit(r Ref, back bool) bool { return true }

type searchItem struct {
	ref   Ref
	state StateID
}

// True positive: a visited mark inside a loop with no ChargeWork.
func unchargedMark(bud *Budget, visited *RefSet, frontier []Ref) {
	for range frontier {
		visited.Add(0) // want `visited-set mark is not budget-charged`
	}
}

// Clean: the mark's innermost loop charges work.
func chargedMark(bud *Budget, visited *RefSet, frontier []Ref) {
	for range frontier {
		if visited.Add(0) {
			if !bud.ChargeWork(1) {
				return
			}
		}
	}
}

// True positive: a frontier push inside a loop with no charge at all.
func unchargedPush(bud *Budget, frontier []Ref) []searchItem {
	var next []searchItem
	for _, r := range frontier {
		next = append(next, searchItem{ref: r}) // want `frontier push is not budget-charged`
	}
	return next
}

// Clean: pushes accept ChargePath as well as ChargeWork.
func chargedPush(bud *Budget, frontier []Ref) []searchItem {
	var next []searchItem
	for _, r := range frontier {
		next = append(next, searchItem{ref: r})
		if !bud.ChargePath(1) {
			return next
		}
	}
	return next
}

// True positive: a loop-free admission must still be charged somewhere
// in the function (the empty-word seed-path bug shape).
func seedAdmit(bud *Budget, set *Set) {
	set.Add(0) // want `result admission \(Add\) is not budget-charged`
}

// True positive: the product search's own admission counts as one.
func unchargedSearchAdmit(bud *Budget, sc *evalScratch, frontier []Ref) {
	for _, r := range frontier {
		sc.admit(r, false) // want `result admission \(admit\) is not budget-charged`
	}
}

// Clean: the loop-free admission is charged at function scope.
func seedAdmitCharged(bud *Budget, set *Set) {
	if set.Add(0) {
		bud.ChargePath(0)
	}
}

// Clean: loop-free marks are bounded seeding, exempt by design.
func seedMark(bud *Budget, visited *RefSet) {
	visited.Add(0)
}

// True positive: adjacency iteration with no Budget in scope.
func unbudgetedScan(g *Graph, n NodeID) int {
	total := 0
	for _, e := range g.Out(n) { // want `no core.Budget is in scope`
		total += int(e)
	}
	return total
}

// Suppressed: same shape, annotated with the reason accounting is the
// caller's job.
func suppressedScan(g *Graph, n NodeID) int {
	total := 0
	//lint:ignore budgetcharge pure adjacency helper: the caller charges per extension
	for _, e := range g.Out(n) {
		total += int(e)
	}
	return total
}
