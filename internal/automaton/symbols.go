package automaton

import (
	"slices"
	"sort"

	"pathalgebra/internal/graph"
)

// CompiledNFA binds an NFA to one graph's edge-label symbol table: every
// Glushkov position's label is interned to a graph.SymbolID and the
// transition relation is re-indexed as a dense per-(state, symbol) table.
// The product search then never hashes or compares a label string — a
// transition lookup is one slice index, and the set of symbols a state can
// read at all is precomputed so the inner loop touches exactly the
// matching adjacency runs.
//
// Any-label positions are folded in without blowing up on wide alphabets:
// a state with an any transition shares one sorted target slice across
// every symbol lacking labelled targets (slice headers only, no per-symbol
// allocation), and is flagged AllSymbols so the evaluator iterates the
// node's adjacency runs directly instead of enumerating the alphabet.
//
// Compilation is O(states × symbols) slice-header writes and is done once
// per evaluation; the result is immutable and safe for concurrent readers.
type CompiledNFA struct {
	nfa     *NFA
	numSyms int
	// trans[int(s)*numSyms+int(sym)] lists the states reachable from s by
	// reading an edge with the given symbol, ascending and duplicate-free.
	trans [][]StateID
	// stateSyms[s] lists the symbols with at least one transition from s,
	// ascending — the iteration set of the search's inner loop. It is nil
	// for allSyms states, which iterate adjacency runs instead.
	stateSyms [][]graph.SymbolID
	// allSyms[s] reports that s reads every symbol (it has an any-label
	// transition), so symbol-set iteration must not be used for it.
	allSyms []bool
	// rev is the reversed relation in the same layout: rev.Trans(q, sym)
	// lists the states that reach q by reading sym, ascending. It drives
	// the quota's goal sweep, which walks the product against the
	// search's direction (quotaState.sweep). rev.rev is nil.
	rev *CompiledNFA
	// deterministic: no (state, symbol) pair has two targets, so the
	// label word of a path runs to one state and the search generates
	// each (path, state) pair once.
	deterministic bool
}

// Compile builds the symbol-indexed transition table of n over g's symbol
// table. Expression labels that no edge of g carries compile to nothing:
// no edge can ever read them, exactly as with string comparison.
func (n *NFA) Compile(g *graph.Graph) *CompiledNFA {
	numSyms := g.NumSymbols()
	states := n.NumStates()
	c := &CompiledNFA{
		nfa:       n,
		numSyms:   numSyms,
		trans:     make([][]StateID, states*numSyms),
		stateSyms: make([][]graph.SymbolID, states),
		allSyms:   make([]bool, states),
	}
	for s := 0; s < states; s++ {
		var anyQ []StateID
		for _, q := range n.next[s] {
			p := n.positions[q-1]
			if p.any {
				anyQ = appendState(anyQ, q)
			} else if sym := g.SymbolOf(p.label); sym != graph.NoSymbol {
				i := int(s)*numSyms + int(sym)
				c.trans[i] = appendState(c.trans[i], q)
			}
		}
		base := s * numSyms
		if len(anyQ) > 0 && numSyms > 0 {
			c.allSyms[s] = true
			sortStates(anyQ)
			for sym := 0; sym < numSyms; sym++ {
				if ts := c.trans[base+sym]; len(ts) > 0 {
					sortStates(ts)
					c.trans[base+sym] = mergeStates(ts, anyQ)
				} else {
					c.trans[base+sym] = anyQ // shared: header copy only
				}
			}
			continue
		}
		for sym := 0; sym < numSyms; sym++ {
			if ts := c.trans[base+sym]; len(ts) > 0 {
				sortStates(ts)
				c.stateSyms[s] = append(c.stateSyms[s], graph.SymbolID(sym))
			}
		}
	}
	c.deterministic = !slices.ContainsFunc(c.trans, func(ts []StateID) bool { return len(ts) > 1 })
	c.rev = c.reversed()
	return c
}

// reversed builds the table of the reversed transition relation. Every
// state of it lists its symbols, none is flagged AllSymbols: scanRuns
// then picks its driver by count alone, which enumerates the same scans.
func (c *CompiledNFA) reversed() *CompiledNFA {
	states, numSyms := len(c.allSyms), c.numSyms
	r := &CompiledNFA{
		nfa:       c.nfa,
		numSyms:   numSyms,
		trans:     make([][]StateID, len(c.trans)),
		stateSyms: make([][]graph.SymbolID, states),
		allSyms:   make([]bool, states),
	}
	// Count each cell's sources, then carve the cells out of one backing
	// array; filling in ascending source order keeps them sorted.
	counts := make([]int, len(c.trans))
	total := 0
	for i, ts := range c.trans {
		for _, q := range ts {
			counts[int(q)*numSyms+i%numSyms]++
		}
		total += len(ts)
	}
	backing := make([]StateID, total)
	for i, k := range counts {
		r.trans[i], backing = backing[:0:k], backing[k:]
	}
	for i, ts := range c.trans {
		from, sym := StateID(i/numSyms), i%numSyms
		for _, q := range ts {
			j := int(q)*numSyms + sym
			r.trans[j] = append(r.trans[j], from)
		}
	}
	for q := 0; q < states; q++ {
		for sym := 0; sym < numSyms; sym++ {
			if len(r.trans[q*numSyms+sym]) > 0 {
				r.stateSyms[q] = append(r.stateSyms[q], graph.SymbolID(sym))
			}
		}
	}
	return r
}

// appendState appends q unless present.
func appendState(ts []StateID, q StateID) []StateID {
	for _, t := range ts {
		if t == q {
			return ts
		}
	}
	return append(ts, q)
}

func sortStates(ts []StateID) {
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
}

// mergeStates returns the sorted, duplicate-free union of two sorted
// duplicate-free lists.
func mergeStates(a, b []StateID) []StateID {
	out := make([]StateID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// NFA returns the automaton this table was compiled from.
func (c *CompiledNFA) NFA() *NFA { return c.nfa }

// Trans returns the states reachable from s by reading symbol sym,
// ascending. The slice is shared; do not modify.
func (c *CompiledNFA) Trans(s StateID, sym graph.SymbolID) []StateID {
	return c.trans[int(s)*c.numSyms+int(sym)]
}

// StateSymbols returns the symbols readable from s, ascending; nil for
// AllSymbols states. The slice is shared; do not modify.
func (c *CompiledNFA) StateSymbols(s StateID) []graph.SymbolID {
	return c.stateSyms[s]
}

// AllSymbols reports whether s reads every symbol of the graph's alphabet
// (the state has an any-label transition).
func (c *CompiledNFA) AllSymbols(s StateID) bool { return c.allSyms[s] }
