// Package automaton implements the classical automaton-based approach to
// regular path query evaluation that the paper discusses in §8.2 [28]: a
// Glushkov (position) NFA is built from the regular path expression, and
// paths are found by searching the product of the graph and the automaton.
// It serves as the independent baseline against which the algebraic
// engine is cross-checked and benchmarked.
package automaton

import (
	"fmt"
	"strings"

	"pathalgebra/internal/rpq"
)

// StateID identifies an NFA state. State 0 is always the start state; the
// remaining states correspond 1:1 to label positions in the expression
// (Glushkov construction, no epsilon transitions).
type StateID int

// position describes the symbol at a Glushkov position.
type position struct {
	label string
	any   bool // matches every label (rpq.AnyLabel)
}

// NFA is a Glushkov automaton for a regular path expression.
type NFA struct {
	positions []position // 1-based: positions[i-1] describes state i
	accepting []bool     // indexed by StateID
	// next[s] lists the positions reachable from state s; a transition to
	// position q reads q's symbol.
	next [][]StateID
}

// NumStates returns the number of states (positions + the start state).
func (n *NFA) NumStates() int { return len(n.positions) + 1 }

// Accepting reports whether s is an accepting state.
func (n *NFA) Accepting(s StateID) bool { return n.accepting[s] }

// AcceptsEmpty reports whether the automaton accepts the empty word, i.e.
// whether length-zero paths match the expression.
func (n *NFA) AcceptsEmpty() bool { return n.accepting[0] }

// String renders the automaton for debugging.
func (n *NFA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NFA with %d states (start=0", n.NumStates())
	if n.accepting[0] {
		sb.WriteString(", accepting")
	}
	sb.WriteString(")\n")
	for s := 0; s < n.NumStates(); s++ {
		for _, q := range n.next[s] {
			p := n.positions[q-1]
			sym := p.label
			if p.any {
				sym = "<any>"
			}
			acc := ""
			if n.accepting[q] {
				acc = " (accepting)"
			}
			fmt.Fprintf(&sb, "  %d --%s--> %d%s\n", s, sym, q, acc)
		}
	}
	return sb.String()
}

// Build constructs the Glushkov automaton of e.
func Build(e rpq.Expr) *NFA {
	b := &glushkovBuilder{}
	info := b.analyze(e)
	n := &NFA{
		positions: b.positions,
		accepting: make([]bool, len(b.positions)+1),
		next:      make([][]StateID, len(b.positions)+1),
	}
	n.accepting[0] = info.nullable
	for _, p := range info.last {
		n.accepting[p] = true
	}
	n.next[0] = append(n.next[0], info.first...)
	for p, fs := range b.follow {
		n.next[StateID(p)] = append(n.next[StateID(p)], fs...)
	}
	return n
}

type exprInfo struct {
	nullable bool
	first    []StateID
	last     []StateID
}

type glushkovBuilder struct {
	positions []position
	follow    map[int][]StateID
}

func (b *glushkovBuilder) newPosition(p position) StateID {
	b.positions = append(b.positions, p)
	return StateID(len(b.positions))
}

func (b *glushkovBuilder) addFollow(p StateID, qs []StateID) {
	if b.follow == nil {
		b.follow = make(map[int][]StateID)
	}
	b.follow[int(p)] = appendUnique(b.follow[int(p)], qs)
}

func appendUnique(dst []StateID, src []StateID) []StateID {
	for _, s := range src {
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	return dst
}

func (b *glushkovBuilder) analyze(e rpq.Expr) exprInfo {
	switch e := e.(type) {
	case rpq.Label:
		p := b.newPosition(position{label: e.Name})
		return exprInfo{first: []StateID{p}, last: []StateID{p}}
	case rpq.AnyLabel:
		p := b.newPosition(position{any: true})
		return exprInfo{first: []StateID{p}, last: []StateID{p}}
	case rpq.Concat:
		l := b.analyze(e.L)
		r := b.analyze(e.R)
		for _, p := range l.last {
			b.addFollow(p, r.first)
		}
		info := exprInfo{nullable: l.nullable && r.nullable}
		info.first = append(info.first, l.first...)
		if l.nullable {
			info.first = appendUnique(info.first, r.first)
		}
		info.last = append(info.last, r.last...)
		if r.nullable {
			info.last = appendUnique(info.last, l.last)
		}
		return info
	case rpq.Alt:
		l := b.analyze(e.L)
		r := b.analyze(e.R)
		return exprInfo{
			nullable: l.nullable || r.nullable,
			first:    appendUnique(append([]StateID(nil), l.first...), r.first),
			last:     appendUnique(append([]StateID(nil), l.last...), r.last),
		}
	case rpq.Star:
		in := b.analyze(e.In)
		for _, p := range in.last {
			b.addFollow(p, in.first)
		}
		return exprInfo{nullable: true, first: in.first, last: in.last}
	case rpq.Plus:
		in := b.analyze(e.In)
		for _, p := range in.last {
			b.addFollow(p, in.first)
		}
		return exprInfo{nullable: in.nullable, first: in.first, last: in.last}
	case rpq.Opt:
		in := b.analyze(e.In)
		return exprInfo{nullable: true, first: in.first, last: in.last}
	default:
		panic(fmt.Sprintf("automaton: unknown rpq expression %T", e))
	}
}
