package gql

import (
	"fmt"
	"strconv"
	"strings"

	"pathalgebra/internal/cond"
	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/rpq"
)

// Parse parses a path query in either the classic GQL form
//
//	MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)
//
// or the paper's extended form (§7.1)
//
//	MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[:Knows*]->(?y)
//	      GROUP BY TARGET ORDER BY PATH
//
// Endpoint specifications may carry a variable, a label and property
// filters: (?x:Person {name:"Moe"}). A WHERE clause accepts the selection
// condition syntax of §3.1. Keywords are case-insensitive.
func Parse(input string) (*Query, error) {
	p := &parser{lex: newLexer(input)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("gql: unexpected %s after query", p.tok)
	}
	return q, nil
}

// MustParse is Parse panicking on error, for fixtures and examples.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	lex    *lexer
	tok    token
	peeked []token // pushback stack for multi-token lookahead
}

func (p *parser) advance() error {
	if n := len(p.peeked); n > 0 {
		p.tok = p.peeked[n-1]
		p.peeked = p.peeked[:n-1]
		return nil
	}
	if err := p.lex.next(); err != nil {
		return err
	}
	p.tok = p.lex.tok
	return nil
}

// pushback makes tok the next token returned by advance, stashing the
// current token after it.
func (p *parser) pushback(tok token) {
	p.peeked = append(p.peeked, p.tok)
	p.tok = tok
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) eatKeyword(kw string) (bool, error) {
	if !p.isKeyword(kw) {
		return false, nil
	}
	return true, p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	ok, err := p.eatKeyword(kw)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("gql: expected %s, got %s", kw, p.tok)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("MATCH"); err != nil {
		return nil, err
	}
	q := &Query{}
	if err := p.parseHeader(q); err != nil {
		return nil, err
	}
	if err := p.parsePathPattern(q); err != nil {
		return nil, err
	}
	if ok, err := p.eatKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		c, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		q.Where = c
	}
	if ok, err := p.eatKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		key, err := p.parseGroupKey()
		if err != nil {
			return nil, err
		}
		q.GroupBy = &key
	}
	if ok, err := p.eatKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		key, err := p.parseOrderKey()
		if err != nil {
			return nil, err
		}
		q.OrderBy = &key
	}
	if q.Proj == nil && (q.GroupBy != nil || q.OrderBy != nil) && q.Selector.Kind != SelNone {
		return nil, fmt.Errorf("gql: GROUP BY / ORDER BY require the extended projection syntax, not a %s selector", q.Selector)
	}
	return q, nil
}

// parseHeader parses the optional projection or selector clause followed
// by the restrictor. The grammar is disambiguated by lookahead: ALL / a
// number followed by PARTITIONS starts a projection; otherwise ALL, ANY
// and SHORTEST start a selector; a restrictor keyword ends the header.
func (p *parser) parseHeader(q *Query) error {
	if proj, ok, err := p.tryParseProjection(); err != nil {
		return err
	} else if ok {
		q.Proj = &proj
	} else if err := p.parseSelector(q); err != nil {
		return err
	}
	return p.parseRestrictor(q)
}

func (p *parser) tryParseProjection() (Projection, bool, error) {
	c, ok, err := p.tryParseCountWord("PARTITIONS")
	if err != nil || !ok {
		return Projection{}, false, err
	}
	proj := Projection{Parts: c}
	gc, ok, err := p.tryParseCountWord("GROUPS")
	if err != nil {
		return Projection{}, false, err
	}
	if !ok {
		return Projection{}, false, fmt.Errorf("gql: expected '(ALL|n) GROUPS' after PARTITIONS, got %s", p.tok)
	}
	proj.Groups = gc
	pc, ok, err := p.tryParseCountWord("PATHS")
	if err != nil {
		return Projection{}, false, err
	}
	if !ok {
		return Projection{}, false, fmt.Errorf("gql: expected '(ALL|n) PATHS' after GROUPS, got %s", p.tok)
	}
	proj.Paths = pc
	return proj, true, nil
}

// tryParseCountWord matches "(ALL | n) <unit>" with two-token lookahead,
// consuming nothing on a non-match.
func (p *parser) tryParseCountWord(unit string) (core.Count, bool, error) {
	var c core.Count
	switch {
	case p.isKeyword("ALL"):
		c = core.AllCount()
	case p.tok.kind == tokNumber:
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 1 {
			return c, false, fmt.Errorf("gql: bad count %q", p.tok.text)
		}
		c = core.NCount(n)
	default:
		return c, false, nil
	}
	first := p.tok
	if err := p.advance(); err != nil {
		return c, false, err
	}
	if !p.isKeyword(unit) {
		p.pushback(first)
		return c, false, nil
	}
	if err := p.advance(); err != nil {
		return c, false, err
	}
	// Optional DESC: project this level in descending rank order (the
	// paper's §5.3 Algorithm 1 extension).
	if ok, err := p.eatKeyword("DESC"); err != nil {
		return c, false, err
	} else if ok {
		c.Desc = true
	}
	return c, true, nil
}

func (p *parser) parseSelector(q *Query) error {
	switch {
	case p.isKeyword("ALL"):
		if err := p.advance(); err != nil {
			return err
		}
		if ok, err := p.eatKeyword("SHORTEST"); err != nil {
			return err
		} else if ok {
			q.Selector = Selector{Kind: SelAllShortest}
		} else {
			q.Selector = Selector{Kind: SelAll}
		}
	case p.isKeyword("ANY"):
		if err := p.advance(); err != nil {
			return err
		}
		switch {
		case p.isKeyword("SHORTEST"):
			if err := p.advance(); err != nil {
				return err
			}
			q.Selector = Selector{Kind: SelAnyShortest}
		case p.tok.kind == tokNumber:
			k, err := p.parsePositiveInt("ANY")
			if err != nil {
				return err
			}
			q.Selector = Selector{Kind: SelAnyK, K: k}
		default:
			q.Selector = Selector{Kind: SelAny}
		}
	case p.isKeyword("SHORTEST"):
		// Could be the selector "SHORTEST k [GROUP]" or the extended
		// restrictor SHORTEST; a following number disambiguates.
		first := p.tok
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokNumber {
			p.pushback(first)
			return nil // restrictor SHORTEST; leave for parseRestrictor
		}
		k, err := p.parsePositiveInt("SHORTEST")
		if err != nil {
			return err
		}
		if ok, err := p.eatKeyword("GROUP"); err != nil {
			return err
		} else if ok {
			q.Selector = Selector{Kind: SelShortestKGroup, K: k}
		} else {
			q.Selector = Selector{Kind: SelShortestK, K: k}
		}
	}
	return nil
}

func (p *parser) parsePositiveInt(clause string) (int, error) {
	if p.tok.kind != tokNumber {
		return 0, fmt.Errorf("gql: %s needs a positive integer, got %s", clause, p.tok)
	}
	k, err := strconv.Atoi(p.tok.text)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("gql: %s needs a positive integer, got %q", clause, p.tok.text)
	}
	return k, p.advance()
}

func (p *parser) parseRestrictor(q *Query) error {
	for _, kw := range []string{"WALK", "TRAIL", "ACYCLIC", "SIMPLE", "SHORTEST"} {
		if p.isKeyword(kw) {
			sem, err := core.ParseSemantics(kw)
			if err != nil {
				return err
			}
			q.Restrictor = sem
			return p.advance()
		}
	}
	// Restrictor absent: WALK is the GQL default.
	q.Restrictor = core.Walk
	return nil
}

func (p *parser) parsePathPattern(q *Query) error {
	// Optional "var =" prefix.
	if p.tok.kind == tokIdent {
		name := p.tok
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind == tokEquals {
			q.PathVar = name.text
			if err := p.advance(); err != nil {
				return err
			}
		} else {
			p.pushback(name)
		}
	}
	src, err := p.parseNodeSpec()
	if err != nil {
		return err
	}
	q.Src = src
	if p.tok.kind != tokDash {
		return fmt.Errorf("gql: expected '-[' after source node, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tokRegex {
		return fmt.Errorf("gql: expected '[regex]' after '-', got %s", p.tok)
	}
	re, err := rpq.Parse(p.tok.text)
	if err != nil {
		return fmt.Errorf("gql: in path pattern: %w", err)
	}
	q.Regex = re
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind != tokArrow {
		return fmt.Errorf("gql: expected '->' after pattern, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	dst, err := p.parseNodeSpec()
	if err != nil {
		return err
	}
	q.Dst = dst
	return nil
}

func (p *parser) parseNodeSpec() (NodeSpec, error) {
	var n NodeSpec
	if p.tok.kind != tokLParen {
		return n, fmt.Errorf("gql: expected '(' starting a node specification, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return n, err
	}
	if p.tok.kind == tokQuestion {
		if err := p.advance(); err != nil {
			return n, err
		}
		if p.tok.kind != tokIdent {
			return n, fmt.Errorf("gql: expected variable name after '?', got %s", p.tok)
		}
	}
	if p.tok.kind == tokIdent {
		n.Var = p.tok.text
		if err := p.advance(); err != nil {
			return n, err
		}
	}
	if p.tok.kind == tokColon {
		if err := p.advance(); err != nil {
			return n, err
		}
		if p.tok.kind != tokIdent {
			return n, fmt.Errorf("gql: expected label after ':', got %s", p.tok)
		}
		n.Label = p.tok.text
		if err := p.advance(); err != nil {
			return n, err
		}
	}
	if p.tok.kind == tokLBrace {
		if err := p.advance(); err != nil {
			return n, err
		}
		for {
			if p.tok.kind != tokIdent {
				return n, fmt.Errorf("gql: expected property name, got %s", p.tok)
			}
			prop := p.tok.text
			if err := p.advance(); err != nil {
				return n, err
			}
			if p.tok.kind != tokColon {
				return n, fmt.Errorf("gql: expected ':' after property %q, got %s", prop, p.tok)
			}
			if err := p.advance(); err != nil {
				return n, err
			}
			v, err := p.parseLiteral()
			if err != nil {
				return n, err
			}
			n.Props = append(n.Props, PropFilter{Prop: prop, Value: v})
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return n, err
			}
		}
		if p.tok.kind != tokRBrace {
			return n, fmt.Errorf("gql: expected '}' closing properties, got %s", p.tok)
		}
		if err := p.advance(); err != nil {
			return n, err
		}
	}
	if p.tok.kind != tokRParen {
		return n, fmt.Errorf("gql: expected ')' closing node specification, got %s", p.tok)
	}
	return n, p.advance()
}

// parseLiteral reads a property filter's value with cond's literal rule,
// the one a WHERE comparison uses.
func (p *parser) parseLiteral() (graph.Value, error) {
	v, end, err := cond.ParseLiteral(p.lex.src[p.tok.pos:])
	if err != nil {
		return graph.Value{}, fmt.Errorf("gql: %w", err)
	}
	return v, p.resume(end)
}

func (p *parser) parseGroupKey() (core.GroupKey, error) {
	var key core.GroupKey
	any := false
	for {
		switch {
		case p.isKeyword("SOURCE"):
			key |= core.GroupSource
		case p.isKeyword("TARGET"):
			key |= core.GroupTarget
		case p.isKeyword("LENGTH"):
			key |= core.GroupLength
		default:
			if !any {
				return 0, fmt.Errorf("gql: GROUP BY needs SOURCE, TARGET and/or LENGTH, got %s", p.tok)
			}
			return key, nil
		}
		any = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
}

func (p *parser) parseOrderKey() (core.OrderKey, error) {
	var key core.OrderKey
	any := false
	for {
		switch {
		case p.isKeyword("PARTITION"):
			key |= core.OrderPartition
		case p.isKeyword("GROUP"):
			key |= core.OrderGroup
		case p.isKeyword("PATH"):
			key |= core.OrderPath
		default:
			if !any {
				return 0, fmt.Errorf("gql: ORDER BY needs PARTITION, GROUP and/or PATH, got %s", p.tok)
			}
			return key, nil
		}
		any = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
}

// parseCondition hands the WHERE clause to internal/cond, the §3.1
// condition grammar, as parsePathPattern hands the bracketed pattern to
// internal/rpq.
func (p *parser) parseCondition() (cond.Cond, error) {
	c, end, err := cond.ParsePrefix(p.lex.src[p.tok.pos:])
	if err != nil {
		return nil, fmt.Errorf("gql: in WHERE clause: %w", err)
	}
	return c, p.resume(end)
}

// resume lexes on from end bytes past the current token, where
// internal/cond stopped reading. A pushed-back token would be read first
// instead; none is pending, as pushback only serves the header and
// path-variable lookahead, which the next advance or an error ends.
func (p *parser) resume(end int) error {
	p.lex.pos = p.tok.pos + end
	return p.advance()
}
