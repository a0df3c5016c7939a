package cond

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"pathalgebra/internal/graph"
)

// Parse parses a selection condition written in the paper's concrete
// syntax, e.g.
//
//	label(edge(1)) = "Knows" AND first.name = "Moe"
//	len() <= 3 OR NOT (last.age > 30)
//
// Keywords (AND, OR, NOT, first, last, node, edge, label, len, true,
// false) are case-insensitive. String literals use double quotes.
func Parse(input string) (Cond, error) {
	c, end, err := ParsePrefix(input)
	if err != nil {
		return nil, err
	}
	if end != len(input) {
		return nil, fmt.Errorf("cond: unexpected %q after condition", input[end:])
	}
	return c, nil
}

// ParsePrefix parses the condition at the start of src and returns it
// with the offset of the first token after it, where a host grammar
// (GQL's WHERE clause) resumes. That token must still lex as a condition
// token; it ends the condition by not continuing it.
func ParsePrefix(src string) (Cond, int, error) {
	p := &condParser{lex: newCondLexer(src)}
	if err := p.advance(); err != nil {
		return nil, 0, err
	}
	c, err := p.parseOr()
	if err != nil {
		return nil, 0, err
	}
	return c, p.lex.start, nil
}

// ParseLiteral parses the literal at the start of src — a string, an
// integer, a float or a boolean, as on the right of a property
// comparison — and returns it with the offset just past it.
func ParseLiteral(src string) (graph.Value, int, error) {
	l := newCondLexer(src)
	if err := l.next(); err != nil {
		return graph.Value{}, 0, err
	}
	v, err := literal(l.tok)
	return v, l.pos, err
}

// MustParse is Parse panicking on error, for fixtures and examples.
func MustParse(input string) Cond {
	c, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return c
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokLParen
	tokRParen
	tokDot
	tokOp
	tokInvalid // a character no token starts with; advance reports it
)

type token struct {
	kind tokKind
	text string
}

type condLexer struct {
	src   string
	pos   int
	start int // offset of tok
	tok   token
}

func newCondLexer(src string) *condLexer { return &condLexer{src: src} }

func (l *condLexer) next() error {
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += size
	}
	l.start = l.pos
	if l.pos >= len(l.src) {
		l.tok = token{kind: tokEOF}
		return nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		l.tok = token{kind: tokLParen, text: "("}
	case c == ')':
		l.pos++
		l.tok = token{kind: tokRParen, text: ")"}
	case c == '.':
		l.pos++
		l.tok = token{kind: tokDot, text: "."}
	case c == '"':
		return l.lexString()
	case c == '=':
		l.pos++
		l.tok = token{kind: tokOp, text: "="}
	case c == '!' && l.peekAt(1) == '=':
		l.pos += 2
		l.tok = token{kind: tokOp, text: "!="}
	case c == '<':
		switch l.peekAt(1) {
		case '=':
			l.pos += 2
			l.tok = token{kind: tokOp, text: "<="}
		case '>':
			l.pos += 2
			l.tok = token{kind: tokOp, text: "!="}
		default:
			l.pos++
			l.tok = token{kind: tokOp, text: "<"}
		}
	case c == '>':
		if l.peekAt(1) == '=' {
			l.pos += 2
			l.tok = token{kind: tokOp, text: ">="}
		} else {
			l.pos++
			l.tok = token{kind: tokOp, text: ">"}
		}
	case c == '-' || (c >= '0' && c <= '9'):
		return l.lexNumber()
	default:
		// Identifiers are scanned rune-wise, not byte-wise, so multi-byte
		// letters survive intact instead of being truncated mid-rune.
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentStart(r) {
			l.pos += size
			l.tok = token{kind: tokInvalid, text: string(r)}
			return nil
		}
		start := l.pos
		for l.pos < len(l.src) {
			r, size = utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentPart(r) {
				break
			}
			l.pos += size
		}
		l.tok = token{kind: tokIdent, text: l.src[start:l.pos]}
	}
	return nil
}

func (l *condLexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *condLexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			l.tok = token{kind: tokString, text: sb.String()}
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return fmt.Errorf("cond: unterminated escape at offset %d", l.pos)
			}
			l.pos++
			sb.WriteByte(l.src[l.pos])
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return fmt.Errorf("cond: unterminated string starting at offset %d", start)
}

func (l *condLexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	l.tok = token{kind: tokNumber, text: l.src[start:l.pos]}
	return nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }

type condParser struct {
	lex *condLexer
}

func (p *condParser) advance() error {
	if err := p.lex.next(); err != nil {
		return err
	}
	if p.lex.tok.kind == tokInvalid {
		return fmt.Errorf("cond: unexpected character %q at offset %d", p.lex.tok.text, p.lex.start)
	}
	return nil
}

func (p *condParser) isKeyword(kw string) bool {
	return p.lex.tok.kind == tokIdent && strings.EqualFold(p.lex.tok.text, kw)
}

func (p *condParser) parseOr() (Cond, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or{L: left, R: right}
	}
	return left, nil
}

func (p *condParser) parseAnd() (Cond, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And{L: left, R: right}
	}
	return left, nil
}

func (p *condParser) parseUnary() (Cond, error) {
	if p.isKeyword("NOT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not{C: inner}, nil
	}
	if p.lex.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.lex.tok.kind != tokRParen {
			return nil, fmt.Errorf("cond: expected ')', got %q", p.lex.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseSimple()
}

func (p *condParser) parseSimple() (Cond, error) {
	if p.lex.tok.kind != tokIdent {
		return nil, fmt.Errorf("cond: expected condition, got %q", p.lex.tok.text)
	}
	head := p.lex.tok.text
	switch {
	case strings.EqualFold(head, "label"):
		return p.parseLabelCmp()
	case strings.EqualFold(head, "len"):
		return p.parseLenCmp()
	default:
		return p.parsePropCmp()
	}
}

// label ( target ) op "string"
func (p *condParser) parseLabelCmp() (Cond, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	t, err := p.parseTarget()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	if p.lex.tok.kind != tokString {
		return nil, fmt.Errorf("cond: label comparison needs a string literal, got %q", p.lex.tok.text)
	}
	v := p.lex.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	return LabelCmp{Target: t, Op: op, Value: v}, nil
}

// len ( ) op int
func (p *condParser) parseLenCmp() (Cond, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	if err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	if p.lex.tok.kind != tokNumber {
		return nil, fmt.Errorf("cond: len comparison needs an integer, got %q", p.lex.tok.text)
	}
	k, err := strconv.Atoi(p.lex.tok.text)
	if err != nil {
		return nil, fmt.Errorf("cond: bad length %q: %w", p.lex.tok.text, err)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return LenCmp{Op: op, K: k}, nil
}

// target . prop op literal
func (p *condParser) parsePropCmp() (Cond, error) {
	t, err := p.parseTarget()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokDot, "."); err != nil {
		return nil, err
	}
	if p.lex.tok.kind != tokIdent {
		return nil, fmt.Errorf("cond: expected property name, got %q", p.lex.tok.text)
	}
	prop := p.lex.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	op, err := p.parseOp()
	if err != nil {
		return nil, err
	}
	v, err := literal(p.lex.tok)
	if err != nil {
		return nil, err
	}
	return PropCmp{Target: t, Prop: prop, Op: op, Value: v}, p.advance()
}

func (p *condParser) parseTarget() (Target, error) {
	if p.lex.tok.kind != tokIdent {
		return Target{}, fmt.Errorf("cond: expected first/last/node(i)/edge(i), got %q", p.lex.tok.text)
	}
	name := p.lex.tok.text
	if err := p.advance(); err != nil {
		return Target{}, err
	}
	switch {
	case strings.EqualFold(name, "first"):
		return First(), nil
	case strings.EqualFold(name, "last"):
		return Last(), nil
	case strings.EqualFold(name, "node"), strings.EqualFold(name, "edge"):
		if err := p.expect(tokLParen, "("); err != nil {
			return Target{}, err
		}
		if p.lex.tok.kind != tokNumber {
			return Target{}, fmt.Errorf("cond: %s() needs an integer position, got %q", name, p.lex.tok.text)
		}
		i, err := strconv.Atoi(p.lex.tok.text)
		if err != nil || i < 1 {
			return Target{}, fmt.Errorf("cond: bad position %q (positions are 1-based)", p.lex.tok.text)
		}
		if err := p.advance(); err != nil {
			return Target{}, err
		}
		if err := p.expect(tokRParen, ")"); err != nil {
			return Target{}, err
		}
		if strings.EqualFold(name, "node") {
			return NodeAt(i), nil
		}
		return EdgeAt(i), nil
	default:
		return Target{}, fmt.Errorf("cond: unknown target %q", name)
	}
}

func (p *condParser) parseOp() (Op, error) {
	if p.lex.tok.kind != tokOp {
		return 0, fmt.Errorf("cond: expected comparison operator, got %q", p.lex.tok.text)
	}
	text := p.lex.tok.text
	if err := p.advance(); err != nil {
		return 0, err
	}
	switch text {
	case "=":
		return EQ, nil
	case "!=":
		return NE, nil
	case "<":
		return LT, nil
	case "<=":
		return LE, nil
	case ">":
		return GT, nil
	case ">=":
		return GE, nil
	default:
		return 0, fmt.Errorf("cond: unknown operator %q", text)
	}
}

// literal returns the value a literal token denotes.
func literal(tok token) (graph.Value, error) {
	switch tok.kind {
	case tokString:
		return graph.StringValue(tok.text), nil
	case tokNumber:
		if strings.Contains(tok.text, ".") {
			f, err := strconv.ParseFloat(tok.text, 64)
			if err != nil {
				return graph.Value{}, fmt.Errorf("cond: bad number %q: %w", tok.text, err)
			}
			return graph.FloatValue(f), nil
		}
		i, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			return graph.Value{}, fmt.Errorf("cond: bad number %q: %w", tok.text, err)
		}
		return graph.IntValue(i), nil
	case tokIdent:
		if strings.EqualFold(tok.text, "true") || strings.EqualFold(tok.text, "false") {
			return graph.BoolValue(strings.EqualFold(tok.text, "true")), nil
		}
		return graph.Value{}, fmt.Errorf("cond: expected literal, got identifier %q", tok.text)
	default:
		return graph.Value{}, fmt.Errorf("cond: expected literal, got %q", tok.text)
	}
}

func (p *condParser) expect(k tokKind, what string) error {
	if p.lex.tok.kind != k {
		return fmt.Errorf("cond: expected %q, got %q", what, p.lex.tok.text)
	}
	return p.advance()
}
