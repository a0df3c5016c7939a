// Package gql implements the query language front-end of §7 of the paper:
// a lexer and parser for the extended GQL path query syntax (§7.1), the
// translation of parsed queries into path algebra logical plans — including
// the classic GQL selector syntax via the Table 7 compilation scheme — and
// a textual plan printer matching the parser output shown in §7.2. The
// parser owns the query's clauses only: the bracketed path pattern is
// parsed by internal/rpq, and the WHERE clause and property filter values
// by internal/cond, so a condition reads the same in a query as alone.
package gql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen   // (
	tokRParen   // )
	tokLBrace   // {
	tokRBrace   // }
	tokLBracket // [
	tokRegex    // raw text between [ and ]
	tokArrow    // ->
	tokDash     // -
	tokEquals   // =
	tokComma    // ,
	tokColon    // :
	tokDot      // .
	tokQuestion // ?
	tokCmp      // != < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes a query. The bracketed regular expression of a path
// pattern is captured as a single raw tokRegex token and handed to the
// rpq parser, so the two grammars stay independent.
type lexer struct {
	src string
	pos int
	tok token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("gql: offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() error {
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			break
		}
		l.pos += size
	}
	start := l.pos
	if l.pos >= len(l.src) {
		l.tok = token{kind: tokEOF, pos: start}
		return nil
	}
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		l.tok = token{kind: tokLParen, text: "(", pos: start}
	case c == ')':
		l.pos++
		l.tok = token{kind: tokRParen, text: ")", pos: start}
	case c == '{':
		l.pos++
		l.tok = token{kind: tokLBrace, text: "{", pos: start}
	case c == '}':
		l.pos++
		l.tok = token{kind: tokRBrace, text: "}", pos: start}
	case c == '[':
		return l.lexRegex()
	case c == ',':
		l.pos++
		l.tok = token{kind: tokComma, text: ",", pos: start}
	case c == ':':
		l.pos++
		l.tok = token{kind: tokColon, text: ":", pos: start}
	case c == '.':
		l.pos++
		l.tok = token{kind: tokDot, text: ".", pos: start}
	case c == '?':
		l.pos++
		l.tok = token{kind: tokQuestion, text: "?", pos: start}
	case c == '=':
		l.pos++
		l.tok = token{kind: tokEquals, text: "=", pos: start}
	case c == '-':
		if l.peekAt(1) == '>' {
			l.pos += 2
			l.tok = token{kind: tokArrow, text: "->", pos: start}
		} else if l.peekAt(1) >= '0' && l.peekAt(1) <= '9' {
			return l.lexNumber()
		} else {
			l.pos++
			l.tok = token{kind: tokDash, text: "-", pos: start}
		}
	case c == '!':
		if l.peekAt(1) != '=' {
			return l.errorf("unexpected character %q", c)
		}
		l.pos += 2
		l.tok = token{kind: tokCmp, text: "!=", pos: start}
	case c == '<':
		switch l.peekAt(1) {
		case '=':
			l.pos += 2
			l.tok = token{kind: tokCmp, text: "<=", pos: start}
		case '>':
			l.pos += 2
			l.tok = token{kind: tokCmp, text: "!=", pos: start}
		default:
			l.pos++
			l.tok = token{kind: tokCmp, text: "<", pos: start}
		}
	case c == '>':
		if l.peekAt(1) == '=' {
			l.pos += 2
			l.tok = token{kind: tokCmp, text: ">=", pos: start}
		} else {
			l.pos++
			l.tok = token{kind: tokCmp, text: ">", pos: start}
		}
	case c == '"':
		return l.lexString()
	case c >= '0' && c <= '9':
		return l.lexNumber()
	default:
		// Identifiers are scanned rune-wise, not byte-wise, so multi-byte
		// letters survive intact instead of being truncated mid-rune.
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !(unicode.IsLetter(r) || r == '_') {
			return l.errorf("unexpected character %q", r)
		}
		for l.pos < len(l.src) {
			r, size = utf8.DecodeRuneInString(l.src[l.pos:])
			if !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_') {
				break
			}
			l.pos += size
		}
		l.tok = token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	}
	return nil
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

// lexRegex captures everything between the opening '[' and its matching
// ']' as one raw token. Regular path expressions contain no brackets, so
// the first unquoted ']' closes the pattern.
func (l *lexer) lexRegex() error {
	start := l.pos
	l.pos++ // consume '['
	var sb strings.Builder
	inQuote := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '"':
			inQuote = !inQuote
			sb.WriteByte(c)
			l.pos++
		case c == ']' && !inQuote:
			l.pos++
			l.tok = token{kind: tokRegex, text: sb.String(), pos: start}
			return nil
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return l.errorf("unterminated '[' opened at offset %d", start)
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			l.tok = token{kind: tokString, text: sb.String(), pos: start}
			return nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return l.errorf("unterminated escape")
			}
			l.pos++
			sb.WriteByte(l.src[l.pos])
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return l.errorf("unterminated string opened at offset %d", start)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
		l.pos++
	}
	l.tok = token{kind: tokNumber, text: l.src[start:l.pos], pos: start}
	return nil
}
