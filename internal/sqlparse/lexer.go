// Package sqlparse implements the lexer and recursive-descent parser for the
// SQL subset the engine supports: CREATE TABLE / DROP TABLE / INSERT /
// SELECT (joins, WHERE, GROUP BY + aggregates, HAVING, ORDER BY,
// LIMIT/OFFSET, DISTINCT) / UPDATE / DELETE. It exists so BANKS can be run
// "on any schema without any programming", as the paper puts it: datasets
// are loadable and browsable through plain SQL.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp    // operators and punctuation: ( ) , . ; = < > <= >= <> != + - * / ?
	TokParam // ? placeholder
)

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Pos  int
}

// keywords recognized by the lexer; everything else is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "CREATE": true,
	"TABLE": true, "PRIMARY": true, "KEY": true, "FOREIGN": true,
	"REFERENCES": true, "DROP": true, "UPDATE": true, "SET": true,
	"DELETE": true, "ORDER": true, "BY": true, "GROUP": true, "HAVING": true,
	"LIMIT": true, "OFFSET": true, "ASC": true, "DESC": true, "JOIN": true,
	"INNER": true, "LEFT": true, "OUTER": true, "ON": true, "AS": true,
	"DISTINCT": true, "NULL": true, "TRUE": true, "FALSE": true, "LIKE": true,
	"IN": true, "IS": true, "BETWEEN": true, "NOT NULL": true, "UNIQUE": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"WEIGHT": true,
}

// Lexer turns SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString()
	case c == '"':
		return l.lexQuotedIdent()
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.lexNumber()
	case isIdentStart(l.runeAt(l.pos)):
		return l.lexWord()
	case c == '?':
		l.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil
	}
	// Multi-char operators first.
	for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += 2
			return Token{Kind: TokOp, Text: op, Pos: start}, nil
		}
	}
	switch c {
	case '(', ')', ',', '.', ';', '=', '<', '>', '+', '-', '*', '/', '%':
		l.pos++
		return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqlparse: unexpected character %q at offset %d", l.runeAt(l.pos), l.pos)
}

// runeAt decodes the rune that starts at byte offset i of the source.
func (l *Lexer) runeAt(i int) rune {
	r, _ := utf8.DecodeRuneInString(l.src[i:])
	return r
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated string at offset %d", start)
}

func (l *Lexer) lexQuotedIdent() (Token, error) {
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return Token{Kind: TokIdent, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sqlparse: unterminated quoted identifier at offset %d", start)
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

// lexWord lexes a bare word: a keyword, or an identifier of Unicode
// letters, marks, digits, '_' and '$'. Only an ASCII word can be a
// keyword, so "ſelect" (long s), which upper-cases to SELECT, is an
// identifier.
func (l *Lexer) lexWord() (Token, error) {
	start, ascii := l.pos, true
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		ascii = ascii && size == 1
		l.pos += size
	}
	word := l.src[start:l.pos]
	if ascii {
		if up := strings.ToUpper(word); keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Pos: start}, nil
		}
	}
	return Token{Kind: TokIdent, Text: word, Pos: start}, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsMark(r) || unicode.IsDigit(r)
}

// Tokenize lexes the whole input; convenient for tests.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
