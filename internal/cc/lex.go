// Package cc implements a small C-like frontend for the CARAT toolchain.
// The paper's pipeline starts from "arbitrary code (C, C++, ...)" lowered
// to IR by the compiler front end; this package plays that role for a
// C-subset language ("CARAT-C") so programs can be written as source text
// rather than hand-assembled IR:
//
//	global table: [256]int;
//
//	func sum(n: int): int {
//	    var acc = 0;
//	    for (var i = 0; i < n; i = i + 1) {
//	        acc = acc + table[i & 255];
//	    }
//	    return acc;
//	}
//
//	func main(): int {
//	    return sum(1000);
//	}
//
// Types are int (i64), float (f64), and ptr; globals may be scalars or
// fixed arrays; malloc/free/print_int/print_float are builtins. The
// restrictions of §2.2 hold by construction: no casts between function and
// data pointers, no inline assembly, no self-modifying code.
package cc

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tPunct // operators and separators
)

type token struct {
	kind tokKind
	text string
	line int
}

// multi-char operators, longest first.
var operators = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
	"+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "=", "!",
	"(", ")", "{", "}", "[", "]", ",", ";", ":",
}

// lexer scans src one token at a time, on the parser's demand: the parser
// looks one token ahead and never backs up, so no token outlives its turn.
type lexer struct {
	src  string
	pos  int
	line int
	err  error // the first bad character; every scan after it returns tEOF
}

// scan returns the next token, tEOF at the end of src or at a character no
// token starts with (which it records in l.err).
func (l *lexer) scan() token {
	l.skipSpace()
	if l.pos >= len(l.src) || l.err != nil {
		return token{kind: tEOF, line: l.line}
	}
	c := l.src[l.pos]
	start := l.pos
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
			l.pos++
		}
		return token{tIdent, l.src[start:l.pos], l.line}
	case unicode.IsDigit(rune(c)):
		kind := tInt
		for l.pos < len(l.src) {
			d := l.src[l.pos]
			if d == '.' {
				kind = tFloat
			} else if d != 'x' && d != 'X' && !isHexByte(d) {
				break
			}
			l.pos++
		}
		return token{kind, l.src[start:l.pos], l.line}
	}
	for _, op := range operators {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.pos += len(op)
			return token{tPunct, op, l.line}
		}
	}
	l.err = fmt.Errorf("cc: line %d: unexpected character %q", l.line, c)
	return token{kind: tEOF, line: l.line}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		default:
			return
		}
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func isHexByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
