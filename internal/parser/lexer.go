// Package parser implements a small domain-specific language for defining
// affine kernels, so the pipeline can run on programs beyond the built-in
// catalog. The syntax mirrors the pseudo-C the paper uses:
//
//	kernel gemm {
//	  param NI = 4000, NJ = 4000, NK = 4000
//	  array C[NI][NJ], A[NI][NK], B[NK][NJ]
//	  nest matmul {
//	    for i in 0..NI
//	    for j in 0..NJ
//	    for k in 0..NK {
//	      S0: C[i][j] += A[i][k] * B[k][j]
//	    }
//	  }
//	}
//
// Loop bounds and subscripts are affine expressions over iterators,
// parameters and integer literals. `=` statements are pointwise;
// `+=` statements are reductions. A trailing `@flops(n)` overrides the
// default per-iteration flop count (the number of arithmetic operators on
// the right-hand side). A nest may be prefixed `repeat <param>` to model a
// sequential host-side loop (e.g. a stencil's time loop).
package parser

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token types.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokSymbol // one of  { } [ ] ( ) , : ; = + - * / . @ < >
	tokDotDot // ..
	tokPlusEq // +=
)

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer turns source text into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) lexer {
	return lexer{src: src, line: 1, col: 1}
}

// Error is a parse or lex error with position information.
type Error struct {
	// File names the source for rendering ("kernel DSL" when parsed
	// from an anonymous string — see ParseNamed).
	File      string
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	file := e.File
	if file == "" {
		file = "kernel DSL"
	}
	return fmt.Sprintf("%s:%d:%d: %s", file, e.Line, e.Col, e.Msg)
}

func (lx *lexer) errorf(format string, args ...interface{}) error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// next returns the next token. Identifier, number and symbol texts are
// substrings of the source, so lexing allocates nothing.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		default:
			goto lexeme
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col}, nil

lexeme:
	startLine, startCol := lx.line, lx.col
	c := lx.peekByte()
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		start := lx.pos
		for lx.pos < len(lx.src) {
			c := lx.peekByte()
			if !unicode.IsLetter(rune(c)) && !unicode.IsDigit(rune(c)) && c != '_' {
				break
			}
			lx.advance()
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: startLine, col: startCol}, nil

	case unicode.IsDigit(rune(c)):
		start := lx.pos
		for lx.pos < len(lx.src) && unicode.IsDigit(rune(lx.peekByte())) {
			lx.advance()
		}
		return token{kind: tokNumber, text: lx.src[start:lx.pos], line: startLine, col: startCol}, nil

	case c == '.':
		lx.advance()
		if lx.peekByte() == '.' {
			lx.advance()
			return token{kind: tokDotDot, text: "..", line: startLine, col: startCol}, nil
		}
		return token{}, &Error{Line: startLine, Col: startCol, Msg: "unexpected '.'"}

	case c == '+':
		lx.advance()
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokPlusEq, text: "+=", line: startLine, col: startCol}, nil
		}
		return token{kind: tokSymbol, text: "+", line: startLine, col: startCol}, nil

	case strings.IndexByte("{}[](),:;=-*/@<>", c) >= 0:
		lx.advance()
		return token{kind: tokSymbol, text: lx.src[lx.pos-1 : lx.pos], line: startLine, col: startCol}, nil
	}
	return token{}, &Error{Line: startLine, Col: startCol, Msg: fmt.Sprintf("unexpected character %q", c)}
}
