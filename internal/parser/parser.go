package parser

import (
	"fmt"
	"strconv"

	"repro/internal/affine"
)

// Parse parses a kernel definition and returns the validated kernel.
// Statements, references, loops, arrays and nests carry their source
// positions (affine.Pos), so downstream diagnostics (internal/lint)
// point at the offending DSL line.
func Parse(src string) (*affine.Kernel, error) {
	return ParseNamed(src, "")
}

// ParseNamed is Parse with a source name (typically the file path)
// stamped into every positioned error, so parse failures render
// "file:line:col: message". An empty name keeps the "kernel DSL" prefix.
func ParseNamed(src, name string) (*affine.Kernel, error) {
	k, err := parse(src)
	if err != nil {
		if perr, ok := err.(*Error); ok && name != "" && perr.File == "" {
			perr.File = name
		}
		return nil, err
	}
	return k, nil
}

func parse(src string) (*affine.Kernel, error) {
	p := &parser{lx: newLexer(src)}
	p.tok = p.lex()
	p.ahead = p.lex()
	k, err := p.kernel()
	// A lex error anywhere in the source outranks a parse error, as if
	// the whole input were tokenized first.
	if lexErr := p.drain(); lexErr != nil {
		return nil, lexErr
	}
	if err != nil {
		return nil, err
	}
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return k, nil
}

// parser reads tokens from the lexer on demand, holding only the
// current token and one of lookahead.
type parser struct {
	lx     lexer
	tok    token // current token
	ahead  token // the token after tok
	lexErr error // first lex error; the token stream ends (EOF) there

	// params maps each declared parameter, and iters each iterator in
	// scope (current nest), to its single-atom expression. Every use of
	// a name shares that expression's coefficient map.
	params map[string]affine.Expr
	iters  map[string]affine.Expr
}

// lex returns the next token from the lexer. On a lex error it records
// the error and yields EOF from then on.
func (p *parser) lex() token {
	if p.lexErr == nil {
		t, err := p.lx.next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return token{kind: tokEOF, line: p.lx.line, col: p.lx.col}
}

// drain lexes the rest of the source and returns the first lex error in
// it, if any.
func (p *parser) drain() error {
	for p.ahead.kind != tokEOF {
		p.ahead = p.lex()
	}
	return p.lexErr
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) peek() token { return p.ahead }

// advance consumes the current token and returns it; at EOF it stays.
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.ahead
		p.ahead = p.lex()
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...interface{}) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// pos converts a token's position into the IR's position type.
func pos(t token) affine.Pos { return affine.Pos{Line: t.line, Col: t.col} }

// expectSymbol consumes the given symbol or fails.
func (p *parser) expectSymbol(s string) error {
	t := p.cur()
	if t.kind != tokSymbol || t.text != s {
		return p.errorf(t, "expected %q, found %s", s, t)
	}
	p.advance()
	return nil
}

// expectKeyword consumes the given identifier keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	t := p.cur()
	if t.kind != tokIdent || t.text != kw {
		return p.errorf(t, "expected %q, found %s", kw, t)
	}
	p.advance()
	return nil
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && t.text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errorf(t, "expected identifier, found %s", t)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) number() (int64, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, p.errorf(t, "expected number, found %s", t)
	}
	p.advance()
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errorf(t, "bad number %q", t.text)
	}
	return v, nil
}

// kernelName reads a kernel name, which — unlike other identifiers — may
// start with a digit and contain dashes ("2mm", "heat-3d"). The lexer
// splits such names into adjacent tokens; they are re-joined here as long
// as they touch (no whitespace in between).
func (p *parser) kernelName() (string, error) {
	t := p.cur()
	if t.kind != tokIdent && t.kind != tokNumber {
		return "", p.errorf(t, "expected kernel name, found %s", t)
	}
	name := t.text
	endCol := t.col + len(t.text)
	line := t.line
	p.advance()
	for {
		t := p.cur()
		adjacent := t.line == line && t.col == endCol
		joinable := t.kind == tokIdent || t.kind == tokNumber ||
			(t.kind == tokSymbol && t.text == "-")
		if !adjacent || !joinable {
			return name, nil
		}
		name += t.text
		endCol += len(t.text)
		p.advance()
	}
}

// kernel := "kernel" name "{" section* "}"
func (p *parser) kernel() (*affine.Kernel, error) {
	if err := p.expectKeyword("kernel"); err != nil {
		return nil, err
	}
	name, err := p.kernelName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}

	k := &affine.Kernel{Name: name, Params: map[string]int64{}}
	p.params = map[string]affine.Expr{}

	for {
		t := p.cur()
		if t.kind == tokSymbol && t.text == "}" {
			p.advance()
			break
		}
		if t.kind == tokEOF {
			return nil, p.errorf(t, "unterminated kernel body")
		}
		switch {
		case t.kind == tokIdent && t.text == "param":
			if err := p.paramSection(k); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && t.text == "array":
			if err := p.arraySection(k); err != nil {
				return nil, err
			}
		case t.kind == tokIdent && (t.text == "nest" || t.text == "repeat"):
			if err := p.nestSection(k); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf(t, "expected 'param', 'array', 'nest' or 'repeat', found %s", t)
		}
	}
	if t := p.cur(); t.kind != tokEOF {
		return nil, p.errorf(t, "trailing input after kernel body")
	}
	return k, nil
}

// paramSection := "param" name "=" number ("," name "=" number)*
func (p *parser) paramSection(k *affine.Kernel) error {
	p.advance() // 'param'
	for {
		name, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		v, err := p.number()
		if err != nil {
			return err
		}
		if _, dup := p.params[name]; dup {
			return p.errorf(p.cur(), "parameter %q declared twice", name)
		}
		p.params[name] = affine.NewParam(name)
		k.Params[name] = v
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		return nil
	}
}

// arraySection := "array" arrayDecl ("," arrayDecl)*
// arrayDecl    := name ("[" expr "]")+
func (p *parser) arraySection(k *affine.Kernel) error {
	p.advance() // 'array'
	for {
		at := p.cur()
		name, err := p.ident()
		if err != nil {
			return err
		}
		var dims []affine.Expr
		for p.cur().kind == tokSymbol && p.cur().text == "[" {
			p.advance()
			e, err := p.affineExpr()
			if err != nil {
				return err
			}
			if len(e.Iters) != 0 {
				return p.errorf(p.cur(), "array %q dimension uses a loop iterator", name)
			}
			dims = append(dims, e)
			if err := p.expectSymbol("]"); err != nil {
				return err
			}
		}
		if len(dims) == 0 {
			return p.errorf(p.cur(), "array %q has no dimensions", name)
		}
		k.Arrays = append(k.Arrays, affine.Array{Name: name, Dims: dims, Pos: pos(at)})
		if p.cur().kind == tokSymbol && p.cur().text == "," {
			p.advance()
			continue
		}
		return nil
	}
}

// nestSection := ["repeat" param] "nest" name "{" loop* "{" stmt+ "}" "}"
// Loops may also wrap the statement block directly:
//
//	nest n { for i in 0..N for j in 0..M { S: ... } }
func (p *parser) nestSection(k *affine.Kernel) error {
	var repeat affine.Expr
	if p.acceptKeyword("repeat") {
		name, err := p.ident()
		if err != nil {
			return err
		}
		atom, ok := p.params[name]
		if !ok {
			return p.errorf(p.cur(), "repeat count %q is not a declared parameter", name)
		}
		repeat = atom
	}
	if err := p.expectKeyword("nest"); err != nil {
		return err
	}
	nt := p.cur()
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}

	nest := affine.Nest{Name: name, Repeat: repeat, Pos: pos(nt)}
	p.iters = map[string]affine.Expr{}

	// Loop headers.
	for p.acceptKeyword("for") {
		it := p.cur()
		iter, err := p.ident()
		if err != nil {
			return err
		}
		if _, dup := p.iters[iter]; dup {
			return p.errorf(p.cur(), "iterator %q reused in nest %q", iter, name)
		}
		if err := p.expectKeyword("in"); err != nil {
			return err
		}
		lo, err := p.affineExpr()
		if err != nil {
			return err
		}
		t := p.cur()
		if t.kind != tokDotDot {
			return p.errorf(t, "expected '..' in loop range, found %s", t)
		}
		p.advance()
		hi, err := p.affineExpr()
		if err != nil {
			return err
		}
		nest.Loops = append(nest.Loops, affine.Loop{Name: iter, Lower: lo, Upper: hi, Pos: pos(it)})
		p.iters[iter] = affine.NewIter(iter)
	}
	if len(nest.Loops) == 0 {
		return p.errorf(p.cur(), "nest %q has no loops", name)
	}

	// Statement block.
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && t.text == "}" {
			p.advance()
			break
		}
		st, err := p.statement()
		if err != nil {
			return err
		}
		nest.Body = append(nest.Body, st)
	}
	if len(nest.Body) == 0 {
		return p.errorf(p.cur(), "nest %q has no statements", name)
	}
	if err := p.expectSymbol("}"); err != nil {
		return err
	}
	k.Nests = append(k.Nests, nest)
	return nil
}

// statement := name ":" ref ("=" | "+=") rhs [";"] ["@" "flops" "(" n ")"]
// rhs       := term (("+"|"-"|"*"|"/") term)*
// term      := ref | number
func (p *parser) statement() (affine.Statement, error) {
	var st affine.Statement
	nt := p.cur()
	name, err := p.ident()
	if err != nil {
		return st, err
	}
	st.Name = name
	st.Pos = pos(nt)
	if err := p.expectSymbol(":"); err != nil {
		return st, err
	}

	lhs, err := p.arrayRef(true)
	if err != nil {
		return st, err
	}
	st.Refs = append(st.Refs, lhs)

	// Assignment operator.
	switch t := p.cur(); {
	case t.kind == tokPlusEq:
		p.advance()
		st.Reduction = true
		// An accumulation also reads its target.
		rd := lhs
		rd.Write = false
		st.Refs = append(st.Refs, rd)
	case t.kind == tokSymbol && t.text == "=":
		p.advance()
	default:
		return st, p.errorf(t, "expected '=' or '+=', found %s", t)
	}

	// Right-hand side: collect refs and count operators.
	ops := int64(0)
	if st.Reduction {
		ops = 1 // the accumulation add
	}
	for {
		t := p.cur()
		switch {
		case t.kind == tokIdent && p.peek().kind == tokSymbol && p.peek().text == "[":
			r, err := p.arrayRef(false)
			if err != nil {
				return st, err
			}
			st.Refs = append(st.Refs, r)
		case t.kind == tokIdent:
			// scalar constant like alpha/beta: consumed, no ref
			p.advance()
		case t.kind == tokNumber:
			p.advance()
		default:
			return st, p.errorf(t, "expected operand, found %s", t)
		}
		t = p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "*" || t.text == "/") {
			ops++
			p.advance()
			continue
		}
		break
	}

	if p.cur().kind == tokSymbol && p.cur().text == ";" {
		p.advance()
	}

	// Optional @flops(n) override.
	st.FlopsPerIter = ops
	if p.cur().kind == tokSymbol && p.cur().text == "@" {
		p.advance()
		if err := p.expectKeyword("flops"); err != nil {
			return st, err
		}
		if err := p.expectSymbol("("); err != nil {
			return st, err
		}
		n, err := p.number()
		if err != nil {
			return st, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return st, err
		}
		st.FlopsPerIter = n
	}
	if st.FlopsPerIter < 1 {
		st.FlopsPerIter = 1
	}
	return st, nil
}

// arrayRef := name ("[" affineExpr "]")+
func (p *parser) arrayRef(write bool) (affine.Ref, error) {
	var r affine.Ref
	nt := p.cur()
	name, err := p.ident()
	if err != nil {
		return r, err
	}
	r.Array = name
	r.Write = write
	r.Pos = pos(nt)
	if t := p.cur(); t.kind != tokSymbol || t.text != "[" {
		return r, p.errorf(t, "expected '[' after array %q", name)
	}
	for p.cur().kind == tokSymbol && p.cur().text == "[" {
		p.advance()
		e, err := p.affineExpr()
		if err != nil {
			return r, err
		}
		r.Subscripts = append(r.Subscripts, e)
		if err := p.expectSymbol("]"); err != nil {
			return r, err
		}
	}
	return r, nil
}

// affineExpr := term (("+"|"-") term)*
// term       := [number "*"] atom | number
// atom       := iterator | parameter
func (p *parser) affineExpr() (affine.Expr, error) {
	e, err := p.affineTerm(1)
	if err != nil {
		return affine.Expr{}, err
	}
	for {
		t := p.cur()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			sign := int64(1)
			if t.text == "-" {
				sign = -1
			}
			p.advance()
			rhs, err := p.affineTerm(sign)
			if err != nil {
				return affine.Expr{}, err
			}
			e = e.Add(rhs)
			continue
		}
		return e, nil
	}
}

func (p *parser) affineTerm(sign int64) (affine.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := p.number()
		if err != nil {
			return affine.Expr{}, err
		}
		// coefficient form: n * atom
		if s := p.cur(); s.kind == tokSymbol && s.text == "*" {
			p.advance()
			atom, err := p.affineAtom()
			if err != nil {
				return affine.Expr{}, err
			}
			return atom.Scale(sign * v), nil
		}
		return affine.NewConst(sign * v), nil
	case tokIdent:
		atom, err := p.affineAtom()
		if err != nil {
			return affine.Expr{}, err
		}
		if sign == 1 {
			return atom, nil // scaling by one would only copy it
		}
		return atom.Scale(sign), nil
	default:
		return affine.Expr{}, p.errorf(t, "expected affine term, found %s", t)
	}
}

func (p *parser) affineAtom() (affine.Expr, error) {
	name, err := p.ident()
	if err != nil {
		return affine.Expr{}, err
	}
	if atom, ok := p.params[name]; ok {
		return atom, nil
	}
	if atom, ok := p.iters[name]; ok {
		return atom, nil
	}
	// Inside array-dimension expressions iterators are not in scope, so
	// any unknown name must be a parameter.
	if p.iters == nil {
		return affine.Expr{}, p.errorf(p.cur(), "unknown parameter %q", name)
	}
	return affine.Expr{}, p.errorf(p.cur(), "unknown name %q (not a parameter or loop iterator)", name)
}
