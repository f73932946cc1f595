// Package affine provides a lightweight polyhedral-style intermediate
// representation for affine loop nests: rectangular iteration domains,
// affine array subscripts, and statements. It is the substrate that the
// paper obtains from isl/PPCG; EATSS only needs the structural facts this
// package exposes (which iterators index which references, stride-1
// dimensions, loop bounds), so a rectangular-domain IR is sufficient for
// every kernel in the evaluation.
package affine

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Expr is an affine expression over loop iterators and symbolic parameters:
//
//	sum_k coeff_k * iter_k + sum_p coeff_p * param_p + Const
//
// The zero value is the constant 0. Exprs are values whose coefficient
// maps may be shared: the parser gives every use of a name the same map,
// and Kernel.Clone copies Exprs shallowly. Treat the maps as read-only;
// every method returns a fresh Expr.
type Expr struct {
	// Iters maps iterator names to integer coefficients. Absent means 0.
	Iters map[string]int64
	// Params maps parameter names (problem sizes) to coefficients.
	Params map[string]int64
	// Const is the additive constant.
	Const int64
}

// NewConst returns the constant expression c.
func NewConst(c int64) Expr { return Expr{Const: c} }

// NewIter returns the expression consisting of a single iterator with
// coefficient 1.
func NewIter(name string) Expr {
	return Expr{Iters: map[string]int64{name: 1}}
}

// NewParam returns the expression consisting of a single parameter with
// coefficient 1.
func NewParam(name string) Expr {
	return Expr{Params: map[string]int64{name: 1}}
}

// clone returns a deep copy of e.
func (e Expr) clone() Expr {
	out := Expr{Const: e.Const}
	if len(e.Iters) > 0 {
		out.Iters = make(map[string]int64, len(e.Iters))
		for k, v := range e.Iters {
			out.Iters[k] = v
		}
	}
	if len(e.Params) > 0 {
		out.Params = make(map[string]int64, len(e.Params))
		for k, v := range e.Params {
			out.Params[k] = v
		}
	}
	return out
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr {
	out := e.clone()
	out.Const += o.Const
	for k, v := range o.Iters {
		if out.Iters == nil {
			out.Iters = make(map[string]int64)
		}
		out.Iters[k] += v
		if out.Iters[k] == 0 {
			delete(out.Iters, k)
		}
	}
	for k, v := range o.Params {
		if out.Params == nil {
			out.Params = make(map[string]int64)
		}
		out.Params[k] += v
		if out.Params[k] == 0 {
			delete(out.Params, k)
		}
	}
	return out
}

// AddConst returns e + c.
func (e Expr) AddConst(c int64) Expr {
	out := e.clone()
	out.Const += c
	return out
}

// Scale returns e * c.
func (e Expr) Scale(c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	out := e.clone()
	out.Const *= c
	for k := range out.Iters {
		out.Iters[k] *= c
	}
	for k := range out.Params {
		out.Params[k] *= c
	}
	return out
}

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return e.Add(o.Scale(-1)) }

// IterCoeff returns the coefficient of the named iterator (0 if absent).
func (e Expr) IterCoeff(name string) int64 { return e.Iters[name] }

// UsesIter reports whether the iterator appears with nonzero coefficient.
func (e Expr) UsesIter(name string) bool { return e.Iters[name] != 0 }

// IsConstant reports whether e has no iterator or parameter terms.
func (e Expr) IsConstant() bool { return len(e.Iters) == 0 && len(e.Params) == 0 }

// IterNames returns the iterators used in e, sorted.
func (e Expr) IterNames() []string {
	names := make([]string, 0, len(e.Iters))
	for k, v := range e.Iters {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// ParamNames returns the parameters used in e (nonzero coefficient),
// sorted.
func (e Expr) ParamNames() []string {
	names := make([]string, 0, len(e.Params))
	for k, v := range e.Params {
		if v != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Eval evaluates e under the given iterator and parameter bindings.
// Missing bindings evaluate as zero.
func (e Expr) Eval(iters, params map[string]int64) int64 {
	v := e.Const
	for k, c := range e.Iters {
		v += c * iters[k]
	}
	for k, c := range e.Params {
		v += c * params[k]
	}
	return v
}

// EvalParams partially evaluates the parameter part, returning the resulting
// constant contribution plus the untouched iterator terms.
func (e Expr) EvalParams(params map[string]int64) Expr {
	out := Expr{Const: e.Const}
	if len(e.Iters) > 0 {
		out.Iters = make(map[string]int64, len(e.Iters))
		for k, v := range e.Iters {
			out.Iters[k] = v
		}
	}
	for k, c := range e.Params {
		out.Const += c * params[k]
	}
	return out
}

// Equal reports structural equality of the two affine expressions.
func (e Expr) Equal(o Expr) bool {
	d := e.Sub(o)
	return d.Const == 0 && len(d.Iters) == 0 && len(d.Params) == 0
}

// String renders the expression in a canonical human-readable form.
func (e Expr) String() string {
	var b strings.Builder
	e.Render(&b)
	return b.String()
}

// Render writes String's form of e to b: the nonzero iterator terms,
// then the nonzero parameter terms, each group sorted by name, then the
// constant when it is nonzero or nothing else was written. It builds no
// intermediate strings, so hot renderers (the DSL writer behind kernel
// fingerprints) stay cheap.
func (e Expr) Render(b *strings.Builder) {
	first := true
	term := func(name string, c int64) {
		if c >= 0 && !first {
			b.WriteByte('+')
		}
		first = false
		switch c {
		case 1:
		case -1:
			b.WriteByte('-')
		default:
			b.WriteString(strconv.FormatInt(c, 10))
			b.WriteByte('*')
		}
		b.WriteString(name)
	}
	var buf [8]string
	for _, m := range []map[string]int64{e.Iters, e.Params} {
		names := buf[:0]
		for k, v := range m {
			if v != 0 {
				names = append(names, k)
			}
		}
		slices.Sort(names)
		for _, k := range names {
			term(k, m[k])
		}
	}
	if e.Const != 0 || first {
		if e.Const >= 0 && !first {
			b.WriteByte('+')
		}
		b.WriteString(strconv.FormatInt(e.Const, 10))
	}
}
