// Package smt is a finite-domain solver for the non-linear integer
// formulations EATSS generates. It stands in for the Z3 SMT solver used by
// the paper: tile-size variables have small bounded domains (multiples of a
// warp fraction within [1, T_P_B], Sec. IV-B), so an exact branch-and-prune
// search with interval reasoning decides the same formulas Z3 does, and the
// paper's iterative objective-improvement loop (add OBJ_{n+1} > OBJ_n until
// UNSAT, Sec. IV-L) is reproduced verbatim by Maximize.
package smt

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"strconv"
	"strings"
)

// Var identifies a solver variable.
type Var int

// Expr is an integer polynomial over solver variables, held as the flat
// sum of monomials the search decides: monomial t is coef[t] times the
// product of the variables idx[idx[t]:idx[t+1]], a variable repeated once
// per occurrence. idx opens with the len(coef)+1 monomial bounds, so the
// variable occurrences are idx[len(coef)+1:]. An Expr is immutable once
// built, so expressions share their slices freely. Build one with C, V,
// Sum, Mul and Scale; the zero Expr is not a valid expression.
type Expr struct {
	coef []int64
	idx  []int32
}

// Model is a complete assignment of values to variables.
type Model []int64

// Value returns the value of v in the model.
func (m Model) Value(v Var) int64 { return m[v] }

// --- constructors ---

// Expressions share immutable slices where they can, so building a
// constant allocates only its coefficient, and reading one of the first
// len(varIdx) variables allocates nothing: constIdx is the index of
// every constant, varIdx[v] that of V(v), and unit the coefficient of
// every V.
var (
	constIdx = []int32{2, 2}
	unit     = []int64{1}
	varIdx   = func() (idx [64][3]int32) {
		for v := range idx {
			idx[v] = [3]int32{2, 3, int32(v)}
		}
		return idx
	}()
)

// C returns the constant expression v.
func C(v int64) Expr { return Expr{coef: []int64{v}, idx: constIdx} }

// V returns the expression reading variable v.
func V(v Var) Expr {
	if v >= 0 && int(v) < len(varIdx) {
		return Expr{coef: unit, idx: varIdx[v][:]}
	}
	return Expr{coef: unit, idx: []int32{2, 3, int32(v)}}
}

// Sum returns t0 + t1 + ...: the terms' monomials, concatenated in order.
func Sum(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	var n, occ int
	for _, t := range terms {
		n, occ = n+len(t.coef), occ+len(t.occs())
	}
	out := Expr{coef: make([]int64, 0, n), idx: make([]int32, n+1, n+1+occ)}
	for _, t := range terms {
		for i, c := range t.coef {
			out.idx[len(out.coef)] = int32(len(out.idx))
			out.coef = append(out.coef, c)
			out.idx = append(out.idx, t.mono(i)...)
		}
	}
	out.idx[n] = int32(len(out.idx))
	return out
}

// Mul returns f0 * f1 * ..., distributed: one monomial per choice of a
// monomial from each factor, the first factor's choice outermost, with
// the factors' variables in factor order and their coefficients folded.
// It panics when a folded coefficient overflows int64.
func Mul(factors ...Expr) Expr {
	if len(factors) == 1 {
		return factors[0]
	}
	n, occ := 1, 0
	for _, f := range factors {
		n, occ = n*len(f.coef), occ*len(f.coef)+len(f.occs())*n
	}
	out := Expr{coef: make([]int64, 0, n), idx: make([]int32, n+1, n+1+occ)}
	// pick[i] is the monomial of factor i in the next product, advanced
	// like an odometer whose last digit turns fastest.
	var buf [4]int
	pick := buf[:0]
	for range factors {
		pick = append(pick, 0)
	}
	for range n {
		out.idx[len(out.coef)] = int32(len(out.idx))
		c := int64(1)
		for i, f := range factors {
			c = mulExact(c, f.coef[pick[i]])
			out.idx = append(out.idx, f.mono(pick[i])...)
		}
		out.coef = append(out.coef, c)
		for i := len(pick) - 1; i >= 0; i-- {
			if pick[i]++; pick[i] < len(factors[i].coef) {
				break
			}
			pick[i] = 0
		}
	}
	out.idx[n] = int32(len(out.idx))
	return out
}

// Scale returns c * e, which is Mul(C(c), e).
func Scale(c int64, e Expr) Expr {
	out := Expr{coef: make([]int64, len(e.coef)), idx: e.idx}
	for t, k := range e.coef {
		out.coef[t] = mulExact(c, k)
	}
	return out
}

// mulExact returns a * b, panicking when the product overflows int64:
// a folded coefficient that wrapped would make EvalBig, the certifier's
// exact replay, decide a different polynomial than the one built.
func mulExact(a, b int64) int64 {
	p := a * b
	if a != 0 && (p/a != b || a == -1 && b == math.MinInt64) {
		panic(fmt.Sprintf("smt: coefficient %d * %d overflows int64", a, b))
	}
	return p
}

// --- reading ---

// mono returns the variables of monomial t.
func (e *Expr) mono(t int) []int32 { return e.idx[e.idx[t]:e.idx[t+1]] }

// occs returns e's variable occurrences, monomial after monomial.
func (e *Expr) occs() []int32 { return e.idx[len(e.coef)+1:] }

// Vars returns the distinct variables e reads, ascending.
func (e Expr) Vars() []Var {
	vs := make([]Var, 0, len(e.occs()))
	for _, v := range e.occs() {
		vs = append(vs, Var(v))
	}
	slices.Sort(vs)
	return slices.Compact(vs)
}

// Eval evaluates e under a complete assignment, in int64 arithmetic that
// wraps on overflow.
func (e Expr) Eval(m Model) int64 {
	var s int64
	for t, c := range e.coef {
		for _, v := range e.mono(t) {
			c *= m[v]
		}
		s += c
	}
	return s
}

// EvalBig evaluates e under a complete assignment in arbitrary
// precision, so an independent checker (internal/verify) can re-decide
// constraints without inheriting Eval's int64 wrap.
func (e Expr) EvalBig(m Model) *big.Int {
	s, t, x := new(big.Int), new(big.Int), new(big.Int)
	for i, c := range e.coef {
		t.SetInt64(c)
		for _, v := range e.mono(i) {
			t.Mul(t, x.SetInt64(m[v]))
		}
		s.Add(s, t)
	}
	return s
}

// Bounds returns a conservative interval of e's value given per-variable
// bounds: each monomial's range is the interval product of its
// coefficient and its variables' bounds, a repeated variable taken
// independently per occurrence.
func (e Expr) Bounds(lo, hi []int64) Interval {
	acc := Interval{}
	for t, c := range e.coef {
		m := Interval{c, c}
		for _, v := range e.mono(t) {
			m = m.Mul(Interval{lo[v], hi[v]})
		}
		acc = acc.Add(m)
	}
	return acc
}

// Render returns e using p's variable names: its monomials joined by
// " + ", each its coefficient and variables joined by "*", with a
// coefficient of 1 left out before variables ("6*T_i*T_j + T_k").
func (e Expr) Render(p *Problem) string { return e.render(p.names) }

func (e Expr) render(names []string) string {
	if len(e.coef) == 0 {
		return "0"
	}
	var b strings.Builder
	for t, c := range e.coef {
		if t > 0 {
			b.WriteString(" + ")
		}
		vs := e.mono(t)
		if c != 1 || len(vs) == 0 {
			b.WriteString(strconv.FormatInt(c, 10))
			if len(vs) > 0 {
				b.WriteByte('*')
			}
		}
		for i, v := range vs {
			if i > 0 {
				b.WriteByte('*')
			}
			b.WriteString(names[v])
		}
	}
	return b.String()
}

// remap returns e over renumbered variables, variable v becoming to[v],
// keeping only the monomials ts, or every monomial when ts is nil.
func (e Expr) remap(ts []int, to []Var) Expr {
	n := len(ts)
	if ts == nil {
		n = len(e.coef)
	}
	out := Expr{coef: make([]int64, 0, n), idx: make([]int32, n+1, n+1+len(e.occs()))}
	for i := range n {
		t := i
		if ts != nil {
			t = ts[i]
		}
		out.idx[i] = int32(len(out.idx))
		out.coef = append(out.coef, e.coef[t])
		for _, v := range e.mono(t) {
			out.idx = append(out.idx, int32(to[v]))
		}
	}
	out.idx[n] = int32(len(out.idx))
	return out
}

// --- constraints ---

// Op is a comparison operator.
type Op int

// Comparison operators for constraints.
const (
	LE Op = iota // <=
	LT           // <
	GE           // >=
	GT           // >
	EQ           // ==
	NE           // !=
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "=="
	default:
		return "!="
	}
}

// Constraint is a comparison between two expressions. Label optionally
// names the model constraint kind ("register", "l1-capacity", ...); the
// solver attributes pruned subtrees to it, so the search telemetry can
// report which part of the formulation does the cutting (Sec. V-G).
type Constraint struct {
	L     Expr
	Op    Op
	R     Expr
	Label string
}

// Holds evaluates the constraint under a complete model.
func (c Constraint) Holds(m Model) bool {
	return compare(c.Op, c.L.Eval(m), c.R.Eval(m))
}

// HoldsBig decides the constraint under a complete model in arbitrary
// precision. It is the certification path (internal/verify): where Eval
// could wrap int64 on adversarial formulations, HoldsBig cannot, so a
// disagreement between Holds and HoldsBig exposes overflow in the solver
// arithmetic rather than hiding it.
func (c Constraint) HoldsBig(m Model) bool {
	cmp := c.L.EvalBig(m).Cmp(c.R.EvalBig(m))
	switch c.Op {
	case LE:
		return cmp <= 0
	case LT:
		return cmp < 0
	case GE:
		return cmp >= 0
	case GT:
		return cmp > 0
	case EQ:
		return cmp == 0
	default:
		return cmp != 0
	}
}

// Render returns the constraint in the problem's SMT-LIB-flavored form,
// resolving variable names through the owning problem.
func (c Constraint) Render(p *Problem) string {
	return fmt.Sprintf("(%s %s %s)", c.Op, c.L.render(p.names), c.R.render(p.names))
}
