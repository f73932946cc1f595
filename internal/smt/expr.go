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
	"math/big"
	"strings"
)

// Var identifies a solver variable.
type Var int

// Expr is an integer expression over solver variables.
type Expr interface {
	// Eval evaluates the expression under a complete assignment.
	Eval(m Model) int64
	// EvalBig evaluates the expression under a complete assignment in
	// arbitrary precision, so an independent checker (internal/verify)
	// can re-decide constraints without inheriting Eval's int64 wrap.
	EvalBig(m Model) *big.Int
	// Bounds returns a conservative interval of the expression's value
	// given per-variable bounds.
	Bounds(lo, hi []int64) Interval
	// CollectVars records the variables used.
	CollectVars(set map[Var]bool)
	// String renders the expression using the problem's variable names.
	render(names []string) string
}

// Model is a complete assignment of values to variables.
type Model []int64

// Value returns the value of v in the model.
func (m Model) Value(v Var) int64 { return m[v] }

// --- expression nodes ---

type constExpr struct{ v int64 }

func (c constExpr) Eval(Model) int64             { return c.v }
func (c constExpr) EvalBig(Model) *big.Int       { return big.NewInt(c.v) }
func (c constExpr) Bounds(_, _ []int64) Interval { return Interval{c.v, c.v} }
func (c constExpr) CollectVars(map[Var]bool)     {}
func (c constExpr) render(_ []string) string     { return fmt.Sprintf("%d", c.v) }

type varExpr struct{ v Var }

func (e varExpr) Eval(m Model) int64       { return m[e.v] }
func (e varExpr) EvalBig(m Model) *big.Int { return big.NewInt(m[e.v]) }
func (e varExpr) Bounds(lo, hi []int64) Interval {
	return Interval{lo[e.v], hi[e.v]}
}
func (e varExpr) CollectVars(set map[Var]bool) { set[e.v] = true }
func (e varExpr) render(names []string) string { return names[e.v] }

type sumExpr struct{ terms []Expr }

func (e sumExpr) Eval(m Model) int64 {
	var s int64
	for _, t := range e.terms {
		s += t.Eval(m)
	}
	return s
}
func (e sumExpr) EvalBig(m Model) *big.Int {
	s := new(big.Int)
	for _, t := range e.terms {
		s.Add(s, t.EvalBig(m))
	}
	return s
}
func (e sumExpr) Bounds(lo, hi []int64) Interval {
	acc := Interval{0, 0}
	for _, t := range e.terms {
		acc = acc.Add(t.Bounds(lo, hi))
	}
	return acc
}
func (e sumExpr) CollectVars(set map[Var]bool) {
	for _, t := range e.terms {
		t.CollectVars(set)
	}
}
func (e sumExpr) render(names []string) string {
	parts := make([]string, len(e.terms))
	for i, t := range e.terms {
		parts[i] = t.render(names)
	}
	return "(" + strings.Join(parts, " + ") + ")"
}

type mulExpr struct{ factors []Expr }

func (e mulExpr) Eval(m Model) int64 {
	p := int64(1)
	for _, f := range e.factors {
		p *= f.Eval(m)
	}
	return p
}
func (e mulExpr) EvalBig(m Model) *big.Int {
	p := big.NewInt(1)
	for _, f := range e.factors {
		p.Mul(p, f.EvalBig(m))
	}
	return p
}
func (e mulExpr) Bounds(lo, hi []int64) Interval {
	acc := Interval{1, 1}
	for _, f := range e.factors {
		acc = acc.Mul(f.Bounds(lo, hi))
	}
	return acc
}
func (e mulExpr) CollectVars(set map[Var]bool) {
	for _, f := range e.factors {
		f.CollectVars(set)
	}
}
func (e mulExpr) render(names []string) string {
	parts := make([]string, len(e.factors))
	for i, f := range e.factors {
		parts[i] = f.render(names)
	}
	return "(" + strings.Join(parts, " * ") + ")"
}

// --- constructors ---

// C returns the constant expression v.
func C(v int64) Expr { return constExpr{v} }

// V returns the expression reading variable v.
func V(v Var) Expr { return varExpr{v} }

// Sum returns t0 + t1 + ....
func Sum(terms ...Expr) Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	return sumExpr{terms: terms}
}

// Mul returns f0 * f1 * ....
func Mul(factors ...Expr) Expr {
	if len(factors) == 1 {
		return factors[0]
	}
	return mulExpr{factors: factors}
}

// Scale returns c * e.
func Scale(c int64, e Expr) Expr { return Mul(C(c), e) }

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
