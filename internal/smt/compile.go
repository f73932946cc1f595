package smt

import "slices"

// The search decides constraints through a compiled form instead of
// walking their Expr trees. Each constraint is lowered once per Solver
// into a check: both sides as flat sums of monomials (poly). At a search
// node every check the node decides is specialised to the variable the
// node assigns: with all other variables fixed (assigned) or at their
// domain bounds, each side is an affine function α + β·val of the value
// tried, so a tried value costs a multiply, an add and a compare per
// check (spec). The decisions are exactly those of Constraint.Holds and
// the interval lookahead over Expr.Bounds (but see arena.lower on
// products of sums), so the search visits the same nodes and counts the
// same prunes as a tree-walking search would.

// poly is an expression lowered to a flat sum of monomials: monomial t
// is coef[t] times the product of vars[start[t]:start[t+1]], a variable
// repeated once per occurrence.
type poly struct {
	coef  []int64
	start []int32
	vars  []int32
}

// size returns the number of monomials in e's lowering and the number
// of variable occurrences across them.
func size(e Expr) (terms, occ int) {
	switch e := e.(type) {
	case constExpr:
		return 1, 0
	case varExpr:
		return 1, 1
	case sumExpr:
		for _, t := range e.terms {
			tt, to := size(t)
			terms, occ = terms+tt, occ+to
		}
	case mulExpr:
		terms = 1
		for _, f := range e.factors {
			ft, fo := size(f)
			terms, occ = terms*ft, occ*ft+fo*terms
		}
	}
	return terms, occ
}

// arena packs the polys of one Solver into shared backing arrays, sized
// up front by reserve, so lowering a formulation allocates a handful of
// slices instead of several per constraint.
type arena struct {
	coef []int64
	idx  []int32 // monomial starts and variable indices
	buf  []int32 // lower's backtracking buffer
}

// reserve sizes the arena for lowering es (and, for constraints, their
// distinct-variable lists).
func (a *arena) reserve(es ...Expr) {
	var terms, idx int
	for _, e := range es {
		t, o := size(e)
		terms, idx = terms+t, idx+t+1+2*o // starts, vars, and a check's distinct vars
	}
	a.coef = make([]int64, terms)
	a.idx = make([]int32, idx)
	if a.buf == nil {
		a.buf = make([]int32, 0, 16)
	}
}

// take carves an empty slice of capacity n off the front of s.
func take[T any](s *[]T, n int) []T {
	if n > len(*s) {
		return make([]T, 0, n)
	}
	out := (*s)[:0:n]
	*s = (*s)[n:]
	return out
}

// lower flattens e into a poly packed into the arena. A product of sums
// is distributed, which is exact for evaluation (int64 arithmetic is a
// ring, wrap-around included) but can widen interval bounds (interval
// arithmetic is only subdistributive): the search stays sound and finds
// the same models, yet may prune less than the tree would. The
// formulations core and feas build never multiply a sum by a variable.
func (a *arena) lower(e Expr) poly {
	t, o := size(e)
	p := poly{coef: take(&a.coef, t), start: take(&a.idx, t+1), vars: take(&a.idx, o)}
	p.start = append(p.start, 0)
	p.add(e, 1, a.buf[:0])
	return p
}

// lowerCheck lowers c, packing it into the arena.
func (a *arena) lowerCheck(c Constraint) check {
	k := check{l: a.lower(c.L), r: a.lower(c.R), op: c.Op}
	k.vars = take(&a.idx, len(k.l.vars)+len(k.r.vars))
	k.vars = append(append(k.vars, k.l.vars...), k.r.vars...)
	slices.Sort(k.vars)
	k.vars = slices.Compact(k.vars)
	return k
}

// emit appends the monomial c·Π vs.
func (p *poly) emit(c int64, vs []int32) {
	p.coef = append(p.coef, c)
	p.vars = append(p.vars, vs...)
	p.start = append(p.start, int32(len(p.vars)))
}

// add appends the monomials of c·Π vs·e. vs is a backtracking buffer:
// branches append to it in turn, and emit copies it out.
func (p *poly) add(e Expr, c int64, vs []int32) {
	switch e := e.(type) {
	case constExpr:
		p.emit(c*e.v, vs)
	case varExpr:
		p.emit(c, append(vs, int32(e.v)))
	case sumExpr:
		for _, t := range e.terms {
			p.add(t, c, vs)
		}
	case mulExpr:
		p.mul(e.factors, c, vs)
	}
}

// mul appends the monomials of c·Π vs·Π fs.
func (p *poly) mul(fs []Expr, c int64, vs []int32) {
	if len(fs) == 0 {
		p.emit(c, vs)
		return
	}
	switch f := fs[0].(type) {
	case constExpr:
		p.mul(fs[1:], c*f.v, vs)
	case varExpr:
		p.mul(fs[1:], c, append(vs, int32(f.v)))
	case mulExpr:
		p.mul(append(append(make([]Expr, 0, len(f.factors)+len(fs)-1), f.factors...), fs[1:]...), c, vs)
	case sumExpr:
		for _, t := range f.terms {
			p.mul(append([]Expr{t}, fs[1:]...), c, vs)
		}
	}
}

// eval evaluates p under a complete assignment, bit-identically to
// Expr.Eval on the expression it was lowered from.
func (p *poly) eval(m []int64) int64 {
	var s int64
	for t, c := range p.coef {
		for _, v := range p.vars[p.start[t]:p.start[t+1]] {
			c *= m[v]
		}
		s += c
	}
	return s
}

// bounds is Expr.Bounds over the flat form: each monomial's range is the
// interval product of its coefficient and its variables' bounds, with
// repeated occurrences taken independently as the tree does.
func (p *poly) bounds(lo, hi []int64) Interval {
	acc := Interval{}
	for t, c := range p.coef {
		m := Interval{c, c}
		for _, v := range p.vars[p.start[t]:p.start[t+1]] {
			m = m.Mul(Interval{lo[v], hi[v]})
		}
		acc = acc.Add(m)
	}
	return acc
}

// affine specialises p to variable x: with every other variable within
// [lo, hi], p lies in [a.Lo + b.Lo·val, a.Hi + b.Hi·val] when x = val ≥
// 0, and in [a.Lo + b.Hi·val, a.Hi + b.Lo·val] when val < 0 — the bounds
// Expr.Bounds returns with x pinned to val. a sums the monomials without
// x, b the cofactors of x in the rest. ok is false when x occurs more
// than once in some monomial, where no such form exists. nonneg promises
// every bound is non-negative, which makes each monomial's range the
// product of its lower (upper) bounds, swapped for a negative
// coefficient.
func (p *poly) affine(x int32, lo, hi []int64, nonneg bool) (a, b Interval, ok bool) {
	for t, c := range p.coef {
		deg := 0
		m := Interval{c, c}
		for _, v := range p.vars[p.start[t]:p.start[t+1]] {
			switch {
			case v == x:
				deg++
			case nonneg:
				m.Lo *= lo[v]
				m.Hi *= hi[v]
			default:
				m = m.Mul(Interval{lo[v], hi[v]})
			}
		}
		if nonneg && c < 0 {
			m.Lo, m.Hi = m.Hi, m.Lo
		}
		switch deg {
		case 0:
			a = a.Add(m)
		case 1:
			b = b.Add(m)
		default:
			return a, b, false
		}
	}
	return a, b, true
}

// check is a constraint lowered for the search.
type check struct {
	l, r poly
	op   Op
	// vars are the distinct variables the constraint reads, ascending.
	vars []int32
}

// holds is Constraint.Holds over the flat form.
func (k *check) holds(m []int64) bool {
	return compare(k.op, k.l.eval(m), k.r.eval(m))
}

// feasible is the interval lookahead: whether the constraint can
// possibly hold given variable bounds. NE is never pruned.
func (k *check) feasible(lo, hi []int64) bool {
	if k.op == NE {
		return true
	}
	li, ri := k.l.bounds(lo, hi), k.r.bounds(lo, hi)
	switch k.op {
	case LE:
		return li.Lo <= ri.Hi
	case LT:
		return li.Lo < ri.Hi
	case GE:
		return li.Hi >= ri.Lo
	case GT:
		return li.Hi > ri.Lo
	default:
		return li.Lo <= ri.Hi && ri.Lo <= li.Hi
	}
}

func compare(op Op, l, r int64) bool {
	switch op {
	case LE:
		return l <= r
	case LT:
		return l < r
	case GE:
		return l >= r
	case GT:
		return l > r
	case EQ:
		return l == r
	default:
		return l != r
	}
}

// form is an affine function a + b·val of the tried value.
type form struct{ a, b int64 }

func (f form) at(val int64) int64 { return f.a + f.b*val }

// Tests a spec applies to the tried value.
const (
	testLE    uint8 = iota // x ≤ y
	testLT                 // x < y
	testBoth               // x ≤ y and x2 ≤ y2 (EQ lookahead)
	testEqual              // x == y
	testNotEq              // x != y
	testFlat               // decide from the flat form
)

// spec is one check specialised to the variable a search node assigns.
type spec struct {
	x, y, x2, y2 form
	// The values at domain indices [in0, in1) pass, once passRange has
	// found the pass set to be one run of the domain.
	in0, in1 int
	ci       int32
	test     uint8
	// exact marks a check whose variables are all assigned (Holds, a
	// violated prune) as opposed to the interval lookahead.
	exact bool
}

// pass decides the spec for the tried value val. model, lo and hi
// already carry val for the node's variable; only the flat-form
// fallback reads them.
func (sp *spec) pass(val int64, k *check, model, lo, hi []int64) bool {
	switch sp.test {
	case testLE:
		return sp.x.at(val) <= sp.y.at(val)
	case testLT:
		return sp.x.at(val) < sp.y.at(val)
	case testBoth:
		return sp.x.at(val) <= sp.y.at(val) && sp.x2.at(val) <= sp.y2.at(val)
	case testEqual:
		return sp.x.at(val) == sp.y.at(val)
	case testNotEq:
		return sp.x.at(val) != sp.y.at(val)
	}
	if sp.exact {
		return k.holds(model)
	}
	return k.feasible(lo, hi)
}

// constant reports whether the spec's outcome does not depend on the
// tried value.
func (sp *spec) constant() bool {
	return sp.test != testFlat && sp.x.b == 0 && sp.y.b == 0 && sp.x2.b == 0 && sp.y2.b == 0
}

// set specialises check k to variable x, the other variables within
// [lo, hi] and x's values of one sign: neg says all are negative, and
// mixed signs must be passed as flat. exact selects the Holds decision
// (every other variable assigned) over the interval lookahead. set
// reports false for an interval lookahead on NE, which never prunes.
func (sp *spec) set(k *check, x int32, lo, hi []int64, nonneg, neg, flat, exact bool) bool {
	if !exact && k.op == NE {
		return false
	}
	*sp = spec{exact: exact, test: testFlat}
	if flat {
		return true
	}
	la, lb, lok := k.l.affine(x, lo, hi, nonneg)
	ra, rb, rok := k.r.affine(x, lo, hi, nonneg)
	if !lok || !rok {
		return true
	}
	// A side lies in [a.Lo + b.Lo·val, a.Hi + b.Hi·val] for val ≥ 0 and
	// in [a.Lo + b.Hi·val, a.Hi + b.Lo·val] for val < 0. With the other
	// variables assigned the bounds coincide, and the low forms are the
	// sides' exact values.
	if neg {
		lb.Lo, lb.Hi = lb.Hi, lb.Lo
		rb.Lo, rb.Hi = rb.Hi, rb.Lo
	}
	l, r := form{la.Lo, lb.Lo}, form{ra.Lo, rb.Lo}
	lHi, rHi := l, r
	if !exact {
		lHi, rHi = form{la.Hi, lb.Hi}, form{ra.Hi, rb.Hi}
	}
	switch k.op {
	case LE, LT: // l <= r; lookahead l.Lo <= r.Hi
		sp.x, sp.y = l, rHi
	case GE, GT: // r <= l; lookahead r.Lo <= l.Hi
		sp.x, sp.y = r, lHi
	default: // EQ, NE; EQ lookahead l.Lo <= r.Hi && r.Lo <= l.Hi
		sp.x, sp.y, sp.x2, sp.y2 = l, rHi, r, lHi
	}
	switch {
	case k.op == LE || k.op == GE:
		sp.test = testLE
	case k.op == LT || k.op == GT:
		sp.test = testLT
	case !exact:
		sp.test = testBoth
	case k.op == EQ:
		sp.test = testEqual
	default:
		sp.test = testNotEq
	}
	return true
}

// safe bounds the magnitudes for which a form's value a + b·val cannot
// wrap int64, so comparing forms is comparing exact values.
const safe = 1 << 31

func (f form) small() bool { return -safe < f.a && f.a < safe && -safe < f.b && f.b < safe }

// passRange sets [in0, in1) to the indices of the ascending domain dom
// whose values pass the spec, and reports whether the pass set is such
// a run: it is for every test but NE and the flat fallback, provided no
// form can wrap over dom.
func (sp *spec) passRange(dom []int64) bool {
	if sp.test > testEqual || !sp.x.small() || !sp.y.small() || !sp.x2.small() || !sp.y2.small() ||
		dom[0] <= -safe || dom[len(dom)-1] >= safe {
		return false
	}
	// x ≤ y ⟺ c·val ≤ d for c = x.b - y.b, d = y.a - x.a.
	c, d := sp.x.b-sp.y.b, sp.y.a-sp.x.a
	switch sp.test {
	case testLE:
		sp.in0, sp.in1 = atMost(dom, c, d)
	case testLT:
		sp.in0, sp.in1 = atMost(dom, c, d-1)
	case testBoth:
		sp.in0, sp.in1 = atMost(dom, c, d)
		f, t := atMost(dom, sp.x2.b-sp.y2.b, sp.y2.a-sp.x2.a)
		sp.in0, sp.in1 = max(sp.in0, f), min(sp.in1, t)
	default: // testEqual: c·val == d
		sp.in0, sp.in1 = 0, 0
		switch {
		case c == 0 && d == 0:
			sp.in1 = len(dom)
		case c != 0 && d%c == 0:
			if i, found := slices.BinarySearch(dom, d/c); found {
				sp.in0, sp.in1 = i, i+1
			}
		}
	}
	sp.in1 = max(sp.in0, sp.in1)
	return true
}

// atMost returns the index run of the ascending domain dom holding the
// values val with c·val ≤ d.
func atMost(dom []int64, c, d int64) (from, to int) {
	switch {
	case c == 0 && d >= 0:
		return 0, len(dom)
	case c == 0:
		return 0, 0
	case c > 0: // val ≤ ⌊d/c⌋
		q := d / c
		if d%c != 0 && d < 0 {
			q--
		}
		i, found := slices.BinarySearch(dom, q)
		if found {
			i++
		}
		return 0, i
	default: // val ≥ ⌈d/c⌉
		q := d / c
		if d%c != 0 && d < 0 {
			q++
		}
		i, _ := slices.BinarySearch(dom, q)
		return i, len(dom)
	}
}
