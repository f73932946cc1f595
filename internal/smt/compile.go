package smt

import "slices"

// The search decides constraints through a compiled form: each
// constraint becomes a check holding the solver's own copy of its two
// sides, copied once per Solver into one backing array, so the search
// reads them from contiguous memory and enforce can rewrite the
// objective bound in place without touching a caller's Expr. At a search
// node every check the node decides is specialised to the variable the
// node assigns: with all other variables fixed (assigned) or at their
// domain bounds, each side is an affine function α + β·val of the value
// tried, so a tried value costs a multiply, an add and a compare per
// check (spec). The decisions are exactly those of Constraint.Holds and
// the interval lookahead over Expr.Bounds, so the search visits the same
// nodes and counts the same prunes as a search evaluating the
// constraints directly would.

// compile appends cons to dst as checks, their sides and variable lists
// copied into one backing array per element type, and leaves room for
// one more check.
func compile(dst []check, cons []Constraint) []check {
	var nc, ni int
	for _, c := range cons {
		nc += len(c.L.coef) + len(c.R.coef)
		ni += len(c.L.idx) + len(c.R.idx) + len(c.L.occs()) + len(c.R.occs())
	}
	coef, idx := make([]int64, 0, nc), make([]int32, 0, ni)
	cp := func(e Expr) Expr {
		nc, ni := len(coef), len(idx)
		coef, idx = append(coef, e.coef...), append(idx, e.idx...)
		return Expr{coef: coef[nc:len(coef):len(coef)], idx: idx[ni:len(idx):len(idx)]}
	}
	dst = slices.Grow(dst, len(cons)+1)
	for _, c := range cons {
		k := check{l: cp(c.L), r: cp(c.R), op: c.Op}
		n := len(idx)
		idx = append(append(idx, c.L.occs()...), c.R.occs()...)
		vs := idx[n:]
		slices.Sort(vs)
		vs = slices.Compact(vs)
		k.vars = vs[:len(vs):len(vs)]
		dst = append(dst, k)
	}
	return dst
}

// affine specialises e to variable x: with every other variable within
// [lo, hi], e lies in [a.Lo + b.Lo·val, a.Hi + b.Hi·val] when x = val ≥
// 0, and in [a.Lo + b.Hi·val, a.Hi + b.Lo·val] when val < 0 — the bounds
// Expr.Bounds returns with x pinned to val. a sums the monomials without
// x, b the cofactors of x in the rest. ok is false when x occurs more
// than once in some monomial, where no such form exists. nonneg promises
// every bound is non-negative, which makes each monomial's range the
// product of its lower (upper) bounds, swapped for a negative
// coefficient.
func (e *Expr) affine(x int32, lo, hi []int64, nonneg bool) (a, b Interval, ok bool) {
	for t, c := range e.coef {
		deg := 0
		m := Interval{c, c}
		for _, v := range e.mono(t) {
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

// check is a constraint compiled for the search.
type check struct {
	l, r Expr
	op   Op
	// vars are the distinct variables the constraint reads, ascending.
	vars []int32
}

// holds is Constraint.Holds over the flat form.
func (k *check) holds(m []int64) bool {
	return compare(k.op, k.l.Eval(m), k.r.Eval(m))
}

// feasible is the interval lookahead: whether the constraint can
// possibly hold given variable bounds. NE is never pruned.
func (k *check) feasible(lo, hi []int64) bool {
	if k.op == NE {
		return true
	}
	li, ri := k.l.Bounds(lo, hi), k.r.Bounds(lo, hi)
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
