package smt

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"sync"
	"testing"
)

// statsKey renders every Stats counter but wall-clock time.
func statsKey(st Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls=%d nodes=%d viol=%d intv=%d tight=%d rounds=%d depth=%v",
		st.SolverCalls, st.Nodes, st.PruneViolated, st.PruneInterval, st.Tightenings, st.Rounds, st.DepthNodes)
	var labels []string
	for l, n := range st.PruneByConstraint {
		labels = append(labels, fmt.Sprintf("%s:%d", l, n))
	}
	sort.Strings(labels)
	fmt.Fprintf(&b, " prune=%v inc=", labels)
	for _, in := range st.Incumbents {
		fmt.Fprintf(&b, "(%d %d %d)", in.Round, in.Objective, in.Nodes)
	}
	return b.String()
}

// compiledProblem builds a small problem over wider constraint shapes
// than the model generator emits: 1–5 variables with explicit domains
// that may include negative values and zero, constraints under every
// operator whose sides are sums of products of variables (repeated
// variables included) and constants, some labeled, and an objective of
// the same shape.
func compiledProblem(data []byte) (*Problem, Expr) {
	r := fuzzReader(data)
	p := NewProblem()
	nv := 1 + r.pick(5)
	for v := 0; v < nv; v++ {
		var dom []int64
		base := int64(r.pick(3)*4) - 4 // -4, 0 or 4
		for n := 1 + r.pick(6); n > 0; n-- {
			dom = append(dom, base+int64(r.pick(9)))
		}
		p.IntVar(fmt.Sprintf("x%d", v), dom)
	}
	side := func(terms int) Expr {
		var ts []Expr
		for ; terms > 0; terms-- {
			fs := []Expr{C(int64(r.pick(7) - 3))}
			for k := r.pick(3); k >= 0; k-- {
				fs = append(fs, V(Var(r.pick(nv))))
			}
			if r.pick(3) == 0 {
				fs = fs[1:]
			}
			ts = append(ts, Mul(fs...))
		}
		if len(ts) == 0 {
			return C(int64(r.pick(60) - 10))
		}
		return Sum(ts...)
	}
	for n := r.pick(5); n > 0; n-- {
		op := Op(r.pick(6))
		l, rhs := side(1+r.pick(3)), side(r.pick(2))
		if label := []string{"", "cap", "shape"}[r.pick(3)]; label != "" {
			p.RequireLabeled(label, l, op, rhs)
		} else {
			p.Require(l, op, rhs)
		}
	}
	return p, side(1 + r.pick(3))
}

// FuzzCompiledSearch checks the compiled search against the oracle that
// decides every constraint by evaluating its Expr directly: on random problems, Solve, the Maximize climb and the
// MaximizeParts re-solve under obj >= best return the same models and
// objectives and the same count for every Stats counter, and the
// Maximize objective is the brute-force maximum.
func FuzzCompiledSearch(f *testing.F) {
	for _, seed := range [][]byte{
		{0},
		{2, 3, 0, 2, 1, 4, 1, 2, 3, 0, 1, 1, 2, 0, 3, 1, 4, 2, 5, 1},
		{4, 1, 5, 3, 2, 8, 0, 5, 2, 1, 7, 3, 3, 0, 1, 4, 2, 2, 1, 0, 4, 5, 1, 2, 3},
		{3, 2, 3, 1, 6, 2, 4, 0, 3, 5, 2, 1, 4, 1, 0, 2, 2, 1, 3, 4, 0, 1, 2, 5, 1, 1, 0, 3},
		[]byte("compiled search parity over negative domains"),
		[]byte("\x04\x02\x05\x00\x01\x02\x03\x04\x05\x06\x07\x08\x02\x01\x02\x02\x01\x00\x04\x00\x03\x02"),
		// Minimised inputs exercising a negative coefficient over
		// non-negative bounds, a negative tried value, and a
		// propagation pass where one constraint fails for every value.
		[]byte("100X1210010000120000001000000000100000002A181101"),
		[]byte("00A00010000002000010020011"),
		[]byte("0010100X2X000000200082111111001"),
		// Minimised inputs exercising the run arithmetic: a floor and a
		// ceiling of a negative quotient, and the per-run prune count.
		[]byte("100000700002000002200281"),
		[]byte("901020011002002201"),
		[]byte("200080000001"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, obj := compiledProblem(data)

		s, o := NewSolver(p), newRefSolver(p)
		m, ok := s.Solve()
		om, ook := o.solve()
		if ok != ook || fmt.Sprint(m) != fmt.Sprint(om) {
			t.Fatalf("Solve: compiled %v %v, oracle %v %v\n%s", m, ok, om, ook, p)
		}
		if g, w := statsKey(s.Stats), statsKey(o.Stats); g != w {
			t.Fatalf("Solve stats:\ncompiled %s\n  oracle %s\n%s", g, w, p)
		}

		s, o = NewSolver(p), newRefSolver(p)
		m, val, ok := s.Maximize(obj)
		om, oval, ook := o.maximize(obj)
		if ok != ook || val != oval || fmt.Sprint(m) != fmt.Sprint(om) {
			t.Fatalf("Maximize %s: compiled %v=%d %v, oracle %v=%d %v\n%s", obj.render(p.names), m, val, ok, om, oval, ook, p)
		}
		if g, w := statsKey(s.Stats), statsKey(o.Stats); g != w {
			t.Fatalf("Maximize %s stats:\ncompiled %s\n  oracle %s\n%s", obj.render(p.names), g, w, p)
		}
		brute, found := int64(0), false
		s.Enumerate(func(m Model) bool {
			if v := obj.Eval(m); !found || v > brute {
				brute, found = v, true
			}
			return true
		})
		if found != ok || ok && val != brute {
			t.Fatalf("Maximize %s = %d (sat %v), brute force %d (sat %v)\n%s", obj.render(p.names), val, ok, brute, found, p)
		}
		if !ok {
			return
		}

		// MaximizeParts re-solves a part that did not climb once more,
		// descending, under obj >= best on the same solver.
		s.descend = true
		s.enforce(GE, val)
		m, _, ok = s.solveRound(context.Background(), obj, 1)
		s.objOn = false
		om, ook = o.resolveAtLeast(obj, val)
		if ok != ook || fmt.Sprint(m) != fmt.Sprint(om) {
			t.Fatalf("re-solve: compiled %v %v, oracle %v %v\n%s", m, ok, om, ook, p)
		}
		if g, w := statsKey(s.Stats), statsKey(o.Stats); g != w {
			t.Fatalf("re-solve stats:\ncompiled %s\n  oracle %s\n%s", g, w, p)
		}
	})
}

// TestExprConstruction pins the flat form C, V, Sum, Mul and Scale
// build, which is the form the search decides: Sum concatenates
// monomials, Mul distributes with the first factor's monomials outermost
// and the factors' variables in factor order, constant coefficients fold,
// a repeated variable stays one occurrence per factor, and empty sums and
// products are 0 and 1.
func TestExprConstruction(t *testing.T) {
	p := NewProblem()
	for _, name := range []string{"x", "y", "z"} {
		p.IntVar(name, []int64{-5, 6})
	}
	x, y, z := V(0), V(1), V(2)
	lo, hi := []int64{-3, 2, -5}, []int64{4, 6, -1}
	model := Model{-2, 5, -3}
	for _, tc := range []struct {
		e      Expr
		render string
		vars   string
		eval   int64
		bounds Interval
	}{
		{C(7), "7", "[]", 7, Interval{7, 7}},
		{x, "x", "[0]", -2, Interval{-3, 4}},
		{Sum(), "0", "[]", 0, Interval{}},
		{Mul(), "1", "[]", 1, Interval{1, 1}},
		{Mul(Sum(), x), "0", "[]", 0, Interval{}},
		{Mul(Sum(x, C(2)), Sum(y, z)), "x*y + x*z + 2*y + 2*z", "[0 1 2]", 0, Interval{-44, 49}},
		{Mul(Mul(x, y), C(5), Mul(z, x)), "5*x*y*z*x", "[0 1 2]", -300, Interval{-2400, 1800}},
		{Mul(C(3), x, C(-2)), "-6*x", "[0]", 12, Interval{-24, 18}},
		{Scale(-3, Sum(x, Mul(y, z), C(4))), "-3*x + -3*y*z + -12", "[0 1 2]", 39, Interval{-18, 87}},
		{Sum(Sum(x, Sum(y, C(-2))), Mul(C(2), x, x)), "x + y + -2 + 2*x*x", "[0 1]", 9, Interval{-27, 40}},
	} {
		r := tc.e.Render(p)
		if r != tc.render {
			t.Errorf("rendered %q, want %q", r, tc.render)
		}
		if got := fmt.Sprint(tc.e.Vars()); got != tc.vars {
			t.Errorf("%s: vars %s, want %s", r, got, tc.vars)
		}
		if got := tc.e.Eval(model); got != tc.eval {
			t.Errorf("%s: eval %d, want %d", r, got, tc.eval)
		}
		if got := tc.e.EvalBig(model); got.Cmp(big.NewInt(tc.eval)) != 0 {
			t.Errorf("%s: exact eval %s, want %d", r, got, tc.eval)
		}
		if got := tc.e.Bounds(lo, hi); got != tc.bounds {
			t.Errorf("%s: bounds %v, want %v", r, got, tc.bounds)
		}
	}
}

// TestExprCoefficientOverflowPanics checks that folding constants never
// wraps: a wrapped coefficient would make EvalBig replay a different
// polynomial than the one built.
func TestExprCoefficientOverflowPanics(t *testing.T) {
	for name, build := range map[string]func() Expr{
		"Mul":          func() Expr { return Mul(C(math.MaxInt64), V(0), C(2)) },
		"Scale":        func() Expr { return Scale(-1, Sum(V(0), C(math.MinInt64))) },
		"Mul by -1":    func() Expr { return Mul(C(-1), C(math.MinInt64)) },
		"distributed":  func() Expr { return Mul(Sum(V(0), C(1<<40)), Sum(V(1), C(1<<30))) },
		"folded twice": func() Expr { return Mul(C(1<<32), V(0), C(1<<31)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: folding an overflowing coefficient did not panic", name)
				}
			}()
			build()
		}()
	}
	if got := Mul(C(math.MinInt64), C(1)).Eval(nil); got != math.MinInt64 {
		t.Errorf("MinInt64 * 1 = %d", got)
	}
}

// TestEvalBigExactWhereEvalWraps checks that the certifier's exact
// evaluation does not inherit Eval's int64 wrap.
func TestEvalBigExactWhereEvalWraps(t *testing.T) {
	e := Sum(Mul(V(0), V(0), C(3)), C(-1))
	m := Model{1 << 40}
	want := new(big.Int).Lsh(big.NewInt(3), 80)
	want.Sub(want, big.NewInt(1))
	if got := e.EvalBig(m); got.Cmp(want) != 0 {
		t.Errorf("EvalBig = %s, want %s", got, want)
	}
	if got := e.Eval(m); got != -1 {
		t.Errorf("Eval = %d, want the wrapped -1", got)
	}
	c := Constraint{L: e, Op: LE, R: C(0)}
	if !c.Holds(m) || c.HoldsBig(m) {
		t.Errorf("Holds %v, HoldsBig %v: want the wrapped true and the exact false", c.Holds(m), c.HoldsBig(m))
	}
}

// TestMaximizeLeavesCallerExprs checks that the objective climb, which
// rewrites the bound of the objective constraint in place every round,
// rewrites only the solver's own copy: the caller's objective and
// problem render the same before and after, and solving them again
// gives the same answer.
func TestMaximizeLeavesCallerExprs(t *testing.T) {
	p := NewProblem()
	a := p.RangeVar("a", 1, 8, 1)
	b := p.RangeVar("b", 1, 8, 1)
	p.Require(Sum(V(a), V(b)), LE, C(10))
	obj := Sum(Mul(V(a), V(b)), C(3))
	objText, probText := obj.Render(p), p.String()
	s := NewSolver(p)
	m, val, ok := s.Maximize(obj)
	if !ok || val != 28 || len(s.Stats.Incumbents) < 2 {
		t.Fatalf("Maximize = %v %d %v after %d incumbents, want 28 after a climb", m, val, ok, len(s.Stats.Incumbents))
	}
	s.descend = true
	s.enforce(GE, val)
	if _, _, ok := s.solveRound(context.Background(), obj, 1); !ok {
		t.Fatal("re-solve under obj >= best is unsatisfiable")
	}
	if got := obj.Render(p); got != objText {
		t.Errorf("objective after Maximize: %s, before: %s", got, objText)
	}
	if got := p.String(); got != probText {
		t.Errorf("problem after Maximize:\n%s\nbefore:\n%s", got, probText)
	}
	if m2, val2, _ := NewSolver(p).Maximize(obj); fmt.Sprint(m2) != fmt.Sprint(m) || val2 != val {
		t.Errorf("second Maximize = %v %d, first %v %d", m2, val2, m, val)
	}
}

// TestConcurrentSolvesShareScratch runs solvers on several goroutines at
// once, as sweeps and the service do. The per-node scratch is pooled
// across solvers, so each solve must still match the same problem
// solved alone.
func TestConcurrentSolvesShareScratch(t *testing.T) {
	seeds := [][]byte{
		{2, 3, 0, 2, 1, 4, 1, 2, 3, 0, 1, 1, 2, 0, 3, 1, 4, 2, 5, 1},
		{4, 1, 5, 3, 2, 8, 0, 5, 2, 1, 7, 3, 3, 0, 1, 4, 2, 2, 1, 0, 4, 5, 1, 2, 3},
		[]byte("compiled search parity over negative domains"),
		[]byte("100X1210010000120000001000000000100000002A181101"),
	}
	want := make([]string, len(seeds))
	solve := func(seed []byte) string {
		p, obj := compiledProblem(seed)
		s := NewSolver(p)
		m, val, ok := s.Maximize(obj)
		return fmt.Sprint(m, val, ok, statsKey(s.Stats))
	}
	for i, seed := range seeds {
		want[i] = solve(seed)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, seed := range seeds {
					if got := solve(seed); got != want[i] {
						t.Errorf("seed %d solved concurrently: %s, alone: %s", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
