package smt

import (
	"context"
	"fmt"
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

// FuzzCompiledSearch checks the compiled search against the tree-walking
// oracle: on random problems, Solve, the Maximize climb and the
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

		s, o := NewSolver(p), newTreeSolver(p)
		m, ok := s.Solve()
		om, ook := o.solve()
		if ok != ook || fmt.Sprint(m) != fmt.Sprint(om) {
			t.Fatalf("Solve: compiled %v %v, oracle %v %v\n%s", m, ok, om, ook, p)
		}
		if g, w := statsKey(s.Stats), statsKey(o.Stats); g != w {
			t.Fatalf("Solve stats:\ncompiled %s\n  oracle %s\n%s", g, w, p)
		}

		s, o = NewSolver(p), newTreeSolver(p)
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

// TestLowerMatchesTree pins the lowering against the Expr tree on the
// shapes the flat form must reproduce exactly: nested sums and products,
// constants folded into coefficients, repeated variables, empty sums and
// products, and negative bounds.
func TestLowerMatchesTree(t *testing.T) {
	x, y, z := V(0), V(1), V(2)
	exprs := []Expr{
		C(7),
		x,
		Sum(),
		Mul(),
		Scale(-3, Sum(x, Mul(y, z), C(4))),
		Mul(Mul(x, y), C(5), Mul(z, x)),
		Sum(Sum(x, Sum(y, C(-2))), Mul(C(2), x, x)),
		Mul(C(-1), x, y, z),
	}
	lo, hi := []int64{-3, 2, -5}, []int64{4, 6, -1}
	model := []int64{-2, 5, -3}
	for _, e := range exprs {
		var a arena
		a.reserve(e)
		p := a.lower(e)
		if got, want := p.eval(model), e.Eval(model); got != want {
			t.Errorf("%s: eval %d, tree %d", e.render([]string{"x", "y", "z"}), got, want)
		}
		if got, want := p.bounds(lo, hi), e.Bounds(lo, hi); got != want {
			t.Errorf("%s: bounds %v, tree %v", e.render([]string{"x", "y", "z"}), got, want)
		}
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
