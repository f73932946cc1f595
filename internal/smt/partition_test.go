package smt

import (
	"context"
	"fmt"
	"testing"
)

// wholeMaximize is the reference for a partitioned solve: Maximize
// objs[0] over the whole problem, then, when a second objective is
// given, Maximize it among the optima of the first (core's shrink pass).
func wholeMaximize(p *Problem, objs []Expr) (Model, int64, bool) {
	m, best, ok := NewSolver(p).Maximize(objs[0])
	if !ok {
		return nil, 0, false
	}
	if len(objs) > 1 {
		pinned := p.Clone()
		pinned.RequireEQ(objs[0], C(best))
		if m2, _, ok := NewSolver(pinned).Maximize(objs[1]); ok {
			m = m2
		}
	}
	return m, best, true
}

// splitMaximize is the same two-phase solve over p's components, each
// phase merged by MaximizeParts and the shrink phase pinning every part
// to its own optimum.
func splitMaximize(p *Problem, objs []Expr) (Model, int64, int, bool) {
	parts := p.Partition(objs...)
	phase := func(k int, probs func(c int, pt Part) *Problem) ([]Model, []int64, bool) {
		solvers := make([]*Solver, len(parts))
		pobjs := make([]Expr, len(parts))
		for c, pt := range parts {
			solvers[c] = NewSolver(probs(c, pt))
			pobjs[c] = pt.Objs[k]
		}
		return MaximizeParts(context.Background(), solvers, pobjs)
	}
	models, vals, ok := phase(0, func(_ int, pt Part) *Problem { return pt.Problem })
	if !ok {
		return nil, 0, len(parts), false
	}
	var best int64
	for _, v := range vals {
		best += v
	}
	if len(objs) > 1 {
		pinned, _, ok := phase(1, func(c int, pt Part) *Problem {
			pp := pt.Problem.Clone()
			pp.RequireEQ(pt.Objs[0], C(vals[c]))
			return pp
		})
		if ok {
			models = pinned
		}
	}
	return Merge(parts, models), best, len(parts), true
}

func TestPartitionSplitsIndependentGroups(t *testing.T) {
	p := NewProblem()
	a := p.RangeVar("a", 1, 4, 1)
	x := p.RangeVar("x", 1, 3, 1)
	b := p.RangeVar("b", 1, 4, 1)
	y := p.RangeVar("y", 1, 3, 1)
	p.RequireLabeled("ab", Mul(V(a), V(b)), LE, C(6))
	p.RequireLE(V(x), C(2))
	p.RequireLE(C(1), C(2))
	obj := Sum(Scale(2, V(a)), Mul(V(x), V(y)), C(5))
	shrink := Scale(-1, V(b))
	parts := p.Partition(obj, shrink)
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2 ({a,b} and {x,y})", len(parts))
	}
	if fmt.Sprint(parts[0].Vars) != "[0 2]" || fmt.Sprint(parts[1].Vars) != "[1 3]" {
		t.Fatalf("part vars = %v / %v, want [0 2] / [1 3]", parts[0].Vars, parts[1].Vars)
	}
	if got := parts[0].Problem.String(); got != "(declare a in [1..4] /4 values)\n(declare b in [1..4] /4 values)\n(assert (<= (a * b) 6))\n(assert (<= 1 2))\n" {
		t.Errorf("part 0 =\n%s", got)
	}
	if got := parts[1].Problem.Cons(); len(got) != 1 || got[0].Render(parts[1].Problem) != "(<= x 2)" {
		t.Errorf("part 1 constraints = %v", got)
	}
	names := parts[0].Problem.names
	if r := parts[0].Objs[0].render(names); r != "((2 * a) + 5)" {
		t.Errorf("part 0 objective = %s, want the a term plus the constant", r)
	}
	if r := parts[1].Objs[0].render(parts[1].Problem.names); r != "(x * y)" {
		t.Errorf("part 1 objective = %s", r)
	}
	if r := parts[1].Objs[1].render(nil); r != "0" {
		t.Errorf("part 1 shrink share = %s, want 0", r)
	}
	// The merged model puts every part's values back in place.
	m := Merge(parts, []Model{{1, 2}, {3, 4}})
	if fmt.Sprint(m) != "[1 3 2 4]" {
		t.Errorf("Merge = %v, want [1 3 2 4]", m)
	}
}

func TestPartitionOneComponentIsTheProblem(t *testing.T) {
	p := NewProblem()
	x := p.RangeVar("x", 1, 4, 1)
	y := p.RangeVar("y", 1, 4, 1)
	p.RequireLE(Sum(V(x), V(y)), C(5))
	obj := Sum(V(x), V(y))
	parts := p.Partition(obj)
	if len(parts) != 1 || parts[0].Problem != p || parts[0].Vars != nil || parts[0].Objs[0] == nil {
		t.Fatalf("one component came back as %+v", parts)
	}
	m := Model{1, 4}
	if got := Merge(parts, []Model{m}); &got[0] != &m[0] {
		t.Error("Merge copied a single whole-problem model")
	}
}

// TestMaximizePartsTieBreak drives both branches of the merge rule. Part
// A ({x, y}) is optimal at round 0, with an ascending-first model (1, 1)
// that differs from its descending-first optimum (1, 2). When part B
// ({z}) climbs, the whole-problem climb ends on the descending-first
// optimum, so A must be re-solved; when B is optimal at round 0 too, the
// whole climb stops at round 0 and A keeps (1, 1).
func TestMaximizePartsTieBreak(t *testing.T) {
	for _, sign := range []int64{1, -1} {
		p := NewProblem()
		x := p.RangeVar("x", 1, 2, 1)
		y := p.RangeVar("y", 1, 2, 1)
		z := p.RangeVar("z", 1, 4, 1)
		p.RequireLE(Sum(V(x), V(y)), C(3))
		objs := []Expr{Sum(Scale(-1, V(x)), Scale(sign, V(z)))}
		want, wantObj, _ := wholeMaximize(p, objs)
		got, gotObj, parts, ok := splitMaximize(p, objs)
		if !ok || parts != 2 {
			t.Fatalf("sign %d: ok=%v parts=%d", sign, ok, parts)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || gotObj != wantObj {
			t.Errorf("sign %d: split %v obj %d, whole %v obj %d", sign, got, gotObj, want, wantObj)
		}
		if wantY := map[int64]int64{1: 2, -1: 1}[sign]; got[y] != wantY {
			t.Errorf("sign %d: y = %d, want %d", sign, got[y], wantY)
		}
	}
}

func TestMergeStatsSumsParts(t *testing.T) {
	a := Stats{SolverCalls: 2, Nodes: 10, Rounds: 2, PruneByConstraint: map[string]int64{"r": 1},
		DepthNodes: []int64{1, 2}, Incumbents: []Incumbent{{Round: 0, Objective: 1, Nodes: 3}, {Round: 1, Objective: 4, Nodes: 9}}}
	b := Stats{SolverCalls: 1, Nodes: 5, Rounds: 1, PruneByConstraint: map[string]int64{"r": 2, "s": 1},
		DepthNodes: []int64{1, 1, 3}, Incumbents: []Incumbent{{Round: 0, Objective: 10, Nodes: 5}}}
	got := MergeStats([]Stats{a, b})
	if got.SolverCalls != 3 || got.Nodes != 15 || got.Rounds != 3 {
		t.Errorf("counters = %d/%d/%d, want 3/15/3", got.SolverCalls, got.Nodes, got.Rounds)
	}
	if fmt.Sprint(got.PruneByConstraint) != "map[r:3 s:1]" || fmt.Sprint(got.DepthNodes) != "[2 3 3]" {
		t.Errorf("prunes %v, depths %v", got.PruneByConstraint, got.DepthNodes)
	}
	if fmt.Sprint(got.Incumbents) != "[{0 11 8 0s} {1 14 14 0s}]" {
		t.Errorf("incumbents = %v", got.Incumbents)
	}
	if one := MergeStats([]Stats{a}); one.Nodes != a.Nodes || len(one.Incumbents) != 2 {
		t.Errorf("single part stats changed: %+v", one)
	}
}

// fuzzReader hands out bounded choices from fuzz input, zeros once the
// input runs out.
type fuzzReader []byte

func (r *fuzzReader) pick(n int) int {
	if len(*r) == 0 {
		return 0
	}
	v := int((*r)[0]) % n
	*r = (*r)[1:]
	return v
}

// separableProblem builds a small problem of 1–4 independent variable
// groups (at most 6 variables, at most 5 values each, declared
// interleaved across groups) with random posynomial and comparison
// constraints inside each group, an objective of weighted and product
// terms per group, and, like core's shrink pass, a secondary objective
// preferring small values of the variables the first leaves out.
func separableProblem(data []byte) (*Problem, []Expr) {
	r := fuzzReader(data)
	p := NewProblem()
	groups := 1 + r.pick(4)
	members := make([][]Var, groups)
	nv := groups + r.pick(7-groups)
	for v := 0; v < nv; v++ {
		g := v
		if v >= groups {
			g = r.pick(groups)
		}
		step := int64(1 + r.pick(3))
		x := p.RangeVar(fmt.Sprintf("x%d", v), 1, step*int64(1+r.pick(5)), step)
		members[g] = append(members[g], x)
	}
	product := func(vs []Var) Expr {
		f := []Expr{V(vs[r.pick(len(vs))])}
		if r.pick(2) == 1 {
			f = append(f, V(vs[r.pick(len(vs))]))
		}
		return Mul(f...)
	}
	var objTerms []Expr
	inObj := make(map[Var]bool)
	for _, vs := range members {
		for n := r.pick(3); n > 0; n-- {
			l := product(vs)
			if r.pick(2) == 1 {
				l = Sum(l, product(vs))
			}
			op := []Op{LE, LT, GE, NE}[r.pick(4)]
			p.Require(l, op, C(int64(1+r.pick(40))))
		}
		for _, v := range vs {
			if h := int64(r.pick(7) - 2); h != 0 {
				objTerms = append(objTerms, Scale(h, V(v)))
				inObj[v] = true
			}
		}
		if len(vs) > 1 && r.pick(2) == 1 {
			objTerms = append(objTerms, Mul(V(vs[0]), V(vs[1])))
			inObj[vs[0]], inObj[vs[1]] = true, true
		}
	}
	if len(objTerms) == 0 {
		objTerms = append(objTerms, V(members[0][0]))
		inObj[members[0][0]] = true
	}
	objs := []Expr{Sum(objTerms...)}
	var shrink []Expr
	for v := 0; v < p.NumVars(); v++ {
		if !inObj[Var(v)] {
			shrink = append(shrink, Scale(-1, V(Var(v))))
		}
	}
	if len(shrink) > 0 {
		objs = append(objs, Sum(shrink...))
	}
	return p, objs
}

// FuzzSeparable checks the component split against the whole-problem
// search on random separable problems: the same satisfiability, the same
// model (tie-breaks included, through the shrink phase) and the same
// objective, which must also be the brute-force maximum.
func FuzzSeparable(f *testing.F) {
	for _, seed := range [][]byte{
		{0},
		{1, 3, 0, 2, 1, 4, 1, 2, 3, 0, 1, 1, 2, 0, 3, 1},
		{3, 2, 1, 4, 0, 3, 2, 1, 4, 2, 0, 1, 2, 3, 4, 5, 6, 1, 0, 2, 3},
		{2, 4, 1, 1, 2, 2, 0, 4, 1, 3, 1, 2, 0, 0, 1, 5, 2, 1, 3, 2, 4, 6},
		{3, 3, 2, 4, 1, 4, 2, 4, 0, 1, 2, 1, 0, 2, 1, 1, 2, 2, 30, 1, 6, 6, 6},
		// A part optimal at round 0 next to a part that climbs: the
		// merge must re-solve the first one descending.
		[]byte("110000002000000100020001"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, objs := separableProblem(data)
		want, wantObj, wantOK := wholeMaximize(p, objs)
		got, gotObj, parts, ok := splitMaximize(p, objs)
		if ok != wantOK {
			t.Fatalf("split sat=%v, whole sat=%v\n%s", ok, wantOK, p)
		}
		brute, found := int64(0), false
		NewSolver(p).Enumerate(func(m Model) bool {
			if v := objs[0].Eval(m); !found || v > brute {
				brute, found = v, true
			}
			return true
		})
		if found != ok {
			t.Fatalf("enumeration found a model: %v, solver sat: %v\n%s", found, ok, p)
		}
		if !ok {
			return
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || gotObj != wantObj {
			t.Fatalf("%d parts: split %v obj %d, whole %v obj %d\n%s", parts, got, gotObj, want, wantObj, p)
		}
		if gotObj != brute {
			t.Fatalf("objective %d, brute-force maximum %d\n%s", gotObj, brute, p)
		}
	})
}
