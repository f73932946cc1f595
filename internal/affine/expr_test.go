package affine

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestExprBasics(t *testing.T) {
	e := NewIter("i").Scale(2).Add(NewParam("N")).AddConst(3)
	if got := e.Eval(map[string]int64{"i": 5}, map[string]int64{"N": 100}); got != 113 {
		t.Fatalf("Eval = %d, want 113", got)
	}
	if !e.UsesIter("i") || e.UsesIter("j") {
		t.Fatalf("UsesIter wrong: %v", e)
	}
	if e.IterCoeff("i") != 2 {
		t.Fatalf("IterCoeff(i) = %d, want 2", e.IterCoeff("i"))
	}
	if e.IsConstant() {
		t.Fatalf("IsConstant true for %v", e)
	}
	if !NewConst(7).IsConstant() {
		t.Fatal("constant not constant")
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NewConst(0), "0"},
		{NewConst(-4), "-4"},
		{NewIter("i"), "i"},
		{NewIter("i").AddConst(1), "i+1"},
		{NewIter("i").AddConst(-1), "i-1"},
		{NewIter("i").Scale(3).Add(NewIter("j")), "3*i+j"},
		{NewParam("N").AddConst(-1), "N-1"},
		{NewIter("i").Scale(-1).Add(NewParam("N")), "-i+N"},
		{NewParam("N").Scale(-2), "-2*N"},
		{NewIter("j").Scale(-3).Add(NewIter("i").Scale(2)).Add(NewParam("M").Scale(-1)).AddConst(5), "2*i-3*j-M+5"},
		{Expr{Iters: map[string]int64{"i": 0, "j": 1}, Params: map[string]int64{"N": 0}, Const: -2}, "j-2"},
		{Expr{Iters: map[string]int64{"i": 0}}, "0"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestExprSubCancels(t *testing.T) {
	e := NewIter("i").Add(NewParam("N")).AddConst(2)
	d := e.Sub(e)
	if !d.IsConstant() || d.Const != 0 {
		t.Fatalf("e - e = %v, want 0", d)
	}
	if len(d.Iters) != 0 || len(d.Params) != 0 {
		t.Fatalf("e - e kept zero terms: %#v", d)
	}
}

func TestExprEqual(t *testing.T) {
	a := NewIter("i").Add(NewIter("j"))
	b := NewIter("j").Add(NewIter("i"))
	if !a.Equal(b) {
		t.Fatal("commuted sums not equal")
	}
	if a.Equal(a.AddConst(1)) {
		t.Fatal("distinct exprs compare equal")
	}
}

// randomExpr builds a random affine expression for property tests.
func randomExpr(r *rand.Rand) Expr {
	iters := []string{"i", "j", "k"}
	params := []string{"N", "M"}
	e := NewConst(int64(r.Intn(21) - 10))
	for _, it := range iters {
		if r.Intn(2) == 0 {
			e = e.Add(NewIter(it).Scale(int64(r.Intn(7) - 3)))
		}
	}
	for _, p := range params {
		if r.Intn(2) == 0 {
			e = e.Add(NewParam(p).Scale(int64(r.Intn(7) - 3)))
		}
	}
	return e
}

type exprPair struct{ A, B Expr }

func (exprPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(exprPair{A: randomExpr(r), B: randomExpr(r)})
}

func evalEnv() (map[string]int64, map[string]int64) {
	return map[string]int64{"i": 3, "j": -2, "k": 7},
		map[string]int64{"N": 11, "M": 5}
}

// Property: evaluation is a homomorphism over Add/Sub/Scale.
func TestExprEvalHomomorphism(t *testing.T) {
	iters, params := evalEnv()
	prop := func(p exprPair) bool {
		sum := p.A.Add(p.B).Eval(iters, params)
		if sum != p.A.Eval(iters, params)+p.B.Eval(iters, params) {
			return false
		}
		diff := p.A.Sub(p.B).Eval(iters, params)
		if diff != p.A.Eval(iters, params)-p.B.Eval(iters, params) {
			return false
		}
		return p.A.Scale(3).Eval(iters, params) == 3*p.A.Eval(iters, params)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub(x,x) is zero under Equal.
func TestExprAlgebraProperties(t *testing.T) {
	prop := func(p exprPair) bool {
		if !p.A.Add(p.B).Equal(p.B.Add(p.A)) {
			return false
		}
		z := p.A.Sub(p.A)
		return z.IsConstant() && z.Const == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: clone-on-write — Add must not mutate its receiver.
func TestExprImmutability(t *testing.T) {
	prop := func(p exprPair) bool {
		iters, params := evalEnv()
		before := p.A.Eval(iters, params)
		_ = p.A.Add(p.B)
		_ = p.A.Scale(5)
		_ = p.A.Sub(p.B)
		return p.A.Eval(iters, params) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalParams(t *testing.T) {
	e := NewIter("i").Add(NewParam("N").Scale(2)).AddConst(1)
	r := e.EvalParams(map[string]int64{"N": 10})
	if r.Const != 21 || r.IterCoeff("i") != 1 || len(r.Params) != 0 {
		t.Fatalf("EvalParams = %#v", r)
	}
}
