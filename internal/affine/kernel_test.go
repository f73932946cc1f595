package affine

import (
	"strings"
	"testing"
)

func TestPrecision(t *testing.T) {
	if FP32.Bytes() != 4 || FP64.Bytes() != 8 {
		t.Fatal("precision byte widths wrong")
	}
	if FP32.Factor() != 1 || FP64.Factor() != 2 {
		t.Fatal("FP factors wrong (Sec. IV-I)")
	}
	if FP32.String() != "FP32" || FP64.String() != "FP64" {
		t.Fatal("precision names wrong")
	}
}

func TestLoopExtent(t *testing.T) {
	l := Loop{Name: "i", Lower: NewConst(1), Upper: NewParam("N").AddConst(-1)}
	if got := l.Extent(map[string]int64{"N": 10}); got != 8 {
		t.Fatalf("Extent = %d, want 8", got)
	}
	empty := Loop{Name: "i", Lower: NewConst(5), Upper: NewConst(3)}
	if got := empty.Extent(nil); got != 0 {
		t.Fatalf("empty loop Extent = %d, want 0", got)
	}
}

func TestRefStride1Iter(t *testing.T) {
	r := Ref{Array: "A", Subscripts: []Expr{NewIter("i"), NewIter("j")}}
	if got := r.Stride1Iter(); got != "j" {
		t.Fatalf("Stride1Iter = %q, want j", got)
	}
	// Transposed access: fastest-varying walked by i.
	rt := Ref{Array: "A", Subscripts: []Expr{NewIter("j"), NewIter("i")}}
	if got := rt.Stride1Iter(); got != "i" {
		t.Fatalf("Stride1Iter = %q, want i", got)
	}
	// Strided access is not stride-1.
	rs := Ref{Array: "A", Subscripts: []Expr{NewIter("i"), NewIter("j").Scale(2)}}
	if got := rs.Stride1Iter(); got != "" {
		t.Fatalf("Stride1Iter = %q, want empty", got)
	}
	// Several stride-1 iterators: the first in sorted order, as
	// Stride1Iters lists them; zero and non-unit coefficients never count.
	for _, fv := range []map[string]int64{
		{"q": 1, "j": 1},
		{"b": -1, "a": 2, "c": 1},
		{"z": 1, "a": 0, "m": -1, "k": 3},
		{"": 1, "x": 1},
		{"a": 0},
	} {
		r := Ref{Array: "A", Subscripts: []Expr{{Iters: fv}}}
		want := ""
		if its := r.Stride1Iters(); len(its) > 0 {
			want = its[0]
		}
		if got := r.Stride1Iter(); got != want {
			t.Fatalf("Stride1Iter over %v = %q, want %q", fv, got, want)
		}
	}
}

func TestGemmShape(t *testing.T) {
	k := MustLookup("gemm")
	if k.MaxDepth() != 3 {
		t.Fatalf("gemm depth = %d, want 3", k.MaxDepth())
	}
	params := map[string]int64{"NI": 10, "NJ": 20, "NK": 30}
	if got := k.Flops(params); got != 2*10*20*30 {
		t.Fatalf("gemm flops = %d, want %d", got, 2*10*20*30)
	}
	// Footprint: C(10x20) + A(10x30) + B(30x20) doubles.
	want := int64(10*20+10*30+30*20) * 8
	if got := k.FootprintBytes(params, FP64); got != want {
		t.Fatalf("gemm footprint = %d, want %d", got, want)
	}
}

func TestWithParamsDoesNotMutate(t *testing.T) {
	k := MustLookup("gemm")
	orig := k.Params["NI"]
	k2 := k.WithParams(map[string]int64{"NI": 1})
	if k.Params["NI"] != orig {
		t.Fatal("WithParams mutated the original kernel")
	}
	if k2.Params["NI"] != 1 {
		t.Fatal("WithParams did not apply the override")
	}
	if k2.Params["NJ"] != k.Params["NJ"] {
		t.Fatal("WithParams dropped an existing parameter")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Undeclared array.
	bad := &Kernel{
		Name: "bad",
		Nests: []Nest{{
			Name:  "n",
			Loops: []Loop{{Name: "i", Upper: NewConst(4)}},
			Body: []Statement{{
				Name: "S", Refs: []Ref{{Array: "ghost", Subscripts: []Expr{NewIter("i")}}},
			}},
		}},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("Validate = %v, want undeclared-array error", err)
	}

	// Iterator not bound by the nest.
	bad2 := &Kernel{
		Name:   "bad2",
		Arrays: []Array{{Name: "A", Dims: []Expr{NewConst(4)}}},
		Nests: []Nest{{
			Name:  "n",
			Loops: []Loop{{Name: "i", Upper: NewConst(4)}},
			Body: []Statement{{
				Name: "S", Refs: []Ref{{Array: "A", Subscripts: []Expr{NewIter("z")}}},
			}},
		}},
	}
	if err := bad2.Validate(); err == nil || !strings.Contains(err.Error(), "iterator") {
		t.Fatalf("Validate = %v, want unbound-iterator error", err)
	}

	// Rank mismatch.
	bad3 := &Kernel{
		Name:   "bad3",
		Arrays: []Array{{Name: "A", Dims: []Expr{NewConst(4), NewConst(4)}}},
		Nests: []Nest{{
			Name:  "n",
			Loops: []Loop{{Name: "i", Upper: NewConst(4)}},
			Body: []Statement{{
				Name: "S", Refs: []Ref{{Array: "A", Subscripts: []Expr{NewIter("i")}}},
			}},
		}},
	}
	if err := bad3.Validate(); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("Validate = %v, want rank error", err)
	}
}

func TestKernelString(t *testing.T) {
	s := MustLookup("gemm").String()
	for _, want := range []string{"kernel gemm", "for (i", "for (k", "C[i][j]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestNestHelpers(t *testing.T) {
	k := MustLookup("gemm")
	n := k.Nests[0]
	if n.LoopIndex("k") != 2 || n.LoopIndex("zz") != -1 {
		t.Fatal("LoopIndex wrong")
	}
	if got := n.Iterations(map[string]int64{"NI": 2, "NJ": 3, "NK": 4}); got != 24 {
		t.Fatalf("Iterations = %d, want 24", got)
	}
	if len(n.Body[0].WriteRefs()) != 1 {
		t.Fatal("gemm S0 should have exactly one write ref")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := MustLookup("gemm")
	cp := orig.Clone()
	// Mutate every layer of the copy.
	cp.Params["NI"] = 1
	cp.Nests[0].Loops[0], cp.Nests[0].Loops[1] = cp.Nests[0].Loops[1], cp.Nests[0].Loops[0]
	cp.Nests[0].Body[0].Refs[0].Write = false
	if orig.Params["NI"] == 1 {
		t.Fatal("Clone shares the parameter map")
	}
	if orig.Nests[0].Loops[0].Name != "i" {
		t.Fatal("Clone shares the loop slice")
	}
	if !orig.Nests[0].Body[0].Refs[0].Write {
		t.Fatal("Clone shares the reference slice")
	}
}
