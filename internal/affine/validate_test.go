package affine

import (
	"fmt"
	"testing"
)

// validBase returns a small valid kernel the error cases below each
// break in one place: param N, arrays A[N][N] and B[N], one nest
// n { for i, j in 0..N: S: A[i][j] = B[j] }.
func validBase() *Kernel {
	return &Kernel{
		Name:   "k",
		Params: map[string]int64{"N": 8},
		Arrays: []Array{
			{Name: "A", Dims: []Expr{NewParam("N"), NewParam("N")}},
			{Name: "B", Dims: []Expr{NewParam("N")}},
		},
		Nests: []Nest{{
			Name: "n",
			Loops: []Loop{
				{Name: "i", Upper: NewParam("N")},
				{Name: "j", Upper: NewParam("N")},
			},
			Body: []Statement{{
				Name: "S",
				Refs: []Ref{
					{Array: "A", Subscripts: []Expr{NewIter("i"), NewIter("j")}, Write: true},
					{Array: "B", Subscripts: []Expr{NewIter("j")}},
				},
			}},
		}},
	}
}

// expr builds an Expr from explicit coefficient maps (nil stays nil).
func expr(iters, params map[string]int64, c int64) Expr {
	return Expr{Iters: iters, Params: params, Const: c}
}

// TestValidateErrorMessages pins the exact text of every Validate error
// branch, including each undeclared-parameter site and the choice of
// name when several are undeclared: the lexically first one.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(k *Kernel)
		want   string
	}{
		{"valid", func(k *Kernel) {}, ""},
		{"no name", func(k *Kernel) { k.Name = "" }, `affine: kernel has no name`},
		{"no nests", func(k *Kernel) { k.Nests = nil }, `affine: kernel "k" has no loop nests`},
		{"duplicate array", func(k *Kernel) { k.Arrays = append(k.Arrays, Array{Name: "A", Dims: []Expr{NewConst(2)}}) },
			`affine: kernel "k" declares array "A" twice`},
		{"dimension uses iterator", func(k *Kernel) { k.Arrays[1].Dims[0] = NewIter("i").Add(NewParam("N")) },
			`affine: array "B" dimension i+N uses a loop iterator`},
		{"dimension undeclared parameter", func(k *Kernel) { k.Arrays[0].Dims[1] = NewParam("M") },
			`affine: kernel "k": array "A" dimension references undeclared parameter "M"`},
		{"repeat undeclared parameter", func(k *Kernel) { k.Nests[0].Repeat = NewParam("T") },
			`affine: kernel "k": nest "n" repeat count references undeclared parameter "T"`},
		{"duplicate loop", func(k *Kernel) { k.Nests[0].Loops[1].Name = "i" },
			`affine: nest "n" has duplicate loop "i"`},
		{"non-rectangular lower", func(k *Kernel) { k.Nests[0].Loops[1].Lower = NewIter("i") },
			`affine: nest "n" loop "j" has non-rectangular bounds`},
		{"non-rectangular upper", func(k *Kernel) { k.Nests[0].Loops[0].Upper = NewIter("j") },
			`affine: nest "n" loop "i" has non-rectangular bounds`},
		{"lower bound undeclared parameter", func(k *Kernel) { k.Nests[0].Loops[0].Lower = NewParam("L") },
			`affine: kernel "k": nest "n" loop "i" lower bound references undeclared parameter "L"`},
		{"upper bound undeclared parameter", func(k *Kernel) { k.Nests[0].Loops[1].Upper = NewParam("M").AddConst(-1) },
			`affine: kernel "k": nest "n" loop "j" upper bound references undeclared parameter "M"`},
		{"empty body", func(k *Kernel) { k.Nests[0].Body = nil }, `affine: nest "n" has an empty body`},
		{"undeclared array", func(k *Kernel) { k.Nests[0].Body[0].Refs[1].Array = "C" },
			`affine: nest "n" references undeclared array "C"`},
		{"rank mismatch", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Subscripts = []Expr{NewIter("i"), NewIter("j").AddConst(1)}
		},
			`affine: reference B[i][j+1] has 2 subscripts; array has rank 1`},
		{"undeclared iterator", func(k *Kernel) { k.Nests[0].Body[0].Refs[0].Subscripts[1] = NewIter("z") },
			`affine: reference A[i][z] uses iterator "z" not bound by nest "n"`},
		{"subscript undeclared parameter", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[0].Subscripts[0] = NewIter("i").Add(NewParam("M").Scale(2))
		}, `affine: kernel "k": reference A[i+2*M][j] subscript references undeclared parameter "M"`},
		{"write reference in message", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Write = true
			k.Nests[0].Body[0].Refs[1].Subscripts[0] = NewParam("Q")
		},
			`affine: kernel "k": reference B[Q] subscript references undeclared parameter "Q"`},
		{"first of several undeclared parameters", func(k *Kernel) {
			k.Arrays[1].Dims[0] = expr(nil, map[string]int64{"Z": 1, "N": 1, "M": 3, "P": -1}, 0)
		}, `affine: kernel "k": array "B" dimension references undeclared parameter "M"`},
		{"first of several undeclared iterators", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Subscripts[0] = expr(map[string]int64{"z": 1, "j": 1, "y": 2, "x0": -1}, nil, 0)
		}, `affine: reference B[j-x0+2*y+z] uses iterator "x0" not bound by nest "n"`},
		{"iterator checked before parameter", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Subscripts[0] = expr(map[string]int64{"z": 1}, map[string]int64{"A": 1}, 0)
		}, `affine: reference B[z+A] uses iterator "z" not bound by nest "n"`},
		{"zero coefficients are not uses", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Subscripts[0] = expr(map[string]int64{"j": 1, "z": 0}, map[string]int64{"M": 0}, 0)
			k.Arrays[0].Dims[0] = expr(nil, map[string]int64{"N": 1, "M": 0}, 0)
			k.Nests[0].Repeat = expr(nil, map[string]int64{"T": 0}, 1)
		}, ""},
		{"empty parameter name", func(k *Kernel) { k.Nests[0].Loops[0].Upper = expr(nil, map[string]int64{"": 1, "N": 1}, 0) },
			`affine: kernel "k": nest "n" loop "i" upper bound references undeclared parameter ""`},
		{"empty iterator name", func(k *Kernel) {
			k.Nests[0].Body[0].Refs[1].Subscripts[0] = expr(map[string]int64{"": 1, "j": 1}, nil, 0)
		}, `affine: reference B[+j] uses iterator "" not bound by nest "n"`},
		{"second nest", func(k *Kernel) {
			n2 := Nest{Name: "m", Loops: []Loop{{Name: "i", Upper: NewParam("N")}}, Body: []Statement{{
				Name: "T", Refs: []Ref{{Array: "B", Subscripts: []Expr{NewIter("j")}, Write: true}},
			}}}
			k.Nests = append(k.Nests, n2)
		}, `affine: reference B[j] uses iterator "j" not bound by nest "m"`},
		{"loop names do not leak across nests", func(k *Kernel) {
			n2 := Nest{Name: "m", Loops: []Loop{{Name: "j", Upper: NewParam("N")}}, Body: []Statement{{
				Name: "T", Refs: []Ref{{Array: "B", Subscripts: []Expr{NewIter("j")}, Write: true}},
			}}}
			k.Nests = append(k.Nests, n2)
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := validBase()
			c.mutate(k)
			err := k.Validate()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Fatalf("Validate = %q\nwant      %q", got, c.want)
			}
		})
	}
}

// validateAllocBound caps Validate's allocations on a valid kernel. The
// success path formats nothing and sorts nothing, and its array-rank map
// and loop-name set stay on the stack up to 8 entries: every kernel
// below measures 0, except gemver, whose 9 arrays grow the rank map to
// the heap (3). One formatted location costs more than that.
const validateAllocBound = 3

// TestValidateAllocs holds Validate's success path to validateAllocBound
// allocations over every catalog kernel and the five select-wide shapes, so
// error formatting cannot creep back in front of the checks.
func TestValidateAllocs(t *testing.T) {
	kernels := map[string]*Kernel{}
	for _, name := range Catalog() {
		kernels[name] = MustLookup(name)
	}
	for _, s := range []struct{ n, N int64 }{{2, 128}, {2, 256}, {2, 512}, {3, 128}, {3, 256}} {
		k := wideKernel(s.n, s.N)
		kernels[k.Name] = k
	}
	for name, k := range kernels {
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(50, func() { _ = k.Validate() }); got > validateAllocBound {
			t.Errorf("%s: Validate allocates %.0f times per call, bound %d", name, got, validateAllocBound)
		}
	}
}

// wideKernel builds n independent 2-D nests C_k[i_k][j_k] = A_k[i_k][j_k]
// over N x N arrays, the separable shape of the select-wide workload.
func wideKernel(n, size int64) *Kernel {
	b := NewBuilder(fmt.Sprintf("wide%d_%d", n, size), map[string]int64{"N": size})
	for k := int64(0); k < n; k++ {
		b.Array(fmt.Sprintf("A%d", k), "N", "N").Array(fmt.Sprintf("C%d", k), "N", "N")
	}
	for k := int64(0); k < n; k++ {
		i, j := fmt.Sprintf("i%d", k), fmt.Sprintf("j%d", k)
		b.Nest(fmt.Sprintf("n%d", k)).Loop(i, "N").Loop(j, "N").
			Stmt(fmt.Sprintf("S%d", k), 1).
			Write(fmt.Sprintf("C%d", k), i, j).Read(fmt.Sprintf("A%d", k), i, j).
			End().End()
	}
	return b.Build()
}
