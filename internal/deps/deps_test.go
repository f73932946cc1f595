package deps

import (
	"testing"

	"repro/internal/affine"
)

func nestOf(t *testing.T, kernel string, idx int) *affine.Nest {
	t.Helper()
	k := affine.MustLookup(kernel)
	if idx >= len(k.Nests) {
		t.Fatalf("%s has %d nests", kernel, len(k.Nests))
	}
	return &k.Nests[idx]
}

func TestGemmParallelism(t *testing.T) {
	info := AnalyzeNest(nestOf(t, "gemm", 0))
	want := []bool{true, true, false} // i, j parallel; k sequential
	for d, w := range want {
		if info.Parallel[d] != w {
			t.Errorf("gemm loop %d: parallel=%v, want %v", d, info.Parallel[d], w)
		}
	}
	if !info.SequentialOnlyReduction[2] {
		t.Error("gemm k-loop should be reduction-sequential")
	}
}

func TestMvtParallelism(t *testing.T) {
	k := affine.MustLookup("mvt")
	for ni := range k.Nests {
		info := AnalyzeNest(&k.Nests[ni])
		if !info.Parallel[0] || info.Parallel[1] {
			t.Errorf("mvt nest %d: Parallel = %v, want [true false]", ni, info.Parallel)
		}
	}
}

func TestAtaxSecondNest(t *testing.T) {
	// aty: y[j] += A[i][j]*tmp[i] — i carries the reduction, j is parallel.
	info := AnalyzeNest(nestOf(t, "atax", 1))
	if info.Parallel[0] || !info.Parallel[1] {
		t.Errorf("atax aty: Parallel = %v, want [false true]", info.Parallel)
	}
}

func TestStencilSpaceLoopsParallel(t *testing.T) {
	for _, name := range []string{"jacobi-1d", "jacobi-2d", "heat-3d", "fdtd-2d"} {
		k := affine.MustLookup(name)
		for ni := range k.Nests {
			info := AnalyzeNest(&k.Nests[ni])
			for d, p := range info.Parallel {
				if !p {
					t.Errorf("%s nest %d loop %d should be parallel", name, ni, d)
				}
			}
		}
	}
}

func TestConv2DInnerLoopsSequential(t *testing.T) {
	info := AnalyzeNest(nestOf(t, "conv-2d", 0))
	want := []bool{true, true, false, false} // i, j parallel; p, q reduction
	for d, w := range want {
		if info.Parallel[d] != w {
			t.Errorf("conv-2d loop %d: parallel=%v, want %v", d, info.Parallel[d], w)
		}
	}
	for _, d := range []int{2, 3} {
		if !info.SequentialOnlyReduction[d] {
			t.Errorf("conv-2d loop %d should be reduction-only sequential", d)
		}
	}
}

func TestMttkrpParallelism(t *testing.T) {
	info := AnalyzeNest(nestOf(t, "mttkrp", 0))
	want := []bool{true, true, false, false}
	for d, w := range want {
		if info.Parallel[d] != w {
			t.Errorf("mttkrp loop %d: parallel=%v, want %v", d, info.Parallel[d], w)
		}
	}
}

func TestDependenceString(t *testing.T) {
	info := AnalyzeNest(nestOf(t, "gemm", 0))
	if len(info.Deps) == 0 {
		t.Fatal("gemm has no deps")
	}
	s := info.Deps[0].String()
	if s == "" {
		t.Fatal("empty dependence string")
	}
}

func TestCarriedAtLoopIndependent(t *testing.T) {
	d := Dependence{Components: []Component{{Kind: Pinned, Dist: 0}, {Kind: Pinned, Dist: 0}}}
	if d.CarriedAt() != -1 {
		t.Fatalf("loop-independent dep carried at %d", d.CarriedAt())
	}
	if d.CarriesLoop(0) || d.CarriesLoop(1) {
		t.Fatal("loop-independent dep should not carry any loop")
	}
}

func TestCarriesLoopOuterBlocks(t *testing.T) {
	// Distance (1, *) — carried at level 0 only; level 1 requires the
	// outer distance to be zero, which is infeasible.
	d := Dependence{Components: []Component{{Kind: Pinned, Dist: 1}, {Kind: Star}}}
	if !d.CarriesLoop(0) {
		t.Fatal("should carry level 0")
	}
	if d.CarriesLoop(1) {
		t.Fatal("level 1 cannot be carried when outer distance is pinned nonzero")
	}
}

func TestNoFalseDependenceOnDisjointConstants(t *testing.T) {
	// A[0] and A[5] never alias.
	n := &affine.Nest{
		Name:  "n",
		Loops: []affine.Loop{{Name: "i", Upper: affine.NewConst(10)}},
		Body: []affine.Statement{{
			Name: "S",
			Refs: []affine.Ref{
				{Array: "A", Subscripts: []affine.Expr{affine.NewConst(0)}, Write: true},
				{Array: "A", Subscripts: []affine.Expr{affine.NewConst(5)}},
			},
		}},
	}
	info := AnalyzeNest(n)
	// The write self-pairs with the read? Constants differ => infeasible.
	for _, dep := range info.Deps {
		if dep.SrcRef != dep.DstRef {
			t.Errorf("spurious dependence %v between A[0] and A[5]", dep)
		}
	}
}

func TestFractionalDistanceInfeasible(t *testing.T) {
	// A[2i] written, A[2i+1] read: odd/even interleave never aliases.
	i2 := affine.NewIter("i").Scale(2)
	n := &affine.Nest{
		Name:  "n",
		Loops: []affine.Loop{{Name: "i", Upper: affine.NewConst(10)}},
		Body: []affine.Statement{{
			Name: "S",
			Refs: []affine.Ref{
				{Array: "A", Subscripts: []affine.Expr{i2}, Write: true},
				{Array: "A", Subscripts: []affine.Expr{i2.AddConst(1)}},
			},
		}},
	}
	info := AnalyzeNest(n)
	for _, dep := range info.Deps {
		if dep.SrcRef != dep.DstRef {
			t.Errorf("spurious dependence %v between A[2i] and A[2i+1]", dep)
		}
	}
	if !info.Parallel[0] {
		t.Error("i should be parallel: accesses never alias")
	}
}

func TestShiftedWriteReadSequential(t *testing.T) {
	// B[i] written, B[i+1] read in the same nest: distance pinned at -1,
	// i must be sequential.
	i := affine.NewIter("i")
	n := &affine.Nest{
		Name:  "n",
		Loops: []affine.Loop{{Name: "i", Upper: affine.NewConst(10)}},
		Body: []affine.Statement{{
			Name: "S",
			Refs: []affine.Ref{
				{Array: "B", Subscripts: []affine.Expr{i}, Write: true},
				{Array: "B", Subscripts: []affine.Expr{i.AddConst(1)}},
			},
		}},
	}
	info := AnalyzeNest(n)
	if info.Parallel[0] {
		t.Fatal("loop with distance-1 dependence must be sequential")
	}
}

func TestAnalyzeKernelCoversAllNests(t *testing.T) {
	k := affine.MustLookup("2mm")
	for ni := range k.Nests {
		if info := AnalyzeNest(&k.Nests[ni]); info.NumParallel() != 2 {
			t.Errorf("2mm nest %s: %d parallel loops, want 2", info.Nest.Name, info.NumParallel())
		}
	}
}
