package deps

import (
	"testing"

	"repro/internal/affine"
)

// TestMatmulTableII reproduces the paper's Table II classification for
// matmul: Out and Ker map to L1 (CMA-capable along j), In maps to shared
// memory; Out has temporal reuse on k, In on j, Ker none.
func TestMatmulTableII(t *testing.T) {
	k := affine.MustLookup("gemm")
	nr := AnalyzeReuse(&k.Nests[0])

	if nr.CMALoop != "j" {
		t.Fatalf("CMA loop = %q, want j (stride-1 in C and B)", nr.CMALoop)
	}

	classOf := func(array string) MemClass {
		t.Helper()
		for _, rr := range nr.Refs {
			if rr.Ref.Array == array {
				return rr.Class
			}
		}
		t.Fatalf("array %s not found", array)
		return 0
	}
	if classOf("C") != MemL1 {
		t.Error("C (Out) should be L1-mapped")
	}
	if classOf("B") != MemL1 {
		t.Error("B (Ker) should be L1-mapped")
	}
	if classOf("A") != MemShared {
		t.Error("A (In) should be shared-memory-mapped")
	}

	// Temporal reuse: C invariant along k; A invariant along j.
	for _, rr := range nr.Refs {
		switch rr.Ref.Array {
		case "C":
			if len(rr.TemporalIters) != 1 || rr.TemporalIters[0] != "k" {
				t.Errorf("C temporal iters = %v, want [k]", rr.TemporalIters)
			}
		case "A":
			if len(rr.TemporalIters) != 1 || rr.TemporalIters[0] != "j" {
				t.Errorf("A temporal iters = %v, want [j]", rr.TemporalIters)
			}
		case "B":
			if len(rr.TemporalIters) != 1 || rr.TemporalIters[0] != "i" {
				t.Errorf("B temporal iters = %v, want [i]", rr.TemporalIters)
			}
		}
	}
}

func TestGemmHWeights(t *testing.T) {
	k := affine.MustLookup("gemm")
	nr := AnalyzeReuse(&k.Nests[0])
	// j is stride-1 for C (write+read) and B => raw count 3 (C twice);
	// k is stride-1 for A => 1.
	if nr.HRaw["j"] < 2 {
		t.Errorf("HRaw[j] = %d, want >= 2", nr.HRaw["j"])
	}
	if nr.HRaw["k"] != 1 {
		t.Errorf("HRaw[k] = %d, want 1", nr.HRaw["k"])
	}
	if nr.HRaw["i"] != 0 {
		t.Errorf("HRaw[i] = %d, want 0", nr.HRaw["i"])
	}
}

func TestGemmDistinctLineRefs(t *testing.T) {
	k := affine.MustLookup("gemm")
	nr := AnalyzeReuse(&k.Nests[0])
	// Sec. IV-G: matmul counts 3 distinct-line references (C write+read
	// share a line; A; B).
	if nr.DistinctLineRefs != 3 {
		t.Fatalf("gemm DistinctLineRefs = %d, want 3", nr.DistinctLineRefs)
	}
}

func TestFdtd2dDistinctLineRefs(t *testing.T) {
	// Sec. IV-G: "for the fdtd-2d kernel it would be 4 (two references
	// typically lie in the same cache line)". Per field-update nest:
	// e.g. Shz references hz(w), hz(r), ex[i][j+1], ex[i][j], ey[i+1][j],
	// ey[i][j]: hz w+r merge, ex j+1/j merge, ey i+1 and ey i are on
	// different rows => 4 groups.
	k := affine.MustLookup("fdtd-2d")
	nr := AnalyzeReuse(&k.Nests[2]) // hz nest
	if nr.DistinctLineRefs != 4 {
		t.Fatalf("fdtd-2d hz nest DistinctLineRefs = %d, want 4", nr.DistinctLineRefs)
	}
}

func TestMvtTransposedCMA(t *testing.T) {
	// mv2: x2[i] += A[j][i]*y2[j]; stride-1 loop of A is i, so l_s1 = i
	// and A is L1-mapped.
	k := affine.MustLookup("mvt")
	nr := AnalyzeReuse(&k.Nests[1])
	if nr.CMALoop != "i" {
		t.Fatalf("mv2 CMA loop = %q, want i", nr.CMALoop)
	}
	for _, rr := range nr.Refs {
		if rr.Ref.Array == "A" && rr.Class != MemL1 {
			t.Error("A[j][i] should be L1-mapped (stride-1 along i)")
		}
		if rr.Ref.Array == "y2" && rr.Class != MemShared {
			t.Error("y2[j] should be shared-mapped (no CMA along i)")
		}
	}
}

func TestSharedAndL1Partition(t *testing.T) {
	for _, name := range affine.Catalog() {
		k := affine.MustLookup(name)
		for ni := range k.Nests {
			nr := AnalyzeReuse(&k.Nests[ni])
			var shared, l1 int
			for _, r := range nr.Refs {
				switch r.Class {
				case MemShared:
					shared++
				case MemL1:
					l1++
				}
			}
			if shared+l1 != len(nr.Refs) {
				t.Errorf("%s nest %d: shared+L1 != total", name, ni)
			}
		}
	}
}

func TestCMALoopAlwaysFoundForCatalog(t *testing.T) {
	// Every kernel in the evaluation has at least one stride-1 access.
	for _, name := range affine.Catalog() {
		k := affine.MustLookup(name)
		for ni := range k.Nests {
			nr := AnalyzeReuse(&k.Nests[ni])
			if nr.CMALoop == "" {
				t.Errorf("%s nest %s: no CMA loop selected", name, k.Nests[ni].Name)
			}
		}
	}
}

func TestUniqueArrayRefsMergesAccumulator(t *testing.T) {
	k := affine.MustLookup("gemm")
	nr := AnalyzeReuse(&k.Nests[0])
	uniq := UniqueArrayRefs(nr.Refs)
	if len(uniq) != 3 {
		t.Fatalf("gemm unique refs = %d, want 3 (C, A, B)", len(uniq))
	}
	for _, rr := range uniq {
		if rr.Ref.Array == "C" && !rr.Ref.Write {
			t.Error("merged C reference should remain a write")
		}
	}
}

func TestWriteOnlyRefStaysL1WithoutCMA(t *testing.T) {
	// A write target that is not stride-1 along the CMA loop is still
	// L1-mapped ("repeatedly and frequently updated").
	i, j := affine.NewIter("i"), affine.NewIter("j")
	n := &affine.Nest{
		Name: "t",
		Loops: []affine.Loop{
			{Name: "i", Upper: affine.NewConst(64)},
			{Name: "j", Upper: affine.NewConst(64)},
		},
		Body: []affine.Statement{{
			Name: "S",
			Refs: []affine.Ref{
				{Array: "W", Subscripts: []affine.Expr{j, i}, Write: true}, // transposed store
				{Array: "R", Subscripts: []affine.Expr{i, j}},
				{Array: "R2", Subscripts: []affine.Expr{i, j}},
			},
		}},
	}
	nr := AnalyzeReuse(n)
	if nr.CMALoop != "j" {
		t.Fatalf("CMA loop = %q, want j", nr.CMALoop)
	}
	for _, rr := range nr.Refs {
		if rr.Ref.Array == "W" && rr.Class != MemL1 {
			t.Error("write target should be L1-mapped even without CMA")
		}
	}
}
