package ppcg

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
)

func TestDefaultTiles(t *testing.T) {
	k := affine.MustLookup("gemm")
	tiles := DefaultTiles(k)
	if len(tiles) != 3 {
		t.Fatalf("gemm default tiles = %v", tiles)
	}
	for name, v := range tiles {
		if v != 32 {
			t.Errorf("tile %s = %d, want 32", name, v)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	k := affine.MustLookup("2mm")
	space := Space(k, PaperSpaceSizes())
	// 2mm has 3 distinct loop names (i, j, k): 15^3 = 3,375 variants —
	// the exact space of the paper's Fig. 2.
	if len(space) != 3375 {
		t.Fatalf("2mm space = %d variants, want 3375", len(space))
	}
	seen := make(map[string]bool)
	for _, cfg := range space {
		key := ""
		for _, n := range LoopNames(k) {
			key += string(rune(cfg[n])) + "|"
		}
		if seen[key] {
			t.Fatal("duplicate configuration in space")
		}
		seen[key] = true
	}
}

func TestSpace2D(t *testing.T) {
	k := affine.MustLookup("mvt")
	space := Space(k, []int64{8, 16, 32})
	if len(space) != 9 {
		t.Fatalf("mvt 3-size space = %d, want 9", len(space))
	}
}

func TestGeometricSizes(t *testing.T) {
	got := GeometricSizes(4, 64)
	want := []int64{4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("GeometricSizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GeometricSizes = %v, want %v", got, want)
		}
	}
}

func TestCompileDefault(t *testing.T) {
	k := affine.MustLookup("gemm")
	mk, err := CompileAnalyzed(context.Background(), analysis.Analyze(k, nil), nil, nil, arch.GA100(),
		codegen.Options{UseShared: true, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	if len(mk.Nests) != 1 || mk.Nests[0].Tiles["i"] != 32 {
		t.Fatalf("default compile wrong: %+v", mk.Nests[0].Tiles)
	}
}

func TestLoopNamesSorted(t *testing.T) {
	k := affine.MustLookup("mttkrp")
	names := LoopNames(k)
	want := []string{"i", "j", "k", "l"}
	if len(names) != len(want) {
		t.Fatalf("LoopNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("LoopNames = %v, want %v", names, want)
		}
	}
}
