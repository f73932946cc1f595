package codegen

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
)

func mapStencil(t *testing.T, kernel string, tiles map[string]int64) *MappedNest {
	t.Helper()
	k := affine.MustLookup(kernel)
	mk, err := MapKernelReuse(context.Background(), k, nil, nil, tiles, arch.GA100(),
		Options{UseShared: false, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	return mk.Nests[0]
}

func TestStencilRadius(t *testing.T) {
	m := mapStencil(t, "jacobi-2d", map[string]int64{"i": 32, "j": 32})
	if r := m.StencilRadius(); r != 1 {
		t.Fatalf("jacobi-2d radius = %d, want 1", r)
	}
	k := affine.MustLookup("gemm")
	mk, err := MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 32, "j": 32, "k": 32},
		arch.GA100(), Options{Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	if r := mk.Nests[0].StencilRadius(); r != 0 {
		t.Fatalf("gemm radius = %d, want 0 (no halo)", r)
	}
}

func TestApplyTimeTiling(t *testing.T) {
	m := mapStencil(t, "jacobi-2d", map[string]int64{"i": 32, "j": 64})
	before := m.Launches
	if err := m.ApplyTimeTiling(4); err != nil {
		t.Fatal(err)
	}
	tt := m.TimeTiling
	if tt == nil || tt.Fuse != 4 || tt.Radius != 1 {
		t.Fatalf("TimeTiling = %+v", tt)
	}
	if tt.OverlapFactor <= 1.0 {
		t.Fatalf("overlap factor %.3f should exceed 1 (redundant halo compute)", tt.OverlapFactor)
	}
	if want := (before + 3) / 4; m.Launches != want {
		t.Fatalf("launches = %d, want %d", m.Launches, want)
	}
}

func TestTimeTilingRejectsNonStencil(t *testing.T) {
	k := affine.MustLookup("gemm")
	mk, err := MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 32, "j": 32, "k": 32},
		arch.GA100(), Options{Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	if err := mk.Nests[0].ApplyTimeTiling(4); err == nil {
		t.Fatal("gemm (launches=1, radius=0) must reject time tiling")
	}
}

func TestTimeTilingRejectsTinyTiles(t *testing.T) {
	// Fusing 8 steps of a radius-1 stencil needs tiles > 14.
	m := mapStencil(t, "jacobi-2d", map[string]int64{"i": 8, "j": 8})
	if err := m.ApplyTimeTiling(8); err == nil {
		t.Fatal("8x8 tiles cannot host a fuse-8 trapezoid")
	}
}

func TestTimeTilingRejectsDouble(t *testing.T) {
	m := mapStencil(t, "jacobi-2d", map[string]int64{"i": 32, "j": 64})
	if err := m.ApplyTimeTiling(2); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyTimeTiling(2); err == nil {
		t.Fatal("double time tiling must be rejected")
	}
}

func TestApplyRegisterTiling(t *testing.T) {
	k := affine.MustLookup("gemm")
	mk, err := MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 64, "j": 64, "k": 16},
		arch.GA100(), Options{UseShared: true, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	m := mk.Nests[0]
	threadsBefore := m.ThreadsPerBlock
	regsBefore := m.RegsPerThread
	if err := m.ApplyRegisterTiling(4, 255); err != nil {
		t.Fatal(err)
	}
	if m.RegTiling == nil || m.RegTiling.R != 4 {
		t.Fatalf("RegTiling = %+v", m.RegTiling)
	}
	if m.ThreadsPerBlock != threadsBefore/16 {
		t.Fatalf("threads = %d, want %d", m.ThreadsPerBlock, threadsBefore/16)
	}
	if m.RegsPerThread <= regsBefore {
		t.Fatal("register tiling must cost registers")
	}
	// Points per tile preserved via coarsening.
	points := int64(1)
	for i := range m.BlockDims {
		points *= m.BlockDims[i] * m.Coarsen[i]
	}
	if points < 64*64 {
		t.Fatalf("points %d lost by micro-tiling", points)
	}
}

func TestRegisterTilingRejections(t *testing.T) {
	k := affine.MustLookup("gemm")
	fresh := func() *MappedNest {
		mk, err := MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 64, "j": 64, "k": 16},
			arch.GA100(), Options{Precision: affine.FP64})
		if err != nil {
			t.Fatal(err)
		}
		return mk.Nests[0]
	}
	if err := fresh().ApplyRegisterTiling(1, 255); err == nil {
		t.Error("trivial micro-tile accepted")
	}
	if err := fresh().ApplyRegisterTiling(8, 40); err == nil {
		t.Error("micro-tile exceeding the register limit accepted")
	}
	m := fresh()
	if err := m.ApplyRegisterTiling(2, 255); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyRegisterTiling(2, 255); err == nil {
		t.Error("double register tiling accepted")
	}
}

func TestMicroReuseFactors(t *testing.T) {
	k := affine.MustLookup("gemm")
	mk, err := MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 64, "j": 64, "k": 16},
		arch.GA100(), Options{Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	m := mk.Nests[0]
	if err := m.ApplyRegisterTiling(4, 255); err != nil {
		t.Fatal(err)
	}
	for _, mr := range m.Refs {
		got := m.MicroReuse(mr)
		switch mr.Ref.Array {
		case "C": // uses both micro-tiled dims
			if got != 1 {
				t.Errorf("C reuse = %d, want 1", got)
			}
		case "A", "B": // use exactly one of them
			if got != 4 {
				t.Errorf("%s reuse = %d, want 4", mr.Ref.Array, got)
			}
		}
	}
}
