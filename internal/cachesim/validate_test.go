package cachesim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/gpusim"
)

// These tests cross-validate the analytic traffic model of internal/gpusim
// against exact trace-driven cache simulation on small problem instances:
// the analytic per-block L2 read traffic must agree with the replayed
// trace within a small factor, and qualitative effects (L1 capture,
// staging benefits, tile-size trends) must agree in direction.

func mapSmallGemm(t *testing.T, tiles map[string]int64, useShared bool) *codegen.MappedNest {
	t.Helper()
	k := affine.MustLookup("gemm").WithParams(map[string]int64{"NI": 128, "NJ": 128, "NK": 128})
	mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, arch.GA100(),
		codegen.Options{UseShared: useShared, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	return mk.Nests[0]
}

// l1For mirrors the analytic model's per-block L1 share as a concrete
// cache geometry.
func l1For(m *codegen.MappedNest, g *arch.GPU) Config {
	occ := gpusim.ComputeOccupancy(m, g)
	carve := m.SharedBytesPerBlock * occ.BlocksPerSM
	size := (g.L1SharedBytes - carve) / occ.BlocksPerSM
	// Round down to a power-of-two-ish valid geometry.
	line := int64(128)
	ways := int64(4)
	sets := size / line / ways
	if sets < 1 {
		sets = 1
	}
	return Config{SizeBytes: sets * line * ways, LineBytes: line, Ways: ways}
}

func TestTraceVsAnalyticGemm(t *testing.T) {
	g := arch.GA100()
	for _, tiles := range []map[string]int64{
		{"i": 16, "j": 32, "k": 16},
		{"i": 32, "j": 32, "k": 32},
		{"i": 8, "j": 64, "k": 8},
	} {
		m := mapSmallGemm(t, tiles, true)
		occ := gpusim.ComputeOccupancy(m, g)
		tr := gpusim.ComputeTraffic(m, g, occ)
		analytic := float64(tr.L2ReadBytes) / float64(m.TotalBlocks)

		res, err := SimulateBlock(m, l1For(m, g))
		if err != nil {
			t.Fatal(err)
		}
		traced := float64(res.L2ReadBytes)
		if traced == 0 || analytic == 0 {
			t.Fatalf("tiles %v: degenerate traffic (analytic %.0f, traced %.0f)", tiles, analytic, traced)
		}
		ratio := analytic / traced
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("tiles %v: analytic %.0fB vs traced %.0fB per block (ratio %.2f)",
				tiles, analytic, traced, ratio)
		}
	}
}

func TestTracePointsMatchWork(t *testing.T) {
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	res, err := SimulateBlock(m, l1For(m, arch.GA100()))
	if err != nil {
		t.Fatal(err)
	}
	// Interior block: 16x32 tile points x 128 serial iterations.
	if want := int64(16 * 32 * 128); res.Points != want {
		t.Fatalf("points = %d, want %d", res.Points, want)
	}
}

func TestStagingReducesL1Pressure(t *testing.T) {
	// With A staged in shared memory the L1 serves fewer streams; its
	// miss traffic must not increase.
	staged := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	raw := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, false)
	cfg := l1For(raw, arch.GA100())
	rs, err := SimulateBlock(staged, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := SimulateBlock(raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rs.L2ReadBytes > rr.L2ReadBytes {
		t.Fatalf("staged misses %d exceed unstaged %d", rs.L2ReadBytes, rr.L2ReadBytes)
	}
}

func TestSmallCacheThrashes(t *testing.T) {
	// The same trace through a tiny L1 must miss far more: the liveness
	// cliff the analytic model encodes with its capture test.
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	big, err := SimulateBlock(m, cfg(128*1024, 128, 4))
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := SimulateBlock(m, cfg(4*1024, 128, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tiny.L2ReadBytes < 2*big.L2ReadBytes {
		t.Fatalf("tiny-cache traffic %d not much above big-cache %d",
			tiny.L2ReadBytes, big.L2ReadBytes)
	}
}

func TestCompulsoryFloorGemm(t *testing.T) {
	// With a big L1, per-block traffic approaches the compulsory floor:
	// the B panel (NK x Tj) + C tile + alignment slack, and never below.
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	res, err := SimulateBlock(m, cfg(128*1024, 128, 4))
	if err != nil {
		t.Fatal(err)
	}
	bPanel := int64(128 * 32 * 8) // NK x Tj doubles
	cTile := int64(16 * 32 * 8)
	floor := bPanel + cTile
	if res.L2ReadBytes < floor {
		t.Fatalf("traffic %d below compulsory floor %d", res.L2ReadBytes, floor)
	}
	if res.L2ReadBytes > 3*floor {
		t.Fatalf("traffic %d far above compulsory floor %d with an ample cache",
			res.L2ReadBytes, floor)
	}
}

func TestStencilHaloTrace(t *testing.T) {
	// jacobi-2d: per-block traffic should be about (tile+halo) for A plus
	// the B write tile; far below 5x (the naive per-reference count).
	k := affine.MustLookup("jacobi-2d").WithParams(map[string]int64{"N": 256, "T": 1})
	mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 16, "j": 32}, arch.GA100(),
		codegen.Options{UseShared: false, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	m := mk.Nests[0]
	res, err := SimulateBlock(m, cfg(64*1024, 128, 4))
	if err != nil {
		t.Fatal(err)
	}
	oneTile := int64(18 * 34 * 8) // (Ti+2)(Tj+2) doubles
	if res.L2ReadBytes > 4*oneTile {
		t.Fatalf("stencil block traffic %d suggests halo refs fetched repeatedly (tile %d)",
			res.L2ReadBytes, oneTile)
	}
}

func TestDeterministicTrace(t *testing.T) {
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	a, err := SimulateBlock(m, l1For(m, arch.GA100()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateBlock(m, l1For(m, arch.GA100()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("trace simulation is not deterministic")
	}
}

func TestSimulateGridSharesL2(t *testing.T) {
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	l1 := cfg(32*1024, 128, 4)
	l2 := cfg(4*1024*1024, 128, 16)

	grid, err := SimulateGrid(m, 8, l1, l2)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Blocks != 8 || len(grid.PerBlock) != 8 {
		t.Fatalf("blocks = %d / %d", grid.Blocks, len(grid.PerBlock))
	}
	// Inter-block sharing: blocks in the same column band reuse B panels
	// from L2, so DRAM traffic must be well below the sum of the blocks'
	// L1-miss traffic.
	var l1Misses int64
	for _, b := range grid.PerBlock {
		l1Misses += b.L2ReadBytes
	}
	if grid.DRAMBytes >= l1Misses {
		t.Fatalf("no L2 sharing: DRAM %d >= sum of L1 misses %d", grid.DRAMBytes, l1Misses)
	}
	if grid.L2.Hits == 0 {
		t.Fatal("shared L2 never hit across 8 blocks")
	}
}

func TestSimulateGridTinyL2Spills(t *testing.T) {
	m := mapSmallGemm(t, map[string]int64{"i": 16, "j": 32, "k": 16}, true)
	l1 := cfg(32*1024, 128, 4)
	big, err := SimulateGrid(m, 4, l1, cfg(8*1024*1024, 128, 16))
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := SimulateGrid(m, 4, l1, cfg(64*1024, 128, 16))
	if err != nil {
		t.Fatal(err)
	}
	if tiny.DRAMBytes <= big.DRAMBytes {
		t.Fatalf("tiny L2 DRAM %d should exceed big L2 %d (capacity spill)",
			tiny.DRAMBytes, big.DRAMBytes)
	}
}

func TestSimulateGridClampsBlockCount(t *testing.T) {
	m := mapSmallGemm(t, map[string]int64{"i": 64, "j": 64, "k": 16}, true)
	grid, err := SimulateGrid(m, 100000, cfg(32*1024, 128, 4), cfg(1024*1024, 128, 16))
	if err != nil {
		t.Fatal(err)
	}
	if int64(grid.Blocks) > m.TotalBlocks {
		t.Fatalf("blocks %d exceed grid %d", grid.Blocks, m.TotalBlocks)
	}
}
