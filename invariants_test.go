package eatss_test

// Cross-cutting invariant tests: for arbitrary tile configurations drawn
// from the exploration spaces, the whole pipeline must uphold physical and
// structural invariants. These are the properties every experiment in the
// harness silently relies on.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	eatss "repro"
)

// randomTiles draws one configuration from the kernel's space.
func randomTiles(r *rand.Rand, k *eatss.AffineKernel) map[string]int64 {
	sizes := []int64{4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	tiles := map[string]int64{}
	for _, n := range k.Nests {
		for _, l := range n.Loops {
			if _, ok := tiles[l.Name]; !ok {
				tiles[l.Name] = sizes[r.Intn(len(sizes))]
			}
		}
	}
	return tiles
}

// TestPipelinePhysicalInvariants: any mappable configuration simulates to
// physical results.
func TestPipelinePhysicalInvariants(t *testing.T) {
	kernels := []string{"gemm", "2mm", "mvt", "jacobi-2d", "heat-3d", "conv-2d", "covariance"}
	gpus := []*eatss.GPU{eatss.GA100(), eatss.Xavier()}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := eatss.MustKernel(kernels[r.Intn(len(kernels))])
		g := gpus[r.Intn(len(gpus))]
		tiles := randomTiles(r, k)
		res, _, err := stage(t, k, nil).RunCtx(context.Background(), g, tiles, eatss.RunConfig{
			UseShared: r.Intn(2) == 0, Precision: eatss.FP64,
		})
		if err != nil {
			return true // unmappable configs are allowed to be rejected
		}
		idle := g.ConstantWatts + g.StaticWatts
		switch {
		case res.TimeSec <= 0,
			res.EnergyJ <= 0,
			res.Flops <= 0,
			res.GFLOPS*1e9 >= g.PeakFlops(g.MaxClockMHz, 2),
			res.AvgPowerW < idle*0.99,
			res.AvgPowerW > g.TDPWatts*1.01,
			res.L2Sectors < 0,
			res.DRAMBytes <= 0:
			t.Logf("violation: kernel=%s gpu=%s tiles=%v res=%+v", k.Name, g.Name, tiles, res)
			return false
		}
		// Energy = avg power x time (within float tolerance).
		diff := res.EnergyJ - res.AvgPowerW*res.TimeSec
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6*(1+res.EnergyJ)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMappingGeometryInvariants: block/grid geometry always respects the
// execution-model limits and covers the iteration space.
func TestMappingGeometryInvariants(t *testing.T) {
	kernels := []string{"gemm", "3mm", "atax", "fdtd-2d", "mttkrp", "doitgen"}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := eatss.MustKernel(kernels[r.Intn(len(kernels))])
		g := eatss.GA100()
		tiles := randomTiles(r, k)
		mk, err := stage(t, k, nil).CompileCtx(context.Background(), g, tiles, eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
		if err != nil {
			return true
		}
		for _, mn := range mk.Nests {
			if mn.ThreadsPerBlock > g.ThreadsPerBlock || mn.ThreadsPerBlock < 1 {
				return false
			}
			if mn.SharedBytesPerBlock > g.SharedPerBlock {
				return false
			}
			if mn.RegsPerThread > g.RegsPerThread {
				return false
			}
			// Every mapped dimension's blocks x tile must cover the
			// loop extent.
			for i, name := range mn.MappedLoops {
				ext := mn.Nest.Loops[mn.Nest.LoopIndex(name)].Extent(mn.Params)
				if mn.GridDims[i]*mn.Tiles[name] < ext {
					return false
				}
				// Coarsening preserves tile points.
				if mn.BlockDims[i]*mn.Coarsen[i] < mn.Tiles[name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEATSSSolutionsAlwaysMappable: every configuration EATSS emits (all
// splits, all warp fractions, both GPUs, every kernel) must compile and
// simulate — the model's constraints must imply mappability.
func TestEATSSSolutionsAlwaysMappable(t *testing.T) {
	for _, g := range []*eatss.GPU{eatss.GA100(), eatss.Xavier()} {
		for _, name := range eatss.Kernels() {
			prog := stage(t, eatss.MustKernel(name), nil)
			for _, split := range eatss.SharedSplits {
				for _, wf := range eatss.WarpFractions {
					sel, err := prog.SelectTiles(g, eatss.Options{
						SplitFactor: split, WarpFraction: wf,
						Precision: eatss.FP64, ProblemSizeAware: true,
					})
					if err != nil {
						continue // infeasible formulation: fine
					}
					if _, _, err := prog.RunCtx(context.Background(), g, sel.Tiles, eatss.RunConfig{
						UseShared: split > 0, Precision: eatss.FP64,
					}); err != nil {
						t.Errorf("%s/%s split=%.2f wf=%.3f: EATSS tiles %v unmappable: %v",
							g.Name, name, split, wf, sel.Tiles, err)
					}
				}
			}
		}
	}
}

// TestSimulationMonotoneInWork: strictly more work (a larger problem) must
// not take less time or energy under the same configuration.
func TestSimulationMonotoneInWork(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	tiles := eatss.DefaultTiles(k)
	var prevT, prevE float64
	for _, n := range []int64{500, 1000, 2000, 4000} {
		prog := stage(t, k, map[string]int64{"NI": n, "NJ": n, "NK": n})
		res, _, err := prog.RunCtx(context.Background(), g, tiles, eatss.RunConfig{
			UseShared: true, Precision: eatss.FP64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimeSec < prevT || res.EnergyJ < prevE {
			t.Fatalf("N=%d: time/energy decreased (%.4fs/%.2fJ after %.4fs/%.2fJ)",
				n, res.TimeSec, res.EnergyJ, prevT, prevE)
		}
		prevT, prevE = res.TimeSec, res.EnergyJ
	}
}
