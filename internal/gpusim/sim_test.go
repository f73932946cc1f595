package gpusim

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/codegen"
)

func compile(t *testing.T, kernel string, tiles map[string]int64, g *arch.GPU, params map[string]int64) *codegen.MappedKernel {
	t.Helper()
	k := affine.MustLookup(kernel)
	if params != nil {
		k = k.WithParams(params)
	}
	mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, g, codegen.Options{UseShared: true, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	return mk
}

func TestSimulateGemmBasics(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil)
	r := Simulate(mk, g)

	if r.TimeSec <= 0 || r.EnergyJ <= 0 || r.AvgPowerW <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// Flops must equal 2*N^3.
	want := int64(2) * 4000 * 4000 * 4000
	if r.Flops != want {
		t.Fatalf("flops = %d, want %d", r.Flops, want)
	}
	// Throughput must stay below the FP64 peak.
	if r.GFLOPS*1e9 >= g.PeakFlops(g.MaxClockMHz, 2) {
		t.Fatalf("GFLOPS %.1f exceeds peak", r.GFLOPS)
	}
	// Power within physical bounds.
	idle := g.ConstantWatts + g.StaticWatts
	if r.AvgPowerW < idle*0.9 || r.AvgPowerW > g.TDPWatts*1.01 {
		t.Fatalf("power %.1f outside [%.1f, %.1f]", r.AvgPowerW, idle, g.TDPWatts)
	}
	// Energy consistency.
	if diff := r.EnergyJ - r.AvgPowerW*r.TimeSec; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy %.3f != power*time %.3f", r.EnergyJ, r.AvgPowerW*r.TimeSec)
	}
}

func TestOccupancyLimits(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil)
	occ := ComputeOccupancy(mk.Nests[0], g)
	if occ.WarpsPerBlock != 32 {
		t.Fatalf("1024-thread block = %d warps, want 32", occ.WarpsPerBlock)
	}
	if occ.ActiveWarpsPerSM > g.MaxWarpsPerSM {
		t.Fatal("active warps exceed hardware limit")
	}
	if occ.BlocksPerSM*mk.Nests[0].RegsPerThread*mk.Nests[0].ThreadsPerBlock > g.RegsPerSM {
		t.Fatal("register budget exceeded")
	}
	if occ.GridEff <= 0 || occ.GridEff > 1 || occ.IssueEff <= 0 || occ.IssueEff > 1 {
		t.Fatalf("efficiency out of range: %+v", occ)
	}
}

func TestSmallGridUnderutilizes(t *testing.T) {
	g := arch.GA100()
	// 64x64 tiles on heat-3d N=200: few blocks, low grid efficiency.
	big := compile(t, "heat-3d", map[string]int64{"i": 64, "j": 64, "k": 64}, g, nil)
	small := compile(t, "heat-3d", map[string]int64{"i": 8, "j": 8, "k": 32}, g, nil)
	occBig := ComputeOccupancy(big.Nests[0], g)
	occSmall := ComputeOccupancy(small.Nests[0], g)
	if occBig.GridEff >= occSmall.GridEff {
		t.Fatalf("big tiles gridEff %.2f should be below small tiles %.2f",
			occBig.GridEff, occSmall.GridEff)
	}
}

func TestTrafficInvariants(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil)
	occ := ComputeOccupancy(mk.Nests[0], g)
	tr := ComputeTraffic(mk.Nests[0], g, occ)

	if tr.L2Sectors != tr.L2ReadBytes/g.SectorBytes {
		t.Fatal("sector arithmetic wrong")
	}
	// DRAM traffic cannot be below the compulsory footprint of the three
	// matrices (3 * N^2 * 8B).
	compulsory := int64(3) * 4000 * 4000 * 8
	if tr.DRAMBytes < compulsory {
		t.Fatalf("DRAM %d below compulsory %d", tr.DRAMBytes, compulsory)
	}
	// gemm stages A in shared memory.
	if tr.StagingBytes == 0 || tr.SharedBytes == 0 {
		t.Fatal("gemm should stage A in shared memory")
	}
	if tr.SerialSteps != 4000/32 {
		t.Fatalf("serial steps = %d, want 125", tr.SerialSteps)
	}
	// Liveness: B's per-thread serial chunk (Tk=32 doubles).
	if tr.LiveBytesPerThread != 32*8 {
		t.Fatalf("live bytes = %d, want 256", tr.LiveBytesPerThread)
	}
}

func TestBypassKeepsStagingOutOfL2Sectors(t *testing.T) {
	ga := arch.GA100() // has the global->shared L2 bypass
	xv := arch.Xavier()
	tiles := map[string]int64{"i": 16, "j": 32, "k": 16}
	mkGA := compile(t, "gemm", tiles, ga, nil)
	occGA := ComputeOccupancy(mkGA.Nests[0], ga)
	trGA := ComputeTraffic(mkGA.Nests[0], ga, occGA)

	mkXV := compile(t, "gemm", tiles, xv, nil)
	occXV := ComputeOccupancy(mkXV.Nests[0], xv)
	trXV := ComputeTraffic(mkXV.Nests[0], xv, occXV)

	if trGA.StagingBytes == 0 || trXV.StagingBytes == 0 {
		t.Fatal("both GPUs should stage")
	}
	// On Xavier the staging traffic is part of the L2 read stream.
	if trXV.L2ReadBytes <= trGA.L2ReadBytes-trGA.StagingBytes {
		t.Error("Xavier L2 reads should include staging traffic")
	}
}

func TestUncoalescedCostsTime(t *testing.T) {
	g := arch.GA100()
	k := affine.MustLookup("mvt")
	// mv1 reads A[i][j] with thread-x = i: stride-1 along the serial j,
	// so warp lanes touch different rows — uncoalesced, one LSU slot per
	// sector. mv2 reads the transposed A[j][i]: stride-1 along thread-x,
	// coalesced. Same data volume, so mv1 must burn more LSU slots and
	// more time per launch.
	mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, map[string]int64{"i": 32, "j": 32}, g,
		codegen.Options{UseShared: false, Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	occ0 := ComputeOccupancy(mk.Nests[0], g)
	tr0 := ComputeTraffic(mk.Nests[0], g, occ0) // mv1: uncoalesced A
	occ1 := ComputeOccupancy(mk.Nests[1], g)
	tr1 := ComputeTraffic(mk.Nests[1], g, occ1) // mv2: coalesced A
	if tr0.L1Bytes <= tr1.L1Bytes {
		t.Fatalf("uncoalesced L1-pipe bytes %d should exceed coalesced %d", tr0.L1Bytes, tr1.L1Bytes)
	}
	// Both nests are ultimately DRAM-bound (same compulsory traffic), so
	// the uncoalesced one may only be slower, never faster.
	r0 := SimulateNest(mk.Nests[0], g)
	r1 := SimulateNest(mk.Nests[1], g)
	if r0.TimeSec < r1.TimeSec {
		t.Fatalf("uncoalesced nest time %.5f should not beat coalesced %.5f", r0.TimeSec, r1.TimeSec)
	}
}

func TestFig1PowerSaturation(t *testing.T) {
	// Fig. 1: gemm power grows with problem size and saturates below TDP.
	g := arch.GA100()
	var prev float64
	for _, n := range []int64{1000, 2000, 3000, 4000, 5000, 6000} {
		mk := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g,
			map[string]int64{"NI": n, "NJ": n, "NK": n})
		r := Simulate(mk, g)
		if r.AvgPowerW < prev*0.98 {
			t.Fatalf("power not monotone-ish at N=%d: %.1f after %.1f", n, r.AvgPowerW, prev)
		}
		prev = r.AvgPowerW
		if r.AvgPowerW > g.TDPWatts {
			t.Fatalf("power %.1f exceeds TDP", r.AvgPowerW)
		}
	}
	// The small-size regime must be clearly below saturation.
	mkSmall := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g,
		map[string]int64{"NI": 1000, "NJ": 1000, "NK": 1000})
	small := Simulate(mkSmall, g)
	if small.AvgPowerW > 0.6*prev {
		t.Fatalf("N=1000 power %.1f not well below N=6000 power %.1f", small.AvgPowerW, prev)
	}
}

func TestDVFSWithinRange(t *testing.T) {
	for _, gname := range []string{"ga100", "xavier"} {
		g, _ := arch.ByName(gname)
		for _, kernel := range []string{"gemm", "mvt", "jacobi-2d"} {
			k := affine.MustLookup(kernel)
			tiles := map[string]int64{"i": 32, "j": 32, "k": 32}
			mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, g, codegen.Options{UseShared: true, Precision: affine.FP64})
			if err != nil {
				t.Fatal(err)
			}
			for _, nr := range Simulate(mk, g).Nests {
				if nr.ClockMHz < g.MinClockMHz-1 || nr.ClockMHz > g.MaxClockMHz+1 {
					t.Errorf("%s/%s nest %s clock %.0f outside [%.0f, %.0f]",
						gname, kernel, nr.Name, nr.ClockMHz, g.MinClockMHz, g.MaxClockMHz)
				}
			}
		}
	}
}

func TestMemoryBoundKernelDownclocks(t *testing.T) {
	g := arch.GA100()
	// jacobi-2d is bandwidth-bound: DVFS should settle well below the
	// max clock (automatic power scaling).
	mk := compile(t, "jacobi-2d", map[string]int64{"i": 16, "j": 256}, g, nil)
	r := Simulate(mk, g)
	for _, nr := range r.Nests {
		if nr.ClockMHz > 0.85*g.MaxClockMHz {
			t.Fatalf("memory-bound nest %s at %.0f MHz, expected a lower DVFS point", nr.Name, nr.ClockMHz)
		}
	}
}

// TestEATSSConfigBeatsDefaultGemm is the headline calibration guard: the
// configuration EATSS selects for gemm on the GA100 (16, 384, 16) must
// deliver better performance-per-Watt than PPCG's default 32^3 (Fig. 7a).
func TestEATSSConfigBeatsDefaultGemm(t *testing.T) {
	g := arch.GA100()
	def := Simulate(compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil), g)
	eatss := Simulate(compile(t, "gemm", map[string]int64{"i": 16, "j": 384, "k": 16}, g, nil), g)
	if eatss.PPW <= def.PPW {
		t.Fatalf("EATSS PPW %.2f should beat default %.2f", eatss.PPW, def.PPW)
	}
	if eatss.GFLOPS <= def.GFLOPS {
		t.Fatalf("EATSS GFLOPS %.1f should beat default %.1f", eatss.GFLOPS, def.GFLOPS)
	}
}

// TestSmallTilesWinHeat3D mirrors Sec. V-D: on high-dimensional stencils
// the default 32^d tiling starves the grid, and warp-fraction tiles win
// by a large factor.
func TestSmallTilesWinHeat3D(t *testing.T) {
	g := arch.GA100()
	def := Simulate(compile(t, "heat-3d", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil), g)
	small := Simulate(compile(t, "heat-3d", map[string]int64{"i": 4, "j": 8, "k": 64}, g, nil), g)
	speedup := def.TimeSec / small.TimeSec
	if speedup < 1.4 {
		t.Fatalf("small-tile heat-3d speedup %.2f, want >= 1.4", speedup)
	}
	if small.EnergyJ >= def.EnergyJ {
		t.Fatalf("small-tile energy %.2f should beat default %.2f", small.EnergyJ, def.EnergyJ)
	}
}

func TestStencilLaunchesCounted(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "jacobi-2d", map[string]int64{"i": 32, "j": 32}, g,
		map[string]int64{"N": 1000, "T": 10})
	r := Simulate(mk, g)
	for _, nr := range r.Nests {
		if nr.Launches != 10 {
			t.Fatalf("nest %s launches = %d, want 10", nr.Name, nr.Launches)
		}
		if nr.TimeSec < 10*g.LaunchOverhead {
			t.Fatal("launch overhead not accounted")
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := arch.GA100()
	a := Simulate(compile(t, "2mm", map[string]int64{"i": 16, "j": 64, "k": 32}, g, nil), g)
	b := Simulate(compile(t, "2mm", map[string]int64{"i": 16, "j": 64, "k": 32}, g, nil), g)
	if a.TimeSec != b.TimeSec || a.EnergyJ != b.EnergyJ || a.L2Sectors != b.L2Sectors {
		t.Fatal("simulation is not deterministic")
	}
}

func TestUnionElemsHaloNotMultiplied(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "jacobi-2d", map[string]int64{"i": 32, "j": 32}, g, nil)
	occ := ComputeOccupancy(mk.Nests[0], g)
	tr := ComputeTraffic(mk.Nests[0], g, occ)
	// A's 5 offset references must union to one (Ti+2)x(Tj+2) tile, so
	// per-block distinct bytes stay near 2 tiles (A read + B write), far
	// below 6 tiles.
	perBlock := tr.DRAMBytes / mk.Nests[0].TotalBlocks
	if perBlock > 4*34*34*8 {
		t.Fatalf("per-block DRAM %d suggests stencil refs are multiply-counted", perBlock)
	}
}

// TestTimeTilingExtension: fusing stencil time steps (the inter-step reuse
// PPCG lacks) must cut DRAM traffic and total energy while keeping results
// physical.
func TestTimeTilingExtension(t *testing.T) {
	g := arch.GA100()
	k := affine.MustLookup("jacobi-2d")
	tiles := map[string]int64{"i": 32, "j": 64}

	base, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, g, codegen.Options{Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, g, codegen.Options{Precision: affine.FP64})
	if err != nil {
		t.Fatal(err)
	}
	fusedAny := false
	for _, mn := range fused.Nests {
		// The pure-copy nest has no halo and keeps per-step launches,
		// exactly like the library facade's best-effort behavior.
		if err := mn.ApplyTimeTiling(4); err == nil {
			fusedAny = true
		}
	}
	if !fusedAny {
		t.Fatal("no nest accepted time tiling")
	}

	rBase := Simulate(base, g)
	rFused := Simulate(fused, g)
	if rFused.DRAMBytes >= rBase.DRAMBytes {
		t.Fatalf("time tiling DRAM %d should be below baseline %d",
			rFused.DRAMBytes, rBase.DRAMBytes)
	}
	if rFused.EnergyJ >= rBase.EnergyJ {
		t.Fatalf("time tiling energy %.2f should beat baseline %.2f",
			rFused.EnergyJ, rBase.EnergyJ)
	}
	// Useful flops (excluding halo redundancy) are unchanged, so the
	// fused version must not report fewer flops than the baseline.
	if rFused.Flops < rBase.Flops {
		t.Fatal("fused flops below baseline (lost work)")
	}
}

// TestRegisterTilingExtension: micro-tiles must relieve the SM-local pipe
// (the PPCG bottleneck) and raise throughput at moderate r, then collapse
// at large r when register pressure cuts occupancy.
func TestRegisterTilingExtension(t *testing.T) {
	g := arch.GA100()
	k := affine.MustLookup("gemm")
	tiles := map[string]int64{"i": 64, "j": 64, "k": 16}
	run := func(r int64) Result {
		mk, err := codegen.MapKernelReuse(context.Background(), k, nil, nil, tiles, g,
			codegen.Options{UseShared: true, Precision: affine.FP64})
		if err != nil {
			t.Fatal(err)
		}
		if r > 1 {
			for _, mn := range mk.Nests {
				if err := mn.ApplyRegisterTiling(r, g.RegsPerThread); err != nil {
					t.Fatal(err)
				}
			}
		}
		return Simulate(mk, g)
	}
	base := run(1)
	r2 := run(2)
	r8 := run(8)
	if r2.GFLOPS <= base.GFLOPS*1.5 {
		t.Fatalf("r=2 micro-tile gives %.0f GF vs base %.0f: expected a large win",
			r2.GFLOPS, base.GFLOPS)
	}
	if r8.GFLOPS >= r2.GFLOPS {
		t.Fatalf("r=8 (%.0f GF) should collapse below r=2 (%.0f GF) from register pressure",
			r8.GFLOPS, r2.GFLOPS)
	}
}

func TestResultPowerBreakdownConsistent(t *testing.T) {
	g := arch.GA100()
	mk := compile(t, "gemm", map[string]int64{"i": 32, "j": 32, "k": 32}, g, nil)
	r := Simulate(mk, g)
	if diff := r.Power.Total() - r.AvgPowerW; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("breakdown total %.3f != avg power %.3f", r.Power.Total(), r.AvgPowerW)
	}
	// The liveness component must be present for gemm (thread-private
	// B-column chunks).
	if r.Power.DynLive <= 0 {
		t.Fatal("liveness power component missing")
	}
}
