package bench

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

// These tests assert the *shapes* each experiment must reproduce from the
// paper — who wins, in which direction, where regimes change — not
// absolute numbers (the substrate is a simulator, not the authors'
// testbed). See EXPERIMENTS.md for the paper-vs-measured record.

func TestFig1Shape(t *testing.T) {
	f := Fig1(arch.GA100(), nil)
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	first, last := f.Rows[0], f.Rows[len(f.Rows)-1]
	// Small sizes: constant+static dominates the total.
	if first.DynamicW > first.ConstStaticW {
		t.Errorf("at N=%d dynamic %.1f should be below floor %.1f",
			first.N, first.DynamicW, first.ConstStaticW)
	}
	// Large sizes: dynamic dominates.
	if last.DynamicW < last.ConstStaticW {
		t.Errorf("at N=%d dynamic %.1f should exceed floor %.1f",
			last.N, last.DynamicW, last.ConstStaticW)
	}
	// Power grows monotonically (within tolerance) and saturates under
	// TDP.
	for i := 1; i < len(f.Rows); i++ {
		if f.Rows[i].TotalW < f.Rows[i-1].TotalW*0.97 {
			t.Errorf("power drops at N=%d", f.Rows[i].N)
		}
	}
	if last.TotalW > arch.GA100().TDPWatts {
		t.Errorf("power %.1f exceeds TDP", last.TotalW)
	}
	if !strings.Contains(f.Render(), "Fig. 1") {
		t.Error("render missing title")
	}
}

func TestFig2Space(t *testing.T) {
	f := Fig2("2mm", arch.GA100())
	if len(f.Variants) != 3375 {
		t.Fatalf("2mm space = %d variants, want 3375 (15^3)", len(f.Variants))
	}
	// There must be meaningful headroom above the default (the paper's
	// motivation: both performance and energy left on the table).
	if f.BestPerf.Result.GFLOPS <= f.Default.Result.GFLOPS*1.1 {
		t.Error("no performance headroom over default")
	}
	if f.BestEnergy.Result.EnergyJ >= f.Default.Result.EnergyJ*0.95 {
		t.Error("no energy headroom over default")
	}
	// Orderings are consistent.
	byPerf := f.SortedByPerf()
	if byPerf[0].Result.GFLOPS < byPerf[len(byPerf)-1].Result.GFLOPS {
		t.Error("perf sort broken")
	}
	byEn := f.SortedByEnergy()
	if byEn[0].Result.EnergyJ > byEn[len(byEn)-1].Result.EnergyJ {
		t.Error("energy sort broken")
	}
	if !strings.Contains(f.Render(), "variants") {
		t.Error("render incomplete")
	}
}

func TestFig7MedianImprovement(t *testing.T) {
	// Subset for test speed; the full run is exercised by the benchmark
	// harness. The median PPW improvement must be positive on both GPUs
	// and larger on the GA100 than on the Xavier (paper: 1.5x vs 1.2x).
	kernels := []string{"gemm", "2mm", "covariance", "mvt", "jacobi-2d"}
	ga := Fig7(arch.GA100(), kernels)
	xv := Fig7(arch.Xavier(), kernels)
	if ga.MedianPPWX <= 1.0 {
		t.Fatalf("GA100 median PPW improvement = %.2f, want > 1", ga.MedianPPWX)
	}
	if xv.MedianPPWX <= 0.95 {
		t.Fatalf("Xavier median PPW ratio = %.2f, want ~>= 1", xv.MedianPPWX)
	}
	if ga.MedianPPWX < xv.MedianPPWX {
		t.Errorf("GA100 gain (%.2f) should exceed Xavier gain (%.2f)",
			ga.MedianPPWX, xv.MedianPPWX)
	}
	for _, r := range ga.Rows {
		if r.BestPPCGGF < r.MedPPCGGF {
			t.Errorf("%s: best PPCG below median", r.Kernel)
		}
	}
	if !strings.Contains(ga.Render(), "Fig. 7") {
		t.Error("render incomplete")
	}
}

func TestFig8SplitStudy(t *testing.T) {
	f := Fig8(arch.GA100(), []string{"gemm", "mvt"}, nil)
	if len(f.Rows) != 8 {
		t.Fatalf("rows = %d, want 2 kernels x 4 splits", len(f.Rows))
	}
	// gemm (BLAS3) must have a feasible best split; the paper's claim is
	// that the best split is kernel-dependent and not always 100%.
	if _, ok := f.BestSplit("gemm"); !ok {
		t.Fatal("no feasible gemm split")
	}
	feasible := 0
	for _, r := range f.Rows {
		if r.Feasible {
			feasible++
			if r.Speedup <= 0 || r.EnergyNorm <= 0 {
				t.Errorf("%s split %.2f: degenerate ratios", r.Kernel, r.SharedFrac)
			}
		}
	}
	if feasible < 4 {
		t.Fatalf("only %d feasible rows", feasible)
	}
}

func TestFig9CorrelationOrdering(t *testing.T) {
	f := Fig9(arch.GA100(), nil)
	get := func(k string) float64 {
		r, ok := f.RowFor(k)
		if !ok {
			t.Fatalf("missing row %s", k)
		}
		return r.PearsonR
	}
	// The paper's finding: BLAS3-class kernels correlate strongly;
	// O(1)-reuse kernels do not. Require the BLAS3 minimum to exceed
	// the O(1) kernels.
	blas3 := get("gemm")
	if b := get("2mm"); b < blas3 {
		blas3 = b
	}
	if blas3 < 0.4 {
		t.Errorf("BLAS3 correlation too weak: %.2f", blas3)
	}
	for _, k := range []string{"jacobi-2d", "mvt"} {
		if r := get(k); r > blas3 {
			t.Errorf("%s correlation %.2f should be below BLAS3 %.2f", k, r, blas3)
		}
	}
	for _, r := range f.Rows {
		if r.Variants < 200 {
			t.Errorf("%s: only %d variants (paper uses 700+ total)", r.Kernel, r.Variants)
		}
	}
}

func TestFig10NonPolybenchWins(t *testing.T) {
	f := Fig10(arch.GA100())
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.Speedup < 1.0 {
			t.Errorf("%s: EATSS slower than default (%.2fx)", r.Kernel, r.Speedup)
		}
		if r.EnergyNorm > 1.0 {
			t.Errorf("%s: EATSS uses more energy (%.2fx)", r.Kernel, r.EnergyNorm)
		}
	}
	// heat-3d and mttkrp must show the paper's large-factor wins.
	for _, k := range []string{"heat-3d", "mttkrp"} {
		r, ok := f.RowFor(k)
		if !ok {
			t.Fatalf("missing %s", k)
		}
		if r.Speedup < 1.3 {
			t.Errorf("%s speedup %.2f, want a large-factor win", k, r.Speedup)
		}
	}
}

func TestFig11Histograms(t *testing.T) {
	f := Fig11(arch.GA100())
	if len(f.Kernels) != 3 {
		t.Fatalf("kernels = %d", len(f.Kernels))
	}
	for _, fk := range f.Kernels {
		if fk.N < 100 {
			t.Errorf("%s: space too small (%d)", fk.Kernel, fk.N)
		}
		if fk.EATSSGF == 0 {
			t.Errorf("%s: EATSS marker missing", fk.Kernel)
		}
		// U must beat the median of the space comfortably.
		if fk.USupport < 0.5 {
			t.Errorf("%s: EATSS beats only %.0f%% of the space", fk.Kernel, 100*fk.USupport)
		}
		total := 0
		for _, row := range fk.Hist.Counts {
			for _, c := range row {
				total += c
			}
		}
		if total != fk.N {
			t.Errorf("%s: histogram holds %d of %d samples", fk.Kernel, total, fk.N)
		}
	}
	if !strings.Contains(f.Render(), "Fig. 11") {
		t.Error("render incomplete")
	}
}

func TestFig12Sensitivity(t *testing.T) {
	f := Fig12(arch.GA100(), []string{"gemm", "mvt"}, []int64{1000, 2000, 4000})
	// Rows come out per kernel in size order.
	var rows, mvt []Fig12Row
	for _, r := range f.Rows {
		switch r.Kernel {
		case "gemm":
			rows = append(rows, r)
		case "mvt":
			mvt = append(mvt, r)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("gemm rows = %d", len(rows))
	}
	// gemm power must grow with size for both configurations (Fig. 1 /
	// Fig. 12 regime change).
	if rows[0].EATSSW >= rows[len(rows)-1].EATSSW {
		t.Error("EATSS gemm power not growing with size")
	}
	if rows[0].DefW >= rows[len(rows)-1].DefW {
		t.Error("default gemm power not growing with size")
	}
	// mvt stays in the static-dominated regime: its power at the largest
	// size remains well below gemm's.
	if len(mvt) == 0 {
		t.Fatal("no mvt rows")
	}
	if mvt[len(mvt)-1].EATSSW > rows[len(rows)-1].EATSSW {
		t.Error("mvt should not computationally saturate the GPU")
	}
}

func TestFig13NonPolybenchSensitivity(t *testing.T) {
	f := Fig13(arch.GA100(), map[string][]int64{
		"conv-2d": {1024, 2048},
		"heat-3d": {100, 150},
		"mttkrp":  {64, 128},
	})
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(f.Rows))
	}
	for _, r := range f.Rows {
		if r.EATSSPPW <= 0 || r.DefPPW <= 0 {
			t.Errorf("%s N=%d: degenerate PPW", r.Kernel, r.N)
		}
	}
}

func TestTable4Structure(t *testing.T) {
	t4 := Table4()
	if len(t4.Cols) != 3 {
		t.Fatalf("cols = %d, want 3 (gemm GA100, gemm Xavier, conv GA100)", len(t4.Cols))
	}
	ga := t4.Cols[0]
	// On the GA100, cuBLAS (tensor cores) must beat PPCG-generated code
	// on raw GFLOP/s by a wide margin.
	if ga.CuXXGF < 2*ga.OurGF {
		t.Errorf("cuBLAS %.0f GF should far exceed EATSS %.0f GF on GA100", ga.CuXXGF, ga.OurGF)
	}
	// EATSS must beat the PPCG median on PPW everywhere.
	for _, c := range t4.Cols {
		if c.OurPPW <= c.PPCGMedPPW {
			t.Errorf("%s/%s: EATSS PPW %.2f should beat PPCG median %.2f",
				c.Description, c.Platform, c.OurPPW, c.PPCGMedPPW)
		}
	}
	// The paper's contrast: EATSS's PPW relative to the vendor library is
	// far stronger on the Xavier (2.1x, no tensor cores) than on the
	// GA100 (0.75x). The absolute Xavier inversion depends on
	// tegrastats' rail-level power accounting, which a module-level
	// power model cannot reproduce (see EXPERIMENTS.md); the relative
	// ordering must still hold.
	xv := t4.Cols[1]
	gaRatio := ga.OurPPW / ga.CuXXPPW
	xvRatio := xv.OurPPW / xv.CuXXPPW
	if xvRatio <= gaRatio {
		t.Errorf("EATSS/cuXX PPW ratio on Xavier (%.2f) should exceed GA100 (%.2f)", xvRatio, gaRatio)
	}
	if !strings.Contains(t4.Render(), "Table IV") {
		t.Error("render incomplete")
	}
}

func TestFig14YtoptComparison(t *testing.T) {
	f := Fig14(nil, []string{"gemm", "heat-3d"})
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, r := range f.Rows {
		// EATSS (native CUDA via PPCG) must beat the OpenMP-offload
		// autotuner result, and its tuning cost must be orders of
		// magnitude smaller (paper: seconds vs 17 minutes).
		if r.Speedup <= 1.0 {
			t.Errorf("%s: EATSS should be faster than ytopt (got %.2fx)", r.Kernel, r.Speedup)
		}
		if r.YtoptTuneSec < 60 {
			t.Errorf("%s: ytopt tuning %.0fs, expected minutes", r.Kernel, r.YtoptTuneSec)
		}
		if r.EATSSTuneSec > 10 {
			t.Errorf("%s: EATSS tuning %.1fs, expected seconds", r.Kernel, r.EATSSTuneSec)
		}
	}
}

func TestSecVGOverhead(t *testing.T) {
	f := SecVG(arch.GA100())
	if len(f.Rows) < 3 {
		t.Fatalf("depth classes = %d", len(f.Rows))
	}
	if f.OverallAvgCalls < 2 || f.OverallAvgCalls > 30 {
		t.Errorf("avg solver calls = %.1f, want a small iterative count", f.OverallAvgCalls)
	}
	// The whole catalog must solve in far less time than the paper's
	// 1.3 s Z3 average.
	if f.OverallAvgTime.Seconds() > 1.3 {
		t.Errorf("avg solve time %v exceeds the paper's Z3 baseline", f.OverallAvgTime)
	}
}

func TestAblations(t *testing.T) {
	g := arch.GA100()

	obj := AblateObjective(g, []string{"gemm"})
	if len(obj.Rows) != 3 {
		t.Fatalf("objective ablation rows = %d", len(obj.Rows))
	}
	full := obj.Rows[0]
	for _, r := range obj.Rows[1:] {
		if full.PPW < r.PPW {
			t.Errorf("full objective PPW %.2f should be >= %s %.2f", full.PPW, r.Variant, r.PPW)
		}
	}

	mem := AblateMemorySplit(g, []string{"gemm"})
	if len(mem.Rows) != 2 {
		t.Fatalf("memory ablation rows = %d", len(mem.Rows))
	}
	if mem.Rows[0].PPW < mem.Rows[1].PPW {
		t.Errorf("shared staging (%.2f PPW) should beat everything-in-L1 (%.2f PPW) for gemm",
			mem.Rows[0].PPW, mem.Rows[1].PPW)
	}

	wf := AblateWarpFraction(g)
	infeasible := 0
	for _, r := range wf.Rows {
		if r.Tiles == "infeasible" {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("warp-fraction ablation should show infeasible coarse-alignment cases (Sec. V-D)")
	}

	fp := AblateFPFactor(g)
	if len(fp.Rows) < 4 {
		t.Fatalf("FP ablation rows = %d", len(fp.Rows))
	}
}

func TestTimeTilingStudy(t *testing.T) {
	f := TimeTilingStudy(arch.GA100(), []string{"jacobi-2d"}, []int64{2, 4})
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	feasible := 0
	for _, r := range f.Rows {
		if !r.Feasible {
			continue
		}
		feasible++
		if r.DRAMNorm >= 1 {
			t.Errorf("fuse %d: DRAM did not drop (%.2f)", r.Fuse, r.DRAMNorm)
		}
		if r.EnergyNorm >= 1 {
			t.Errorf("fuse %d: energy did not drop (%.2f)", r.Fuse, r.EnergyNorm)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible fusion for jacobi-2d with EATSS tiles")
	}
}

func TestRegTileStudy(t *testing.T) {
	f := RegTileStudy(arch.GA100(), []string{"gemm"}, []int64{2, 8})
	rows := f.RowsForKernel("gemm")
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var r1, r2, r8 RegTileRow
	for _, r := range rows {
		switch r.R {
		case 1:
			r1 = r
		case 2:
			r2 = r
		case 8:
			r8 = r
		}
	}
	if !r2.Feasible || r2.GFLOPS <= r1.GFLOPS {
		t.Fatalf("r=2 should win: %+v vs %+v", r2, r1)
	}
	if r8.Feasible && r8.GFLOPS >= r2.GFLOPS {
		t.Fatalf("r=8 should collapse below r=2: %+v", r8)
	}
}

func TestReportAllChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	var buf strings.Builder
	deviations, err := Report(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if deviations != 0 || strings.Contains(out, "DEVIATION") {
		t.Fatalf("report contains %d deviations:\n%s", deviations, out)
	}
	if !strings.Contains(out, "shape checks pass") {
		t.Fatalf("report incomplete:\n%s", out)
	}
}

func TestPrecisionStudy(t *testing.T) {
	f := PrecisionStudy(arch.GA100(), []string{"gemm"})
	if len(f.Rows) != 3 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	byVariant := map[string]AblationRow{}
	for _, r := range f.Rows {
		byVariant[r.Variant] = r
	}
	fp64 := byVariant["FP64 tiles @ FP64"]
	fp32 := byVariant["FP32 tiles @ FP32"]
	cross := byVariant["FP64 tiles @ FP32 (no adaptation)"]
	// FP32 throughput must exceed FP64's (wider pipes, halved traffic).
	if fp32.GFLOPS <= fp64.GFLOPS {
		t.Errorf("FP32 %.0f GF should exceed FP64 %.0f GF", fp32.GFLOPS, fp64.GFLOPS)
	}
	// The adapted model must not lose on throughput, and stay within a
	// few percent on PPW (in the simulator the wider FP32 tile trades a
	// little power for throughput).
	if fp32.GFLOPS < cross.GFLOPS {
		t.Errorf("adapted FP32 %.0f GF below unadapted %.0f GF", fp32.GFLOPS, cross.GFLOPS)
	}
	if fp32.PPW < 0.95*cross.PPW {
		t.Errorf("adapted FP32 PPW %.2f far below unadapted %.2f", fp32.PPW, cross.PPW)
	}
	// The adaptation changes the tiles (capacity doubles in elements).
	if fp32.Tiles == fp64.Tiles {
		t.Errorf("FP32 model chose the same tiles as FP64: %s", fp32.Tiles)
	}
}
