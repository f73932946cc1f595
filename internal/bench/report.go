package bench

import (
	"fmt"
	"io"
	"time"

	eatss "repro"

	"repro/internal/arch"
)

// Report runs the complete evaluation and writes a Markdown reproduction
// report: for each paper artifact, the measured headline numbers and a
// pass/fail verdict on its shape criteria. This is the machine-generated
// counterpart of the hand-written EXPERIMENTS.md. The returned count is
// the number of DEVIATION verdicts, so callers (cmd/report, CI) can turn
// a drifted reproduction into a non-zero exit.
func Report(w io.Writer) (deviations int, err error) {
	start := time.Now()
	ga := arch.GA100()
	xv := arch.Xavier()

	type check struct {
		name    string
		ok      bool
		measure string
	}
	var checks []check
	add := func(name string, ok bool, format string, args ...interface{}) {
		checks = append(checks, check{name, ok, fmt.Sprintf(format, args...)})
	}

	fmt.Fprintf(w, "# Reproduction report\n\ngenerated by `cmd/report`; all numbers from the simulated testbed\n\n")

	// Worked example: the exact Sec. IV-A configuration (50% split,
	// warp-alignment 16, FP64) must reproduce the paper's solution.
	{
		sel, err := eatss.SelectTiles(eatss.MustKernel("gemm"), ga, eatss.DefaultOptions())
		ok := err == nil && sel.Tiles["i"] == 16 && sel.Tiles["j"] == 384 && sel.Tiles["k"] == 16
		measured := "solver error"
		if err == nil {
			measured = fmt.Sprintf("Ti=%d Tj=%d Tk=%d (paper: 16/384/16)",
				sel.Tiles["i"], sel.Tiles["j"], sel.Tiles["k"])
		}
		add("Sec. IV-A worked example exact", ok, "%s", measured)
	}

	// Fig. 1.
	{
		f := Fig1(ga, nil)
		first, last := f.Rows[0], f.Rows[len(f.Rows)-1]
		add("Fig. 1 regime change", first.DynamicW < first.ConstStaticW && last.DynamicW > last.ConstStaticW,
			"N=%d: dyn %.1fW vs floor %.1fW; N=%d: dyn %.1fW",
			first.N, first.DynamicW, first.ConstStaticW, last.N, last.DynamicW)
		add("Fig. 1 saturation below TDP", last.TotalW < ga.TDPWatts,
			"N=%d total %.1fW (TDP %.0fW)", last.N, last.TotalW, ga.TDPWatts)
	}

	// Fig. 2.
	{
		f := Fig2("2mm", ga)
		add("Fig. 2 space size", len(f.Variants) == 3375, "%d variants", len(f.Variants))
		add("Fig. 2 perf headroom", f.BestPerf.Result.GFLOPS > 1.1*f.Default.Result.GFLOPS,
			"best %.0f GF vs default %.0f GF", f.BestPerf.Result.GFLOPS, f.Default.Result.GFLOPS)
		add("Fig. 2 energy headroom", f.BestEnergy.Result.EnergyJ < 0.95*f.Default.Result.EnergyJ,
			"best %.2f J vs default %.2f J", f.BestEnergy.Result.EnergyJ, f.Default.Result.EnergyJ)
	}

	// Fig. 7 on both GPUs.
	var gaPPW, xvPPW float64
	{
		f := Fig7(ga, nil)
		gaPPW = f.MedianPPWX
		add("Fig. 7a median PPW gain (GA100)", f.MedianPPWX > 1.0, "%.2fx (paper 1.5x)", f.MedianPPWX)
		fx := Fig7(xv, nil)
		xvPPW = fx.MedianPPWX
		add("Fig. 7b median PPW ratio (Xavier)", fx.MedianPPWX > 0.95, "%.2fx (paper 1.2x)", fx.MedianPPWX)
		add("GA100 gains exceed Xavier gains", gaPPW > xvPPW, "%.2f vs %.2f", gaPPW, xvPPW)
	}

	// Fig. 8.
	{
		f := Fig8(ga, []string{"gemm", "mvt"}, nil)
		best, _ := f.BestSplit("gemm")
		add("Fig. 8 best gemm split is not 100%", best > 0 && best < 1.0, "best split %.2f", best)
	}

	// Fig. 9.
	{
		f := Fig9(ga, nil)
		r2, _ := f.RowFor("2mm")
		rg, _ := f.RowFor("gemm")
		rj, _ := f.RowFor("jacobi-2d")
		rm, _ := f.RowFor("mvt")
		blas3 := r2.PearsonR
		if rg.PearsonR < blas3 {
			blas3 = rg.PearsonR
		}
		add("Fig. 9 BLAS3 correlates, O(1) does not",
			blas3 > rj.PearsonR && blas3 > rm.PearsonR,
			"2mm %.2f gemm %.2f | jacobi-2d %.2f mvt %.2f (paper 0.85/0.75 | low)",
			r2.PearsonR, rg.PearsonR, rj.PearsonR, rm.PearsonR)
	}

	// Fig. 10.
	{
		f := Fig10(ga)
		okAll := len(f.Rows) == 3
		detail := ""
		for _, r := range f.Rows {
			okAll = okAll && r.Speedup >= 1.0 && r.EnergyNorm <= 1.0
			detail += fmt.Sprintf("%s %.2fx/%.2fx ", r.Kernel, r.Speedup, r.EnergyNorm)
		}
		add("Fig. 10 non-Polybench wins", okAll, "%s(paper 4.8x/6.3x/2.0x)", detail)
	}

	// Table IV.
	{
		t4 := Table4()
		gaCol, xvCol := t4.Cols[0], t4.Cols[1]
		add("Table IV EATSS beats PPCG median",
			gaCol.OurPPW > gaCol.PPCGMedPPW && xvCol.OurPPW > xvCol.PPCGMedPPW,
			"GA100 %.1f vs %.1f; Xavier %.2f vs %.2f",
			gaCol.OurPPW, gaCol.PPCGMedPPW, xvCol.OurPPW, xvCol.PPCGMedPPW)
		add("Table IV Xavier-vs-GA100 contrast",
			xvCol.OurPPW/xvCol.CuXXPPW > gaCol.OurPPW/gaCol.CuXXPPW,
			"EATSS/cuXX PPW ratio: Xavier %.2f > GA100 %.2f",
			xvCol.OurPPW/xvCol.CuXXPPW, gaCol.OurPPW/gaCol.CuXXPPW)
	}

	// Fig. 14.
	{
		f := Fig14(nil, []string{"gemm", "heat-3d"})
		okAll := len(f.Rows) == 2
		detail := ""
		for _, r := range f.Rows {
			okAll = okAll && r.Speedup > 1.0 && r.YtoptTuneSec > 60 && r.EATSSTuneSec < 10
			detail += fmt.Sprintf("%s %.2fx (%.0fs vs %.3fs) ", r.Kernel, r.Speedup, r.YtoptTuneSec, r.EATSSTuneSec)
		}
		add("Fig. 14 beats ytopt in seconds", okAll, "%s", detail)
	}

	// Sec. V-G.
	{
		f := SecVG(ga)
		add("Sec. V-G small iterative call counts", f.OverallAvgCalls >= 2 && f.OverallAvgCalls <= 30,
			"%.1f calls, %v avg end-to-end (paper: 4-7 calls, 1.3s with Z3)",
			f.OverallAvgCalls, f.OverallAvgTime.Round(time.Microsecond))
	}

	// Extensions.
	{
		tt := TimeTilingStudy(ga, []string{"jacobi-2d"}, []int64{4})
		ok := false
		for _, r := range tt.Rows {
			if r.Feasible && r.EnergyNorm < 1 && r.DRAMNorm < 1 {
				ok = true
				add("Extension: time tiling saves energy", true,
					"jacobi-2d fuse=4: energy %.2fx, DRAM %.2fx", r.EnergyNorm, r.DRAMNorm)
			}
		}
		if !ok {
			add("Extension: time tiling saves energy", false, "no feasible fusion")
		}

		rt := RegTileStudy(ga, []string{"gemm"}, []int64{2, 8})
		var r1, r2, r8 RegTileRow
		for _, r := range rt.RowsForKernel("gemm") {
			switch r.R {
			case 1:
				r1 = r
			case 2:
				r2 = r
			case 8:
				r8 = r
			}
		}
		add("Extension: register micro-tiles rise then collapse",
			r2.GFLOPS > r1.GFLOPS && r8.GFLOPS < r2.GFLOPS,
			"r=1 %.0f, r=2 %.0f, r=8 %.0f GF", r1.GFLOPS, r2.GFLOPS, r8.GFLOPS)
	}

	// Emit.
	passed := 0
	fmt.Fprintf(w, "| # | check | status | measured |\n|---|---|---|---|\n")
	for i, c := range checks {
		status := "PASS"
		if c.ok {
			passed++
		} else {
			status = "DEVIATION"
		}
		fmt.Fprintf(w, "| %d | %s | %s | %s |\n", i+1, c.name, status, c.measure)
	}
	fmt.Fprintf(w, "\n**%d/%d shape checks pass** (deviations are documented in EXPERIMENTS.md). Full run: %v.\n",
		passed, len(checks), time.Since(start).Round(time.Millisecond))
	return len(checks) - passed, nil
}
