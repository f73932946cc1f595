package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// TimeTilingRow is one (kernel, fuse factor) measurement of the
// time-tiling extension.
type TimeTilingRow struct {
	Kernel     string
	Fuse       int64
	Speedup    float64 // vs the same tiles without fusion (>1 better)
	EnergyNorm float64 // <1 better
	DRAMNorm   float64 // <1 better
	Feasible   bool
}

// TimeTilingResult is the beyond-paper extension study: overlapped time
// tiling on the iterative stencils, quantifying the inter-step reuse the
// paper notes PPCG cannot exploit (Sec. V-B). Expected shape: DRAM traffic
// and energy fall with the fuse factor until halo redundancy and shrinking
// launch counts flatten the curve.
type TimeTilingResult struct {
	GPU  string
	Rows []TimeTilingRow
}

// TimeTilingStudy sweeps fuse factors over the stencil kernels.
func TimeTilingStudy(g *arch.GPU, kernels []string, fuses []int64) *TimeTilingResult {
	if kernels == nil {
		kernels = []string{"jacobi-1d", "jacobi-2d", "heat-3d", "fdtd-2d"}
	}
	if fuses == nil {
		fuses = []int64{2, 4, 8}
	}
	ctx := context.Background()
	out := &TimeTilingResult{GPU: g.Name}
	for _, name := range kernels {
		prog := mustAnalyze(affine.MustLookup(name), ParamsFor(name, g))
		// EATSS tiles (they are wide enough to host trapezoids).
		best, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
		if err != nil {
			continue
		}
		tiles := best.Chosen.Selection.Tiles
		cfg := eatss.RunConfig{
			UseShared: best.Chosen.SharedFrac > 0,
			Precision: eatss.FP64,
		}
		base, _, err := prog.RunCtx(ctx, g, tiles, cfg)
		if err != nil {
			continue
		}
		for _, fuse := range fuses {
			row := TimeTilingRow{Kernel: name, Fuse: fuse}
			fcfg := cfg
			fcfg.TimeTileFuse = fuse
			res, _, err := prog.RunCtx(ctx, g, tiles, fcfg)
			if err == nil && res.DRAMBytes < base.DRAMBytes {
				row.Feasible = true
				row.Speedup = base.TimeSec / res.TimeSec
				row.EnergyNorm = res.EnergyJ / base.EnergyJ
				row.DRAMNorm = float64(res.DRAMBytes) / float64(base.DRAMBytes)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// RowsFor returns the rows of one kernel.
func (f *TimeTilingResult) RowsFor(kernel string) []TimeTilingRow {
	var out []TimeTilingRow
	for _, r := range f.Rows {
		if r.Kernel == kernel {
			out = append(out, r)
		}
	}
	return out
}

// Render prints the extension study.
func (f *TimeTilingResult) Render() string {
	t := NewTable("Extension: overlapped time tiling on stencils ("+f.GPU+"), vs same tiles unfused",
		"kernel", "fuse", "speedup", "energy (<1 better)", "DRAM (<1 better)")
	for _, r := range f.Rows {
		if !r.Feasible {
			t.AddRow(r.Kernel, r.Fuse, "infeasible", "-", "-")
			continue
		}
		t.AddRow(r.Kernel, r.Fuse, r.Speedup, r.EnergyNorm, r.DRAMNorm)
	}
	return t.String()
}

// RegTileRow is one (kernel, micro-tile) measurement.
type RegTileRow struct {
	Kernel   string
	R        int64
	GFLOPS   float64
	PowerW   float64
	PPW      float64
	Speedup  float64 // vs r=1 with the same tiles
	Feasible bool
}

// RegTileResult is the register micro-tiling extension study: throughput
// rises steeply at moderate r (the SM-local pipe bottleneck of
// PPCG-generated code is relieved), then collapses when the accumulator
// footprint cuts occupancy — quantifying the gap between PPCG code and
// vendor libraries (Table IV).
type RegTileResult struct {
	GPU  string
	Rows []RegTileRow
}

// RegTileStudy sweeps micro-tile sizes over BLAS3-class kernels.
func RegTileStudy(g *arch.GPU, kernels []string, rs []int64) *RegTileResult {
	if kernels == nil {
		kernels = []string{"gemm", "2mm", "syrk"}
	}
	if rs == nil {
		rs = []int64{2, 4, 8}
	}
	ctx := context.Background()
	out := &RegTileResult{GPU: g.Name}
	for _, name := range kernels {
		k := affine.MustLookup(name)
		prog := mustAnalyze(k, ParamsFor(name, g))
		// Tiles wide enough along both mapped dims to host micro-tiles.
		tiles := map[string]int64{}
		for _, ln := range loopNamesOf(k) {
			tiles[ln] = 64
		}
		tiles["k"] = 16
		cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
		base, _, err := prog.RunCtx(ctx, g, tiles, cfg)
		if err != nil {
			continue
		}
		out.Rows = append(out.Rows, RegTileRow{
			Kernel: name, R: 1, GFLOPS: base.GFLOPS, PowerW: base.AvgPowerW,
			PPW: base.PPW, Speedup: 1, Feasible: true,
		})
		for _, r := range rs {
			row := RegTileRow{Kernel: name, R: r}
			rcfg := cfg
			rcfg.RegTile = r
			res, _, err := prog.RunCtx(ctx, g, tiles, rcfg)
			if err == nil {
				row.Feasible = true
				row.GFLOPS = res.GFLOPS
				row.PowerW = res.AvgPowerW
				row.PPW = res.PPW
				row.Speedup = base.TimeSec / res.TimeSec
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func loopNamesOf(k *affine.Kernel) []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range k.Nests {
		for _, l := range n.Loops {
			if !seen[l.Name] {
				seen[l.Name] = true
				out = append(out, l.Name)
			}
		}
	}
	return out
}

// RowsForKernel returns the sweep rows of one kernel.
func (f *RegTileResult) RowsForKernel(kernel string) []RegTileRow {
	var out []RegTileRow
	for _, r := range f.Rows {
		if r.Kernel == kernel {
			out = append(out, r)
		}
	}
	return out
}

// Render prints the study.
func (f *RegTileResult) Render() string {
	t := NewTable("Extension: register micro-tiles on BLAS3 kernels ("+f.GPU+")",
		"kernel", "r", "GFLOP/s", "power (W)", "PPW", "speedup vs r=1")
	for _, r := range f.Rows {
		if !r.Feasible {
			t.AddRow(r.Kernel, r.R, "infeasible", "-", "-", "-")
			continue
		}
		t.AddRow(r.Kernel, r.R, r.GFLOPS, r.PowerW, r.PPW, r.Speedup)
	}
	return t.String()
}

// PrecisionRow compares the model's precision awareness on one kernel.
type PrecisionRow struct {
	Kernel string
	// FP64 run with FP64-model tiles.
	FP64GF, FP64PPW float64
	// FP32 run with FP32-model tiles (the adapted model).
	FP32GF, FP32PPW float64
	// FP32 run with FP64-model tiles (ablating the adaptation).
	CrossGF, CrossPPW    float64
	FP64Tiles, FP32Tiles string
}

// PrecisionStudy exercises Sec. IV-I: the model adapts its register and
// capacity budgets to the floating-point width. Running FP32 with the
// FP32-adapted tiles must match or beat running FP32 with tiles chosen by
// the FP64 model (the adaptation ablation), and FP32 throughput roughly
// doubles FP64's.
func PrecisionStudy(g *arch.GPU, kernels []string) *AblationResult {
	if kernels == nil {
		kernels = []string{"gemm", "2mm", "covariance"}
	}
	ctx := context.Background()
	out := &AblationResult{Name: "precision adaptation (Sec. IV-I)", GPU: g.Name}
	for _, name := range kernels {
		prog := mustAnalyze(affine.MustLookup(name), ParamsFor(name, g))
		s64, err64 := prog.SelectSplit(ctx, g, 0.5, affine.FP64)
		s32, err32 := prog.SelectSplit(ctx, g, 0.5, affine.FP32)
		if err64 != nil || err32 != nil {
			continue
		}
		t64, t32 := s64.Tiles, s32.Tiles
		run := func(tiles map[string]int64, prec affine.Precision, label string) {
			res, _, err := prog.RunCtx(ctx, g, tiles, eatss.RunConfig{
				UseShared: true, Precision: prec,
			})
			if err != nil {
				return
			}
			out.Rows = append(out.Rows, AblationRow{
				Kernel: name, Variant: label, Tiles: tilesString(tiles),
				GFLOPS: res.GFLOPS, EnergyJ: res.EnergyJ, PPW: res.PPW,
			})
		}
		run(t64, affine.FP64, "FP64 tiles @ FP64")
		run(t32, affine.FP32, "FP32 tiles @ FP32")
		run(t64, affine.FP32, "FP64 tiles @ FP32 (no adaptation)")
	}
	return out
}
