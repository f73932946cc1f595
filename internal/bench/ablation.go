package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// This file implements the ablation studies DESIGN.md calls out: each
// removes one design decision of the EATSS formulation and measures the
// effect, supporting the paper's claims about why each piece exists.

// AblationRow is one (kernel, variant) outcome.
type AblationRow struct {
	Kernel  string
	Variant string
	Tiles   string
	GFLOPS  float64
	EnergyJ float64
	PPW     float64
}

// AblationResult is a generic ablation table.
type AblationResult struct {
	Name string
	GPU  string
	Rows []AblationRow
}

// Render prints the ablation.
func (a *AblationResult) Render() string {
	t := NewTable("Ablation: "+a.Name+" ("+a.GPU+")",
		"kernel", "variant", "tiles", "GFLOP/s", "energy (J)", "PPW")
	for _, r := range a.Rows {
		t.AddRow(r.Kernel, r.Variant, r.Tiles, r.GFLOPS, r.EnergyJ, r.PPW)
	}
	return t.String()
}

// ablationRun evaluates tiles on prog's kernel under the bench dataset
// for g (ParamsFor), appending the outcome when the tiles map.
func ablationRun(prog *eatss.Program, g *arch.GPU, variant string, tiles map[string]int64, useShared bool, rows *[]AblationRow) {
	kernel := prog.Kernel().Name
	res, _, err := prog.RunCtx(context.Background(), g, tiles, eatss.RunConfig{
		Params: ParamsFor(kernel, g), UseShared: useShared, Precision: eatss.FP64,
	})
	if err != nil {
		return
	}
	*rows = append(*rows, AblationRow{
		Kernel: kernel, Variant: variant, Tiles: tilesString(tiles),
		GFLOPS: res.GFLOPS, EnergyJ: res.EnergyJ, PPW: res.PPW,
	})
}

// AblateObjective compares the full objective (parallelism + weighted
// spatial term, Sec. IV-K) against parallelism-only and locality-only
// variants by re-solving restricted formulations.
func AblateObjective(g *arch.GPU, kernels []string) *AblationResult {
	if kernels == nil {
		kernels = []string{"gemm", "2mm", "jacobi-2d"}
	}
	out := &AblationResult{Name: "objective function (Sec. IV-K)", GPU: g.Name}
	for _, name := range kernels {
		k := affine.MustLookup(name)
		prog := mustAnalyze(k, nil)
		full, err := prog.SelectTiles(g, eatss.DefaultOptions())
		if err != nil {
			continue
		}
		ablationRun(prog, g, "full objective", full.Tiles, true, &out.Rows)

		// Parallelism-only: solve with zeroed spatial weights by
		// maximizing only the block-size product. Approximated by
		// re-solving on a restricted formulation: equalize tiles over
		// the parallel loops of the full solution.
		par := parallelOnlyTiles(k, g, full)
		ablationRun(prog, g, "parallelism-only", par, true, &out.Rows)

		// Locality-only: maximize the serial/spatial tiles and leave
		// the parallel product at its minimum warp-aligned value.
		loc := localityOnlyTiles(k, g, full)
		ablationRun(prog, g, "locality-only", loc, true, &out.Rows)
	}
	return out
}

// parallelOnlyTiles redistributes the full solution's thread budget
// equally over parallel loops, ignoring CMA preferences.
func parallelOnlyTiles(k *affine.Kernel, g *arch.GPU, full *eatss.Selection) map[string]int64 {
	tiles := make(map[string]int64, len(full.Tiles))
	for name, v := range full.Tiles {
		tiles[name] = v
	}
	// Square the block: give every parallel loop the same tile.
	var parallel []string
	for _, nm := range full.Nests {
		parallel = nm.Parallel
		break
	}
	if len(parallel) >= 2 {
		prod := int64(1)
		for _, p := range parallel {
			prod *= tiles[p]
		}
		side := int64(16)
		for side*side < prod {
			side *= 2
		}
		for _, p := range parallel {
			tiles[p] = side
		}
	}
	return tiles
}

// localityOnlyTiles shrinks parallel tiles to one warp fraction and grows
// the serial tiles instead.
func localityOnlyTiles(k *affine.Kernel, g *arch.GPU, full *eatss.Selection) map[string]int64 {
	tiles := make(map[string]int64, len(full.Tiles))
	parallel := map[string]bool{}
	for _, nm := range full.Nests {
		for _, p := range nm.Parallel {
			parallel[p] = true
		}
	}
	for name, v := range full.Tiles {
		if parallel[name] {
			tiles[name] = 16
		} else {
			tiles[name] = v * 8 // inflate intra-thread reuse tiles
		}
	}
	return tiles
}

// AblateMemorySplit compares EATSS's non-CMA-to-shared rule (Sec. IV-E)
// against mapping everything through L1.
func AblateMemorySplit(g *arch.GPU, kernels []string) *AblationResult {
	if kernels == nil {
		kernels = []string{"gemm", "mvt", "covariance"}
	}
	out := &AblationResult{Name: "non-CMA refs to shared memory (Sec. IV-E)", GPU: g.Name}
	for _, name := range kernels {
		prog := mustAnalyze(affine.MustLookup(name), nil)
		sel, err := prog.SelectTiles(g, eatss.DefaultOptions())
		if err != nil {
			continue
		}
		ablationRun(prog, g, "shared staging (paper)", sel.Tiles, true, &out.Rows)
		ablationRun(prog, g, "everything in L1", sel.Tiles, false, &out.Rows)
	}
	return out
}

// AblateWarpFraction measures the warp-alignment knob (Sec. IV-B) on the
// high-dimensional kernels, reproducing the Sec. V-D observation that
// fractions below a full warp are required.
func AblateWarpFraction(g *arch.GPU) *AblationResult {
	out := &AblationResult{Name: "warp alignment factor (Sec. IV-B)", GPU: g.Name}
	for _, name := range affine.NonPolybenchNames() {
		prog := mustAnalyze(affine.MustLookup(name), nil)
		for _, wf := range []float64{1.0, 0.5, 0.25, 0.125} {
			opts := eatss.DefaultOptions()
			opts.WarpFraction = wf
			sel, err := prog.SelectTiles(g, opts)
			if err != nil {
				out.Rows = append(out.Rows, AblationRow{
					Kernel: name, Variant: wfName(wf), Tiles: "infeasible",
				})
				continue
			}
			ablationRun(prog, g, wfName(wf), sel.Tiles, true, &out.Rows)
		}
	}
	return out
}

func wfName(wf float64) string {
	switch wf {
	case 1.0:
		return "warp_frac=1.0 (align 32)"
	case 0.5:
		return "warp_frac=0.5 (align 16)"
	case 0.25:
		return "warp_frac=0.25 (align 8)"
	default:
		return "warp_frac=0.125 (align 4)"
	}
}

// AblateFPFactor checks the register-budget halving for FP64 (Sec. IV-I):
// solving the FP64 model with the FP32 register budget must admit larger
// (infeasible-in-practice) block sizes.
func AblateFPFactor(g *arch.GPU) *AblationResult {
	out := &AblationResult{Name: "FP_factor register scaling (Sec. IV-I)", GPU: g.Name}
	for _, name := range []string{"gemm", "syr2k", "mttkrp"} {
		prog := mustAnalyze(affine.MustLookup(name), nil)
		for _, prec := range []affine.Precision{affine.FP64, affine.FP32} {
			opts := eatss.DefaultOptions()
			opts.Precision = prec
			sel, err := prog.SelectTiles(g, opts)
			if err != nil {
				continue
			}
			// Evaluate both at FP64 to isolate the model's effect.
			res, _, err := prog.RunCtx(context.Background(), g, sel.Tiles, eatss.RunConfig{
				Params: ParamsFor(name, g), UseShared: true, Precision: eatss.FP64,
			})
			if err != nil {
				continue
			}
			variant := "FP64 model (factor 2)"
			if prec == affine.FP32 {
				variant = "FP32-budget model (factor 1)"
			}
			out.Rows = append(out.Rows, AblationRow{
				Kernel: name, Variant: variant, Tiles: tilesString(sel.Tiles),
				GFLOPS: res.GFLOPS, EnergyJ: res.EnergyJ, PPW: res.PPW,
			})
		}
	}
	return out
}
