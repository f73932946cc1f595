package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// Fig8Row is one (kernel, shared-memory split) measurement: EATSS under
// that split, normalized to default PPCG with the same shared budget.
type Fig8Row struct {
	Kernel     string
	SharedFrac float64
	Speedup    float64 // > 1 is better
	EnergyNorm float64 // < 1 is better
	Feasible   bool
}

// Fig8Result reproduces Fig. 8: the impact of shared-memory quotas.
// The paper's observation: 100% shared memory is not always best — BLAS3
// kernels like more shared memory, low-dimensional kernels (mvt) often
// prefer 0% or 50%.
type Fig8Result struct {
	GPU    string
	Splits []float64
	Rows   []Fig8Row
}

// Fig8 sweeps shared-memory splits for the kernels (nil = a representative
// set) on g.
func Fig8(g *arch.GPU, kernels []string, splits []float64) *Fig8Result {
	if kernels == nil {
		kernels = []string{"gemm", "2mm", "3mm", "mvt", "jacobi-2d", "covariance"}
	}
	if splits == nil {
		splits = []float64{0.0, 0.5, 0.67, 1.0}
	}
	ctx := context.Background()
	out := &Fig8Result{GPU: g.Name, Splits: splits}
	for _, name := range kernels {
		k := affine.MustLookup(name)
		prog := mustAnalyze(k, ParamsFor(name, g))
		for _, split := range splits {
			row := Fig8Row{Kernel: name, SharedFrac: split}
			// Default PPCG under the same shared-memory budget.
			quota := int64(split * float64(g.SharedPerBlock))
			useShared := split > 0
			cfg := eatss.RunConfig{UseShared: useShared, SharedQuota: quota, Precision: eatss.FP64}
			def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), cfg)
			if err != nil {
				out.Rows = append(out.Rows, row)
				continue
			}
			// EATSS configuration for this split (with warp-fraction
			// fallback for high-dimensional kernels).
			sel, err := prog.SelectSplit(ctx, g, split, eatss.FP64)
			if err != nil {
				out.Rows = append(out.Rows, row)
				continue
			}
			res, _, err := prog.RunCtx(ctx, g, sel.Tiles, cfg)
			if err != nil {
				out.Rows = append(out.Rows, row)
				continue
			}
			row.Feasible = true
			row.Speedup = def.TimeSec / res.TimeSec
			row.EnergyNorm = res.EnergyJ / def.EnergyJ
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// BestSplit returns the split with the highest speedup for a kernel.
func (f *Fig8Result) BestSplit(kernel string) (float64, bool) {
	best, found := 0.0, false
	bestSpeed := 0.0
	for _, r := range f.Rows {
		if r.Kernel == kernel && r.Feasible && r.Speedup > bestSpeed {
			best, bestSpeed, found = r.SharedFrac, r.Speedup, true
		}
	}
	return best, found
}

// Render prints the split study.
func (f *Fig8Result) Render() string {
	t := NewTable("Fig. 8: EATSS under shared-memory splits ("+f.GPU+"), normalized to default PPCG",
		"kernel", "split", "speedup (>1 better)", "energy (<1 better)")
	for _, r := range f.Rows {
		if !r.Feasible {
			t.AddRow(r.Kernel, r.SharedFrac, "infeasible", "-")
			continue
		}
		t.AddRow(r.Kernel, r.SharedFrac, r.Speedup, r.EnergyNorm)
	}
	return t.String()
}
