package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// Fig10Row is one non-Polybench kernel's EATSS-vs-default comparison.
type Fig10Row struct {
	Kernel       string
	WarpFraction float64
	SharedFrac   float64
	Tiles        string
	Speedup      float64 // vs default PPCG with the same shared budget
	EnergyNorm   float64 // < 1 is better
	EATSSGF      float64
	DefGF        float64
}

// Fig10Result reproduces Fig. 10 (with the warp-fraction case study of
// Sec. V-D): conv-2d, heat-3d and mttkrp on the GA100, where the default
// 32^d tiling breaks down (paper: 4.8x, 6.3x and 2.0x speedups with
// matching energy gains). EATSS explores warp fractions
// {0.125, 0.25, 0.5, 1.0} and shared splits {0, 0.5}.
type Fig10Result struct {
	GPU  string
	Rows []Fig10Row
}

// Fig10 runs the non-Polybench study on g.
func Fig10(g *arch.GPU) *Fig10Result {
	ctx := context.Background()
	out := &Fig10Result{GPU: g.Name}
	for _, name := range affine.NonPolybenchNames() {
		k := affine.MustLookup(name)
		prog := mustAnalyze(k, ParamsFor(name, g))

		// Explore the EATSS configuration space of Sec. V-D.
		type cand struct {
			row Fig10Row
			res eatss.Result
		}
		var best *cand
		for _, split := range []float64{0.0, 0.5} {
			for _, wf := range []float64{1.0, 0.5, 0.25, 0.125} {
				opts := eatss.Options{SplitFactor: split, WarpFraction: wf,
					Precision: eatss.FP64, ProblemSizeAware: true}
				sel, err := prog.SelectTiles(g, opts)
				if err != nil {
					continue // infeasible (warp multiple too coarse)
				}
				res, _, err := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{
					UseShared: split > 0, Precision: eatss.FP64,
				})
				if err != nil {
					continue
				}
				c := &cand{
					row: Fig10Row{Kernel: name, WarpFraction: wf, SharedFrac: split,
						Tiles: tilesString(sel.Tiles), EATSSGF: res.GFLOPS},
					res: res,
				}
				if best == nil || c.res.PPW > best.res.PPW {
					best = c
				}
			}
		}
		if best == nil {
			continue
		}
		// Default PPCG with the same shared budget as our best.
		def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{
			UseShared: best.row.SharedFrac > 0, Precision: eatss.FP64,
		})
		if err != nil {
			continue
		}
		best.row.DefGF = def.GFLOPS
		best.row.Speedup = def.TimeSec / best.res.TimeSec
		best.row.EnergyNorm = best.res.EnergyJ / def.EnergyJ
		out.Rows = append(out.Rows, best.row)
	}
	return out
}

// RowFor returns the row of the named kernel.
func (f *Fig10Result) RowFor(kernel string) (Fig10Row, bool) {
	for _, r := range f.Rows {
		if r.Kernel == kernel {
			return r, true
		}
	}
	return Fig10Row{}, false
}

// Render prints the case study.
func (f *Fig10Result) Render() string {
	t := NewTable("Fig. 10: non-Polybench kernels on "+f.GPU+" (EATSS vs default PPCG)",
		"kernel", "warp frac", "shmem", "tiles", "def GF", "EATSS GF",
		"speedup", "energy (<1 better)")
	for _, r := range f.Rows {
		t.AddRow(r.Kernel, r.WarpFraction, r.SharedFrac, r.Tiles,
			r.DefGF, r.EATSSGF, r.Speedup, r.EnergyNorm)
	}
	return t.String()
}
