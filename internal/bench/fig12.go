package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// Fig12Row is one (kernel, problem size) measurement for both EATSS and
// default PPCG.
type Fig12Row struct {
	Kernel string
	N      int64

	EATSSGF, EATSSW, EATSSPPW float64
	DefGF, DefW, DefPPW       float64
}

// Fig12Result reproduces the input-size sensitivity studies: Fig. 12
// (2mm, gemm, mvt, fdtd-2d) and — with the non-Polybench kernel set —
// Fig. 13 (conv-2d, heat-3d, mttkrp). EATSS uses its best tile
// configuration; PPCG the default, as in the paper (no per-size
// autotuning).
type Fig12Result struct {
	Title string
	GPU   string
	Rows  []Fig12Row
}

// sizeParams builds the parameter override scaling a kernel to size n.
func sizeParams(k *affine.Kernel, n int64) map[string]int64 {
	params := make(map[string]int64, len(k.Params))
	for name, v := range k.Params {
		switch name {
		case "T":
			params[name] = v // time steps stay fixed
		case "KW":
			params[name] = v // convolution window stays fixed
		default:
			params[name] = n
		}
	}
	return params
}

// Fig12 sweeps problem sizes for the Polybench sensitivity study.
func Fig12(g *arch.GPU, kernels []string, sizes []int64) *Fig12Result {
	if kernels == nil {
		kernels = []string{"2mm", "gemm", "mvt", "fdtd-2d"}
	}
	if sizes == nil {
		sizes = []int64{1000, 2000, 3000, 4000, 5000, 6000}
	}
	return sizeSweep("Fig. 12", g, kernels, sizes)
}

// Fig13 sweeps problem sizes for the non-Polybench kernels.
func Fig13(g *arch.GPU, sizes map[string][]int64) *Fig12Result {
	if sizes == nil {
		sizes = map[string][]int64{
			"conv-2d": {1024, 2048, 4096, 8192},
			"heat-3d": {100, 150, 200, 300},
			"mttkrp":  {64, 128, 256, 384},
		}
	}
	out := &Fig12Result{Title: "Fig. 13", GPU: g.Name}
	for _, name := range []string{"conv-2d", "heat-3d", "mttkrp"} {
		sw := sizeSweep("Fig. 13", g, []string{name}, sizes[name])
		out.Rows = append(out.Rows, sw.Rows...)
	}
	return out
}

func sizeSweep(title string, g *arch.GPU, kernels []string, sizes []int64) *Fig12Result {
	ctx := context.Background()
	out := &Fig12Result{Title: title, GPU: g.Name}
	for _, name := range kernels {
		k := affine.MustLookup(name)
		prog := mustAnalyze(k, ParamsFor(name, g))
		// One EATSS configuration chosen at the default size, reused
		// across the sweep (the paper fixes the best tile size): each
		// size overrides the Program's problem sizes per evaluation.
		best, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
		if err != nil {
			continue
		}
		tiles := best.Chosen.Selection.Tiles
		useShared := best.Chosen.SharedFrac > 0
		for _, n := range sizes {
			params := sizeParams(k, n)
			e, _, err1 := prog.RunCtx(ctx, g, tiles, eatss.RunConfig{
				Params: params, UseShared: useShared, Precision: eatss.FP64,
			})
			d, _, err2 := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{
				Params: params, UseShared: true, Precision: eatss.FP64,
			})
			if err1 != nil || err2 != nil {
				continue
			}
			out.Rows = append(out.Rows, Fig12Row{
				Kernel: name, N: n,
				EATSSGF: e.GFLOPS, EATSSW: e.AvgPowerW, EATSSPPW: e.PPW,
				DefGF: d.GFLOPS, DefW: d.AvgPowerW, DefPPW: d.PPW,
			})
		}
	}
	return out
}

// Render prints the sweep.
func (f *Fig12Result) Render() string {
	t := NewTable(f.Title+": performance and power vs input size ("+f.GPU+")",
		"kernel", "N", "EATSS GF", "EATSS W", "EATSS PPW", "Def GF", "Def W", "Def PPW")
	for _, r := range f.Rows {
		t.AddRow(r.Kernel, r.N, r.EATSSGF, r.EATSSW, r.EATSSPPW, r.DefGF, r.DefW, r.DefPPW)
	}
	return t.String()
}
