package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/sweep"
)

// Fig1Row is one problem size of the gemm power sweep.
type Fig1Row struct {
	N int64
	// ConstStaticW is the size-independent floor (constant + static).
	ConstStaticW float64
	// DynamicW is the activity-dependent component.
	DynamicW float64
	// TotalW is the observed average power.
	TotalW float64
	GFLOPS float64
}

// Fig1Result reproduces Fig. 1: power consumption of the gemm kernel
// across increasing problem sizes, decomposed into constant+static and
// dynamic components. The expected shape: at small sizes the floor
// dominates; as M, N, K grow the dynamic component takes over and total
// power saturates toward (but below) TDP.
type Fig1Result struct {
	GPU  string
	Rows []Fig1Row
}

// Fig1 runs the sweep on g with PPCG default tiles. The per-size
// evaluations are independent and run on the shared worker pool; rows
// keep the input sizes' order.
func Fig1(g *arch.GPU, sizes []int64) *Fig1Result {
	if len(sizes) == 0 {
		sizes = []int64{1000, 2000, 3000, 4000, 5000, 6000}
	}
	k := affine.MustLookup("gemm")
	out := &Fig1Result{GPU: g.Name}
	type sized struct {
		res eatss.Result
		ok  bool
	}
	rows, done, _ := sweep.Map(context.Background(), 0, sizes,
		func(ctx context.Context, _ int, n int64) sized {
			prog, err := eatss.AnalyzeCtx(ctx, k, map[string]int64{"NI": n, "NJ": n, "NK": n})
			if err != nil {
				return sized{}
			}
			res, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{
				UseShared: true, Precision: eatss.FP64,
			})
			return sized{res: res, ok: err == nil}
		})
	floor := g.ConstantWatts + g.StaticWatts
	for i, r := range rows {
		if !done[i] || !r.ok {
			continue
		}
		out.Rows = append(out.Rows, Fig1Row{
			N:            sizes[i],
			ConstStaticW: floor,
			DynamicW:     r.res.AvgPowerW - floor,
			TotalW:       r.res.AvgPowerW,
			GFLOPS:       r.res.GFLOPS,
		})
	}
	return out
}

// Render prints the figure as a table.
func (f *Fig1Result) Render() string {
	t := NewTable("Fig. 1: gemm power vs problem size ("+f.GPU+")",
		"N=M=K", "const+static (W)", "dynamic (W)", "total (W)", "GFLOP/s")
	for _, r := range f.Rows {
		t.AddRow(r.N, r.ConstStaticW, r.DynamicW, r.TotalW, r.GFLOPS)
	}
	return t.String()
}
