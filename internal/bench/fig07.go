package bench

import (
	"context"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/sweep"
)

// Fig7Row is one Polybench kernel's comparison on one GPU: the paper's
// left-hand tables of Fig. 7 (Med PPCG / Def PPCG / Best PPCG vs EATSS)
// for performance, energy and performance-per-Watt.
type Fig7Row struct {
	Kernel string

	MedPPCGGF, DefPPCGGF, BestPPCGGF float64
	MedPPCGJ, DefPPCGJ, BestPPCGJ    float64 // best = lowest energy
	MedPPCGPPW, DefPPCGPPW, BestPPW  float64

	EATSSGF, EATSSJ, EATSSPPW float64
	EATSSSharedFrac           float64
	EATSSTiles                string

	// Ratios vs the default configuration.
	PerfRatio, EnergyRatio, PPWRatio float64
}

// Fig7Result reproduces Fig. 7a (GA100) or Fig. 7b (Xavier): the full
// Polybench evaluation. The headline statistic is the median PPW
// improvement over default PPCG (paper: ~1.5x on the GA100, ~1.2x on the
// Xavier).
type Fig7Result struct {
	GPU          string
	Rows         []Fig7Row
	MedianPPWX   float64
	MedianPerfX  float64
	MedianEnergy float64 // median energy ratio (lower is better)
}

// Fig7 runs the study for the given kernels (nil = all Polybench). Each
// kernel's full pipeline (tile-space sweep + EATSS protocol) is
// independent of the others', so kernels fan out across the worker pool;
// rows and the median summaries keep the input kernel order, making the
// parallel figure identical to the sequential one.
func Fig7(g *arch.GPU, kernels []string) *Fig7Result {
	if kernels == nil {
		kernels = affine.PolybenchNames()
	}
	out := &Fig7Result{GPU: g.Name}
	var ppwXs, perfXs, enXs []float64
	type fig7Out struct {
		row Fig7Row
		ok  bool
	}
	results, doneIdx, _ := sweep.Map(context.Background(), Workers, kernels,
		func(_ context.Context, _ int, name string) fig7Out {
			params := ParamsFor(name, g)
			variants, def := Explore(name, g, params, true, false)
			if len(variants) == 0 || def.TimeSec == 0 {
				return fig7Out{}
			}
			best, err := RunEATSS(name, g, params)
			if err != nil {
				return fig7Out{}
			}
			return fig7Out{row: fig7Row(name, variants, def, best), ok: true}
		})
	for i, r := range results {
		if !doneIdx[i] || !r.ok {
			continue
		}
		out.Rows = append(out.Rows, r.row)
		ppwXs = append(ppwXs, r.row.PPWRatio)
		perfXs = append(perfXs, r.row.PerfRatio)
		enXs = append(enXs, r.row.EnergyRatio)
	}
	out.MedianPPWX = Median(ppwXs)
	out.MedianPerfX = Median(perfXs)
	out.MedianEnergy = Median(enXs)
	return out
}

// fig7Row assembles one kernel's comparison row from its sweep and
// EATSS outcomes.
func fig7Row(name string, variants []eatss.SpacePoint, def eatss.Result, best *eatss.Best) Fig7Row {
	e := best.Chosen.Result
	return Fig7Row{
		Kernel:          name,
		MedPPCGGF:       Median(perfOf(variants)),
		DefPPCGGF:       def.GFLOPS,
		BestPPCGGF:      bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.GFLOPS }, true).Result.GFLOPS,
		MedPPCGJ:        Median(energyOf(variants)),
		DefPPCGJ:        def.EnergyJ,
		BestPPCGJ:       bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.EnergyJ }, false).Result.EnergyJ,
		MedPPCGPPW:      Median(ppwOf(variants)),
		DefPPCGPPW:      def.PPW,
		BestPPW:         bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.PPW }, true).Result.PPW,
		EATSSGF:         e.GFLOPS,
		EATSSJ:          e.EnergyJ,
		EATSSPPW:        e.PPW,
		EATSSSharedFrac: best.Chosen.SharedFrac,
		EATSSTiles:      tilesString(best.Chosen.Selection.Tiles),
		PerfRatio:       e.GFLOPS / def.GFLOPS,
		EnergyRatio:     e.EnergyJ / def.EnergyJ,
		PPWRatio:        e.PPW / def.PPW,
	}
}

// Render prints the Fig. 7 tables.
func (f *Fig7Result) Render() string {
	t := NewTable("Fig. 7: Polybench on "+f.GPU+" (FP64)",
		"kernel", "MedPPCG GF", "DefPPCG GF", "BestPPCG GF", "EATSS GF",
		"DefPPCG J", "EATSS J", "DefPPCG PPW", "EATSS PPW", "PPWx", "tiles", "shmem")
	for _, r := range f.Rows {
		t.AddRow(r.Kernel, r.MedPPCGGF, r.DefPPCGGF, r.BestPPCGGF, r.EATSSGF,
			r.DefPPCGJ, r.EATSSJ, r.DefPPCGPPW, r.EATSSPPW, r.PPWRatio,
			r.EATSSTiles, r.EATSSSharedFrac)
	}
	s := t.String()
	sum := NewTable("summary", "metric", "median ratio (EATSS / default PPCG)")
	sum.AddRow("performance", f.MedianPerfX)
	sum.AddRow("energy (lower better)", f.MedianEnergy)
	sum.AddRow("performance-per-Watt", f.MedianPPWX)
	return s + sum.String()
}
