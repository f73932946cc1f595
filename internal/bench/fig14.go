package bench

import (
	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/autotune"
	"repro/internal/ppcg"
)

// Fig14Row is one kernel's EATSS-vs-ytopt comparison.
type Fig14Row struct {
	Kernel string
	// Speedup is EATSS time advantage over the ytopt-tuned binary
	// (> 1 means EATSS is faster).
	Speedup float64
	// EnergyNorm is EATSS energy normalized to ytopt's (< 1 is better).
	EnergyNorm float64
	// YtoptTuneSec / EATSSTuneSec compare search costs: the paper
	// observes ~17 minutes of Bayesian tuning vs seconds for EATSS.
	// EATSSTuneSec is solver effort (the chosen candidate's solve time
	// per candidate), not wall time: SelectBest solves its splits
	// concurrently, so the protocol can finish sooner.
	YtoptTuneSec float64
	EATSSTuneSec float64
	YtoptGF      float64
	EATSSGF      float64
}

// Fig14Result reproduces Fig. 14 and Sec. V-H: EATSS against the ytopt
// autotuner on the A100. ytopt's OpenMP-offload code generation costs it
// throughput relative to PPCG's CUDA, and its Bayesian search costs
// minutes of tuning.
type Fig14Result struct {
	GPU  string
	Rows []Fig14Row
}

// Fig14 runs the comparison on g (nil = GA100/A100, as in the paper).
func Fig14(g *arch.GPU, kernels []string) *Fig14Result {
	if g == nil {
		g = arch.GA100()
	}
	if kernels == nil {
		kernels = []string{"2mm", "gemm", "heat-3d", "mttkrp"}
	}
	out := &Fig14Result{GPU: g.Name}
	for _, name := range kernels {
		k := affine.MustLookup(name)
		params := ParamsFor(name, g)
		kk := k.WithParams(params)

		space := ppcg.Space(kk, SpaceSizesFor(kk.MaxDepth(), false))
		cfg := autotune.DefaultConfig()
		tuned := autotune.Tune(kk, g, space, cfg)
		if tuned.Best.Result.TimeSec == 0 {
			continue
		}

		best, err := RunEATSS(name, g, params)
		if err != nil {
			continue
		}
		e := best.Chosen.Result
		out.Rows = append(out.Rows, Fig14Row{
			Kernel:       name,
			Speedup:      tuned.Best.Result.TimeSec / e.TimeSec,
			EnergyNorm:   e.EnergyJ / tuned.Best.Result.EnergyJ,
			YtoptTuneSec: tuned.TuningTimeSec,
			EATSSTuneSec: best.Chosen.Selection.SolveTime.Seconds() * float64(len(best.Candidates)),
			YtoptGF:      tuned.Best.Result.GFLOPS,
			EATSSGF:      e.GFLOPS,
		})
	}
	return out
}

// Render prints the autotuner comparison.
func (f *Fig14Result) Render() string {
	t := NewTable("Fig. 14 / Sec. V-H: EATSS vs ytopt ("+f.GPU+")",
		"kernel", "ytopt GF", "EATSS GF", "speedup (>1 better)",
		"energy (<1 better)", "ytopt tune (s)", "EATSS tune (s)")
	for _, r := range f.Rows {
		t.AddRow(r.Kernel, r.YtoptGF, r.EATSSGF, r.Speedup, r.EnergyNorm,
			r.YtoptTuneSec, r.EATSSTuneSec)
	}
	return t.String()
}
