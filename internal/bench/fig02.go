package bench

import (
	"sort"

	eatss "repro"
	"repro/internal/arch"
)

// Fig2Result reproduces Fig. 2 (and the Fig. 3 per-GPU variant): the
// exhaustive tile-space study. For 2mm on the GA100 the space has the
// paper's 3,375 variants; the key observable is that only a small
// fraction of variants (paper: ~12% for 2mm, ~15% for gemm) beats the
// default PPCG configuration on performance, while energy spreads widely
// at fixed performance.
type Fig2Result struct {
	Kernel string
	GPU    string

	Variants []eatss.SpacePoint
	Default  eatss.SpacePoint

	// PctBeatDefaultPerf is the fraction (0-100) of variants faster than
	// the default configuration.
	PctBeatDefaultPerf float64
	// PctBeatDefaultEnergy is the fraction using less energy.
	PctBeatDefaultEnergy float64

	BestPerf   eatss.SpacePoint
	BestEnergy eatss.SpacePoint
	MedianPerf float64
	MedianEn   float64
}

// Fig2 runs the exhaustive study for one kernel on one GPU.
func Fig2(kernel string, g *arch.GPU) *Fig2Result {
	params := ParamsFor(kernel, g)
	variants, def := Explore(kernel, g, params, true, true)
	out := &Fig2Result{
		Kernel:   kernel,
		GPU:      g.Name,
		Variants: variants,
		Default:  eatss.SpacePoint{Result: def},
	}
	if len(variants) == 0 {
		return out
	}
	nPerf, nEn := 0, 0
	for _, v := range variants {
		if v.Result.GFLOPS > def.GFLOPS {
			nPerf++
		}
		if v.Result.EnergyJ < def.EnergyJ {
			nEn++
		}
	}
	out.PctBeatDefaultPerf = 100 * float64(nPerf) / float64(len(variants))
	out.PctBeatDefaultEnergy = 100 * float64(nEn) / float64(len(variants))
	out.BestPerf = bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.GFLOPS }, true)
	out.BestEnergy = bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.EnergyJ }, false)
	out.MedianPerf = Median(perfOf(variants))
	out.MedianEn = Median(energyOf(variants))
	return out
}

// SortedByPerf returns the variants sorted by descending performance
// (Fig. 2a's x-axis ordering).
func (f *Fig2Result) SortedByPerf() []eatss.SpacePoint {
	s := append([]eatss.SpacePoint(nil), f.Variants...)
	sort.Slice(s, func(i, j int) bool { return s[i].Result.GFLOPS > s[j].Result.GFLOPS })
	return s
}

// SortedByEnergy returns the variants sorted by ascending energy
// (Fig. 2b's ordering).
func (f *Fig2Result) SortedByEnergy() []eatss.SpacePoint {
	s := append([]eatss.SpacePoint(nil), f.Variants...)
	sort.Slice(s, func(i, j int) bool { return s[i].Result.EnergyJ < s[j].Result.EnergyJ })
	return s
}

// Render summarizes the space and prints the head of both orderings.
func (f *Fig2Result) Render() string {
	t := NewTable("Fig. 2: "+f.Kernel+" tile space on "+f.GPU,
		"metric", "value")
	t.AddRow("variants", len(f.Variants))
	t.AddRow("default GFLOP/s", f.Default.Result.GFLOPS)
	t.AddRow("default energy (J)", f.Default.Result.EnergyJ)
	t.AddRow("median GFLOP/s", f.MedianPerf)
	t.AddRow("median energy (J)", f.MedianEn)
	t.AddRow("best GFLOP/s", f.BestPerf.Result.GFLOPS)
	t.AddRow("best energy (J)", f.BestEnergy.Result.EnergyJ)
	t.AddRow("% variants beating default perf", f.PctBeatDefaultPerf)
	t.AddRow("% variants beating default energy", f.PctBeatDefaultEnergy)
	out := t.String()

	head := NewTable("top variants by performance", "tiles", "GFLOP/s", "energy (J)")
	for i, v := range f.SortedByPerf() {
		if i == 5 {
			break
		}
		head.AddRow(tilesString(v.Tiles), v.Result.GFLOPS, v.Result.EnergyJ)
	}
	out += head.String()

	headE := NewTable("top variants by energy", "tiles", "GFLOP/s", "energy (J)")
	for i, v := range f.SortedByEnergy() {
		if i == 5 {
			break
		}
		headE.AddRow(tilesString(v.Tiles), v.Result.GFLOPS, v.Result.EnergyJ)
	}
	return out + headE.String()
}
