package bench

import (
	"fmt"
	"strings"

	eatss "repro"
	"repro/internal/arch"
)

// Fig11Result reproduces Fig. 11: the performance/energy distribution of
// the non-Polybench tile spaces as 2-D histograms with Freedman–Diaconis
// bin sizing, annotated with the P (default), M (median) and U (EATSS)
// markers. Bins toward high performance and low energy are the good
// corner; the paper shows P and M land far from it while U sits close to
// the best empirically-found variants.
type Fig11Result struct {
	GPU     string
	Kernels []Fig11Kernel
}

// Fig11Kernel is one kernel's histogram and markers.
type Fig11Kernel struct {
	Kernel   string
	N        int // variants in the space
	Hist     *Histogram2D
	DefGF    float64 // P marker
	DefJ     float64
	MedGF    float64 // M marker
	EATSSGF  float64 // U marker
	EATSSJ   float64
	BestGF   float64
	BestJ    float64 // lowest energy in space
	USupport float64 // fraction of variants EATSS beats on PPW
}

// Fig11 builds the histograms on g.
func Fig11(g *arch.GPU) *Fig11Result {
	out := &Fig11Result{GPU: g.Name}
	for _, name := range []string{"conv-2d", "heat-3d", "mttkrp"} {
		params := ParamsFor(name, g)
		variants, def := Explore(name, g, params, true, false)
		if len(variants) == 0 {
			continue
		}
		perf, energy := perfOf(variants), energyOf(variants)
		fk := Fig11Kernel{
			Kernel: name,
			N:      len(variants),
			Hist:   NewHistogram2D(perf, energy),
			DefGF:  def.GFLOPS,
			DefJ:   def.EnergyJ,
			MedGF:  Median(perf),
			BestGF: bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.GFLOPS }, true).Result.GFLOPS,
			BestJ:  bestBy(variants, func(v eatss.SpacePoint) float64 { return v.Result.EnergyJ }, false).Result.EnergyJ,
		}
		if best, err := RunEATSS(name, g, params); err == nil {
			fk.EATSSGF = best.Chosen.Result.GFLOPS
			fk.EATSSJ = best.Chosen.Result.EnergyJ
			beat := 0
			for _, v := range variants {
				if best.Chosen.Result.PPW > v.Result.PPW {
					beat++
				}
			}
			fk.USupport = float64(beat) / float64(len(variants))
		}
		out.Kernels = append(out.Kernels, fk)
	}
	return out
}

// Render prints marker tables plus a coarse ASCII heat map per kernel.
func (f *Fig11Result) Render() string {
	var b strings.Builder
	for _, fk := range f.Kernels {
		t := NewTable(fmt.Sprintf("Fig. 11: %s space on %s (n=%d, FD bins %dx%d)",
			fk.Kernel, f.GPU, fk.N, len(fk.Hist.Counts[0]), len(fk.Hist.Counts)),
			"marker", "GFLOP/s", "energy (J)")
		t.AddRow("P (default PPCG)", fk.DefGF, fk.DefJ)
		t.AddRow("M (median PPCG)", fk.MedGF, "-")
		t.AddRow("U (EATSS)", fk.EATSSGF, fk.EATSSJ)
		t.AddRow("best perf in space", fk.BestGF, "-")
		t.AddRow("best energy in space", "-", fk.BestJ)
		t.AddRow("fraction of space EATSS beats (PPW)", fk.USupport, "-")
		b.WriteString(t.String())
		b.WriteString(renderHeatmap(fk.Hist))
	}
	return b.String()
}

// renderHeatmap draws the 2-D histogram with density glyphs, capped to a
// terminal-friendly size.
func renderHeatmap(h *Histogram2D) string {
	glyphs := []byte(" .:-=+*#%@")
	maxC := 0
	for _, row := range h.Counts {
		for _, c := range row {
			if c > maxC {
				maxC = c
			}
		}
	}
	if maxC == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("energy(J) rows (low->high) x GFLOP/s cols (low->high):\n")
	step := 1
	if len(h.Counts) > 24 {
		step = (len(h.Counts) + 23) / 24
	}
	for y := 0; y < len(h.Counts); y += step {
		row := h.Counts[y]
		cstep := 1
		if len(row) > 72 {
			cstep = (len(row) + 71) / 72
		}
		for x := 0; x < len(row); x += cstep {
			idx := row[x] * (len(glyphs) - 1) / maxC
			b.WriteByte(glyphs[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
