package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
)

// SpaceSizesFor returns candidate tile sizes sized so a kernel of the
// given maximum loop depth yields an exploration space in the paper's
// 200–800-variant range (Sec. V-A), except depth 3 with paper15=true,
// which reproduces the full 15^3 = 3,375 space of Fig. 2.
func SpaceSizesFor(depth int, paper15 bool) []int64 {
	switch {
	case depth <= 1:
		return []int64{4, 8, 16, 32, 64, 128, 192, 256, 320, 384, 448, 512, 640, 768, 1024}
	case depth == 2:
		// 15^2 = 225 variants.
		return []int64{4, 8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512}
	case depth == 3 && paper15:
		// 15^3 = 3,375 variants (Fig. 2).
		return []int64{4, 8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512}
	case depth == 3:
		// 8^3 = 512 variants.
		return []int64{4, 8, 16, 32, 64, 128, 256, 512}
	default:
		// 5^4 = 625 variants.
		return []int64{4, 8, 16, 32, 64}
	}
}

// Explore evaluates the kernel's tile space on g and returns the valid
// variants plus the default-PPCG result. The sweep runs on the parallel
// engine with the process-wide evaluation cache, so points shared
// between figures (e.g. Fig. 2's 15^3 space is a superset of Fig. 7's)
// are compiled and simulated once across the whole bench run.
func Explore(name string, g *arch.GPU, params map[string]int64, useShared bool, paper15 bool) (variants []eatss.SpacePoint, def eatss.Result) {
	k := affine.MustLookup(name)
	if params == nil {
		params = k.Params
	}
	cfg := eatss.RunConfig{Params: params, UseShared: useShared, Precision: eatss.FP64}
	prog, err := eatss.Analyze(k, params)
	if err != nil {
		return nil, eatss.Result{}
	}
	space := eatss.Space(k, SpaceSizesFor(k.MaxDepth(), paper15))
	variants, _ = prog.ExploreSpaceOpt(context.Background(), g, space, cfg, eatss.SweepOptions{})
	def, _, _ = prog.RunCtx(context.Background(), g, eatss.DefaultTiles(k), cfg)
	return variants, def
}

// mustAnalyze stages a catalog kernel. Catalog kernels always validate,
// so an error is a broken catalog and panics, like affine.MustLookup.
func mustAnalyze(k *affine.Kernel, params map[string]int64) *eatss.Program {
	prog, err := eatss.Analyze(k, params)
	if err != nil {
		panic(err)
	}
	return prog
}

// RunEATSS runs the paper's full EATSS protocol (three shared splits,
// warp-fraction fallback, pick the best PPW) and returns the chosen
// configuration's outcome.
func RunEATSS(name string, g *arch.GPU, params map[string]int64) (*eatss.Best, error) {
	prog, err := eatss.Analyze(affine.MustLookup(name), params)
	if err != nil {
		return nil, err
	}
	return prog.SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate)
}

// ParamsFor returns the dataset for a kernel on a GPU: EXTRALARGE on the
// GA100, STANDARD on the Xavier (Sec. V-A).
func ParamsFor(name string, g *arch.GPU) map[string]int64 {
	if g.Name == "Xavier" {
		std, err := affine.StandardParams(name)
		if err == nil {
			return std
		}
	}
	return affine.MustLookup(name).Params
}

// perfOf / energyOf extract metric slices from variants.
func perfOf(vs []eatss.SpacePoint) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Result.GFLOPS
	}
	return out
}

func energyOf(vs []eatss.SpacePoint) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Result.EnergyJ
	}
	return out
}

func ppwOf(vs []eatss.SpacePoint) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Result.PPW
	}
	return out
}

// bestBy returns the variant maximizing (or minimizing) the metric.
func bestBy(vs []eatss.SpacePoint, metric func(eatss.SpacePoint) float64, maximize bool) eatss.SpacePoint {
	best := vs[0]
	for _, v := range vs[1:] {
		m := metric(v)
		if (maximize && m > metric(best)) || (!maximize && m < metric(best)) {
			best = v
		}
	}
	return best
}

// tilesString renders a tile map compactly and deterministically.
func tilesString(tiles map[string]int64) string {
	names := make([]string, 0, len(tiles))
	for n := range tiles {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%s=%d", n, tiles[n])
	}
	return b.String()
}
