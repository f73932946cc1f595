package autotune

import (
	"context"
	"fmt"
	"math"
	"sort"

	eatss "repro"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/sweep"
)

// HybridTune implements the integration the paper proposes in
// Sec. IV-M (i): EATSS "can be integrated into an auto-tuning framework".
// Instead of bootstrapping the surrogate with random samples, the tuner
// seeds it with the EATSS configurations for each shared-memory split —
// model-guided warm starts — and spends the remaining budget refining
// around them. Compared to the cold-started Tune, the hybrid reaches a
// given quality with a fraction of the evaluations (see the bench study).
// Like Tune, it stages the kernel once with eatss.Analyze, and a kernel
// Analyze rejects yields an empty Outcome.
func HybridTune(k *affine.Kernel, g *arch.GPU, space []map[string]int64, cfg Config) Outcome {
	if cfg.Budget <= 0 {
		cfg.Budget = 40
	}

	// Stage the analysis once; every solver call and every evaluation
	// below consumes the same artifact.
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		return Outcome{}
	}

	// EATSS seeds: one configuration per shared split, the one
	// SelectBestEval generates (warp-fraction fallback for
	// high-dimensional kernels). The three splits' solves are
	// independent, so they run on the worker pool; folding in split
	// order keeps the seed list deterministic.
	seedOut, seedDone, _ := sweep.Map(context.Background(), 0, eatss.SharedSplits,
		func(wctx context.Context, _ int, split float64) map[string]int64 {
			sel, err := prog.SelectSplit(wctx, g, split, cfg.Precision)
			if err != nil {
				return nil
			}
			return sel.Tiles
		})
	var seeds []map[string]int64
	for i, tiles := range seedOut {
		if seedDone[i] && tiles != nil {
			seeds = append(seeds, tiles)
		}
	}

	var out Outcome
	evaluateOne := evaluator(prog, g, cfg)
	record := func(obs Observation, ok bool) {
		if !ok {
			return
		}
		out.History = append(out.History, obs)
		if obs.Objective > out.Best.Objective {
			out.Best = obs
		}
	}
	evaluate := func(tiles map[string]int64) { record(evaluateOne(context.Background(), tiles)) }

	// Seed evaluations cost solver milliseconds, not compile-run cycles;
	// charge them at the EATSS rate (negligible next to EvalCostSec).
	// Like Tune's bootstrap, they fan out and fold back in order.
	type seedObs struct {
		obs Observation
		ok  bool
	}
	evalOut, evalDone, _ := sweep.Map(context.Background(), 0, seeds,
		func(wctx context.Context, _ int, tiles map[string]int64) seedObs {
			o, ok := evaluateOne(wctx, tiles)
			return seedObs{obs: o, ok: ok}
		})
	for i := range evalOut {
		if evalDone[i] {
			record(evalOut[i].obs, evalOut[i].ok)
		}
	}

	// Refine: local perturbations of the best seed within the space.
	budget := cfg.Budget - len(seeds)
	if budget < 0 {
		budget = 0
	}
	tried := map[string]bool{}
	for _, o := range out.History {
		tried[key(o.Tiles)] = true
	}
	neighbors := neighborhood(out.Best.Tiles, space)
	for _, tiles := range neighbors {
		if budget == 0 {
			break
		}
		if tried[key(tiles)] {
			continue
		}
		tried[key(tiles)] = true
		evaluate(tiles)
		out.TuningTimeSec += EvalCostSec
		budget--
	}
	return out
}

func key(tiles map[string]int64) string {
	names := make([]string, 0, len(tiles))
	for n := range tiles {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for _, name := range names {
		s += fmt.Sprintf("%s=%d;", name, tiles[name])
	}
	return s
}

// neighborhood returns space points closest to the seed in log-tile space,
// nearest first.
func neighborhood(seed map[string]int64, space []map[string]int64) []map[string]int64 {
	type cand struct {
		tiles map[string]int64
		dist  float64
	}
	cands := make([]cand, 0, len(space))
	for _, tiles := range space {
		d := 0.0
		for name, v := range seed {
			sv, ok := tiles[name]
			if !ok {
				continue
			}
			diff := log2f(v) - log2f(sv)
			d += diff * diff
		}
		cands = append(cands, cand{tiles, d})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	out := make([]map[string]int64, len(cands))
	for i, c := range cands {
		out[i] = c.tiles
	}
	return out
}

func log2f(v int64) float64 {
	if v < 1 {
		return 0
	}
	return math.Log2(float64(v))
}
