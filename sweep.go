package eatss

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/feas"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/sweep"
)

// Sweep-engine telemetry: effective worker counts, cache effectiveness,
// evaluation-backend attribution, and how many sweeps were cut short by
// cancellation.
var (
	mSweepWorkers        = obs.NewGauge("eatss.sweep.workers")
	mSweepCacheHits      = obs.NewCounter("eatss.sweep.cache_hits")
	mSweepCacheMisses    = obs.NewCounter("eatss.sweep.cache_misses")
	mSweepCacheEvictions = obs.NewCounter("eatss.sweep.cache_evictions")
	mSweepAborted        = obs.NewCounter("eatss.sweep.aborted")
	// mSweepSymbolicPoints / mSweepResidualPoints split fresh evaluations
	// by backend: closed-form plan vs simulator fallback under a
	// symbolic evaluator. Their ratio is the residual-fallback rate.
	mSweepSymbolicPoints = obs.NewCounter("eatss.sweep.symbolic_points")
	mSweepResidualPoints = obs.NewCounter("eatss.sweep.residual_points")
	// mSweepPointSec distributes fresh (cache-miss) per-point evaluation
	// latency — the p99 the /metrics scrape watches during long sweeps.
	mSweepPointSec = obs.NewHistogram("eatss.sweep.point_seconds",
		1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1)
	// mSweepPrunedPoints counts configurations the static feasibility
	// pre-filter (SweepOptions.Prune) removed before any evaluation.
	mSweepPrunedPoints = obs.NewCounter("eatss.sweep.pruned_points")
)

// SweepOptions configures the parallel sweep engine behind ExploreSpaceOpt
// (see DESIGN.md's "Parallel sweep engine" section).
type SweepOptions struct {
	// Workers bounds the number of concurrent evaluations. 0 (or
	// negative) uses GOMAXPROCS; 1 reproduces the sequential engine in
	// the calling goroutine. Results are input-ordered regardless of
	// the worker count, so any j produces identical output.
	Workers int
	// Cache memoizes (kernel, GPU, tiles, RunConfig) evaluations so
	// repeated points across sweeps — e.g. the same tile configuration
	// appearing in two figures' spaces — compile and simulate once.
	// nil uses the process-wide DefaultEvalCache; NoCache disables
	// memoization (every point is evaluated fresh).
	Cache *EvalCache
	// Prune pre-filters the space through the static feasibility
	// analysis (internal/feas): points that provably violate the
	// option-free Sec. IV constraints — the problem-size-aware tile
	// domains, the register bound — are counted in ExploreStats.Pruned
	// and never evaluated. Off by default: a pruned sweep covers only
	// the model-feasible subspace, so exhaustive studies that
	// deliberately walk infeasible configurations (the paper's Sec. II
	// exploration figures) must leave it off. Every prune is certified
	// sound (see CertifyPrune and TestCatalogPruneCertificatesReplay), so
	// with Prune on, the surviving points — and the argmax over them —
	// are bit-identical to filtering a full sweep's output through the
	// same feasibility predicate.
	Prune bool
}

// EvalCache memoizes compile+simulate outcomes across sweeps, bounded
// by LRU eviction (the same internal/lru cache the service layer's two
// tiers use). It is safe for concurrent use. Results are cached by
// value; tile maps are never stored, so cached entries cannot alias
// caller-owned maps.
type EvalCache struct {
	disabled bool
	c        *lru.Cache[evalEntry]
}

type evalEntry struct {
	res Result
	ok  bool // false: the configuration failed to map
}

// maxEvalCacheEntries caps a cache's footprint. Entries are small
// (a Result plus a short key), so the cap is generous; beyond it the
// least recently used entry is evicted per insert.
const maxEvalCacheEntries = 1 << 20

// NewEvalCache returns an empty evaluation cache, for callers that want
// sweep-local memoization instead of the process-wide default.
func NewEvalCache() *EvalCache {
	return &EvalCache{c: lru.New[evalEntry](maxEvalCacheEntries)}
}

// DefaultEvalCache is the process-wide cache used when SweepOptions.Cache
// is nil — it is what lets the bench figures share evaluations.
var DefaultEvalCache = NewEvalCache()

// NoCache disables memoization when set as SweepOptions.Cache.
var NoCache = &EvalCache{disabled: true}

// Len returns the number of cached evaluations.
func (c *EvalCache) Len() int {
	if c == nil || c.disabled {
		return 0
	}
	return c.c.Len()
}

// Stats returns the cache's cumulative hit/miss counts.
func (c *EvalCache) Stats() (hits, misses int64) {
	if c == nil || c.disabled {
		return 0, 0
	}
	hits, misses, _ = c.c.Stats()
	return hits, misses
}

// Evictions returns how many entries LRU eviction has dropped.
func (c *EvalCache) Evictions() int64 {
	if c == nil || c.disabled {
		return 0
	}
	_, _, ev := c.c.Stats()
	return ev
}

// Clear drops every cached evaluation (the hit/miss counters are kept).
func (c *EvalCache) Clear() {
	if c == nil || c.disabled {
		return
	}
	c.c.Purge()
}

func (c *EvalCache) get(key string) (evalEntry, bool) {
	if c == nil || c.disabled {
		return evalEntry{}, false
	}
	return c.c.Get(key)
}

func (c *EvalCache) put(key string, e evalEntry) {
	if c == nil || c.disabled {
		return
	}
	if c.c.Put(key, e) {
		mSweepCacheEvictions.Add(1)
	}
}

// sweepKeyPrefix fingerprints everything an evaluation depends on except
// the tile choice: the analysis artifact's fingerprint (which covers the
// kernel's canonical DSL text and the resolved problem sizes), the full
// machine description, and the RunConfig. Computed once per sweep;
// per-point keys append the tiles.
func sweepKeyPrefix(prog *analysis.Program, g *GPU, cfg RunConfig) string {
	h := fnv.New64a()
	io.WriteString(h, prog.Fingerprint())
	fmt.Fprintf(h, "|%+v|", *g)
	fmt.Fprintf(h, "%s|%t|%d|%v|%d|%d|%v|%v",
		tileKey(cfg.Params), cfg.UseShared, cfg.SharedQuota, cfg.Precision,
		cfg.TimeTileFuse, cfg.RegTile, cfg.Verify, cfg.Evaluator)
	return strconv.FormatUint(h.Sum64(), 16) + "|"
}

// tileKey renders a tile (or parameter) map canonically: sorted
// name=value pairs.
func tileKey(tiles map[string]int64) string {
	names := make([]string, 0, len(tiles))
	for n := range tiles {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]byte, 0, 16*len(names))
	for i, n := range names {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, n...)
		out = append(out, '=')
		out = strconv.AppendInt(out, tiles[n], 10)
	}
	return string(out)
}

// copyTiles returns a defensive copy of a tile map, so recorded results
// never alias caller-owned (or space-owned) maps.
func copyTiles(tiles map[string]int64) map[string]int64 {
	cp := make(map[string]int64, len(tiles))
	for n, v := range tiles {
		cp[n] = v
	}
	return cp
}

// cacheableOutcome reports whether one point's evaluation outcome may
// be memoized. An evaluation cut short by cancellation (the worker's
// context expired, or the error itself is a context error) says nothing
// about the configuration — caching its spurious failure as a permanent
// ok:false "failed to map" entry would poison the process-wide
// DefaultEvalCache for every later sweep touching the same key. A
// successful result computed under a just-cancelled context is equally
// skipped: dropping a valid memoization is cheap, distinguishing it
// from a torn one is not.
func cacheableOutcome(wctx context.Context, err error) bool {
	if wctx.Err() != nil {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// sweepOutcome is one point's evaluation as seen by the pool worker.
type sweepOutcome struct {
	res Result
	ok  bool
	hit bool
	// sym / resid attribute a fresh evaluation to a backend (both false
	// on cache hits and plain simulate sweeps).
	sym, resid bool
}

// ExploreSpaceOpt evaluates every tile configuration in the space (the
// paper's exhaustive exploration studies, Secs. II and V): a one-shot
// Analyze(k, cfg.Params) followed by Program.ExploreSpaceOpt. A kernel
// Analyze rejects yields no points, with every configuration counted in
// stats.Skipped. The sweep runs on a bounded worker pool (opt.Workers,
// 0 = GOMAXPROCS) and memoizes in opt.Cache (nil = DefaultEvalCache).
// The contracts, regardless of options:
//
//   - Ordering: the returned points follow the input space's order
//     (failed-to-map points omitted, counted in stats.Skipped),
//     identically for any worker count.
//   - Cancellation: the sweep polls ctx between evaluations; on
//     cancellation it returns the points completed so far with
//     stats.Aborted set, without dispatching further configurations.
//   - Aliasing: every returned SpacePoint.Tiles is a defensive copy —
//     callers may mutate the input space (or the results) freely.
//
// The analysis is staged once and shared by every worker; per point
// only the mapping and simulation run. With tracing enabled every
// configuration records compile/simulate spans (nested under per-worker
// "sweep.worker" spans), so sweeping thousands of points produces a
// large trace.
func ExploreSpaceOpt(ctx context.Context, k *AffineKernel, g *GPU, space []map[string]int64, cfg RunConfig, opt SweepOptions) ([]SpacePoint, ExploreStats) {
	prog, err := AnalyzeCtx(ctx, k, cfg.Params)
	if err != nil {
		mExploreSkipped.Add(int64(len(space)))
		return nil, ExploreStats{Skipped: len(space)}
	}
	return prog.ExploreSpaceOpt(ctx, g, space, cfg, opt)
}

func exploreAnalyzed(ctx context.Context, prog *analysis.Program, g *GPU, space []map[string]int64, cfg RunConfig, opt SweepOptions) ([]SpacePoint, ExploreStats) {
	ctx, sp := obs.Start(ctx, "eatss.explore_space")
	defer sp.End()
	sp.SetStr("kernel", prog.Kernel.Name)
	sp.SetInt("space", int64(len(space)))
	workers := sweep.Workers(opt.Workers)
	sp.SetInt("workers", int64(workers))
	mSweepWorkers.Set(float64(workers))
	// Live progress for the /progress endpoint, plus per-point flight
	// events. Both are nil-safe no-ops while observability is disabled.
	progress := obs.BeginSweep(prog.Kernel.Name, len(space))
	progress.SetEvaluator(cfg.Evaluator.String())
	defer progress.Finish()

	// Static feasibility pre-filter: points the region analysis proves
	// infeasible are dropped before any worker sees them. The filter
	// runs in the calling goroutine — a Check is a handful of integer
	// multiplications, far cheaper than dispatching the point.
	pruned := 0
	if opt.Prune {
		region := feas.Cached(prog, g, feas.SweepConfig(cfg.Precision))
		kept := make([]map[string]int64, 0, len(space))
		for i, tiles := range space {
			if cert := region.Check(tiles); cert != nil {
				pruned++
				mSweepPrunedPoints.Add(1)
				progress.PointPruned()
				flight.Default.SweepPoint(prog.Kernel.Name, int64(i), false, false)
				continue
			}
			kept = append(kept, tiles)
		}
		space = kept
	}

	cache := opt.Cache
	if cache == nil {
		cache = DefaultEvalCache
	}
	var prefix string
	if !cache.disabled {
		prefix = sweepKeyPrefix(prog, g, cfg)
	}

	outcomes, done, cerr := sweep.Map(ctx, opt.Workers, space,
		func(wctx context.Context, i int, tiles map[string]int64) sweepOutcome {
			var key string
			if !cache.disabled {
				key = prefix + tileKey(tiles)
				if e, ok := cache.get(key); ok {
					mSweepCacheHits.Add(1)
					progress.PointDone(true, e.ok)
					flight.Default.SweepPoint(prog.Kernel.Name, int64(i), e.ok, true)
					return sweepOutcome{res: e.res, ok: e.ok, hit: true}
				}
				mSweepCacheMisses.Add(1)
			}
			evalStart := obs.Now()
			res, info, err := evalAnalyzed(wctx, prog, g, tiles, cfg)
			mSweepPointSec.Observe(obs.Now().Sub(evalStart).Seconds())
			o := sweepOutcome{res: res, ok: err == nil, sym: info.Symbolic, resid: info.Residual}
			if o.sym {
				mSweepSymbolicPoints.Add(1)
			}
			if o.resid {
				mSweepResidualPoints.Add(1)
			}
			progress.PointEval(o.sym, o.resid)
			if cacheableOutcome(wctx, err) {
				cache.put(key, evalEntry{res: o.res, ok: o.ok})
			}
			progress.PointDone(false, o.ok)
			flight.Default.SweepPoint(prog.Kernel.Name, int64(i), o.ok, false)
			return o
		})

	var out []SpacePoint
	var stats ExploreStats
	for i, o := range outcomes {
		if !done[i] {
			continue
		}
		if o.hit {
			stats.CacheHits++
		}
		if o.sym {
			stats.Symbolic++
		}
		if o.resid {
			stats.Residual++
		}
		if !o.ok {
			stats.Skipped++
			mExploreSkipped.Add(1)
			continue
		}
		out = append(out, SpacePoint{Tiles: copyTiles(space[i]), Result: o.res})
	}
	stats.Evaluated = len(out)
	stats.Pruned = pruned
	stats.Aborted = cerr != nil
	if stats.Aborted {
		mSweepAborted.Add(1)
	}
	sp.SetInt("evaluated", int64(stats.Evaluated))
	sp.SetInt("pruned", int64(stats.Pruned))
	sp.SetInt("skipped", int64(stats.Skipped))
	sp.SetInt("cache_hits", int64(stats.CacheHits))
	sp.SetStr("evaluator", cfg.Evaluator.String())
	sp.SetInt("symbolic_points", int64(stats.Symbolic))
	sp.SetInt("residual_points", int64(stats.Residual))
	sp.SetBool("aborted", stats.Aborted)
	return out, stats
}
