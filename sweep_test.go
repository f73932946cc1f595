package eatss_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	eatss "repro"

	"repro/internal/obs"
)

// TestExploreSpaceParallelDeterminism is the sweep engine's core
// contract: a parallel sweep (j=8) returns points and stats identical —
// order included — to a sequential one (j=1) on gemm's PaperSpace
// subset. Fresh caches on both sides so every point is really evaluated.
func TestExploreSpaceParallelDeterminism(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	space := eatss.PaperSpace(k)
	if len(space) > 200 {
		space = space[:200]
	}
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}

	seqPts, seqStats := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 1, Cache: eatss.NewEvalCache()})
	parPts, parStats := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 8, Cache: eatss.NewEvalCache()})

	if seqStats != parStats {
		t.Fatalf("stats diverge: sequential %+v, parallel %+v", seqStats, parStats)
	}
	if len(seqPts) == 0 {
		t.Fatal("sequential sweep returned no points")
	}
	if !reflect.DeepEqual(seqPts, parPts) {
		if len(seqPts) != len(parPts) {
			t.Fatalf("point counts diverge: %d vs %d", len(seqPts), len(parPts))
		}
		for i := range seqPts {
			if !reflect.DeepEqual(seqPts[i], parPts[i]) {
				t.Fatalf("point %d diverges:\nsequential %+v\nparallel   %+v", i, seqPts[i], parPts[i])
			}
		}
	}
}

// cancelOnPoll is a live context that cancels itself on its (n+1)-th Err
// call. The sweep engine polls the caller's context before every
// dispatch, so a sweep under it dispatches at most n points, however
// loaded the machine is.
type cancelOnPoll struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	n      int64
}

func newCancelOnPoll(n int64) *cancelOnPoll {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelOnPoll{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelOnPoll) Err() error {
	if c.polls.Add(1) > c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExploreSpaceCancellation: a context cancelled mid-sweep stops the
// engine between evaluations and surfaces the abort in the stats. The
// context cancels itself at its 201st poll, a fixed point well inside
// the sweep, rather than after a wall-clock delay a loaded machine can
// outrun.
func TestExploreSpaceCancellation(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	space := eatss.PaperSpace(k) // 3,375 points
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}

	ctx := newCancelOnPoll(200)
	defer ctx.cancel()
	pts, stats := eatss.ExploreSpaceOpt(ctx, k, g, space, cfg,
		eatss.SweepOptions{Workers: 4, Cache: eatss.NoCache})
	if !stats.Aborted {
		t.Fatalf("sweep of %d points finished despite cancellation: stats %+v", len(space), stats)
	}
	if n := stats.Evaluated + stats.Skipped; n == 0 || n >= len(space) {
		t.Fatalf("cancellation did not stop the sweep mid-way: stats %+v", stats)
	}
	if len(pts) != stats.Evaluated {
		t.Fatalf("partial results inconsistent: %d points, stats %+v", len(pts), stats)
	}

	// Pre-cancelled context: nothing runs at all.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	pts, stats = eatss.ExploreSpaceOpt(done, k, g, space[:10], cfg,
		eatss.SweepOptions{Workers: 4, Cache: eatss.NoCache})
	if len(pts) != 0 || !stats.Aborted || stats.Evaluated != 0 {
		t.Fatalf("pre-cancelled sweep ran: %d points, stats %+v", len(pts), stats)
	}
}

// TestSpacePointTilesDefensiveCopy: mutating the input space after the
// sweep (or a returned point's map) must not corrupt other results.
func TestSpacePointTilesDefensiveCopy(t *testing.T) {
	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32})
	pts, _ := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64}, eatss.SweepOptions{})
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	want := make(map[string]int64, len(pts[0].Tiles))
	for n, v := range pts[0].Tiles {
		want[n] = v
	}
	for _, m := range space { // caller mutates its space afterwards
		for n := range m {
			m[n] = -1
		}
	}
	if !reflect.DeepEqual(pts[0].Tiles, want) {
		t.Fatalf("SpacePoint.Tiles aliases the input space: %v", pts[0].Tiles)
	}
}

// TestEvalCacheMemoizes: a second sweep over the same space is served
// from the cache, and cached results equal fresh ones.
func TestEvalCacheMemoizes(t *testing.T) {
	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32, 64})
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	cache := eatss.NewEvalCache()

	pts1, stats1 := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 2, Cache: cache})
	if stats1.CacheHits != 0 {
		t.Fatalf("fresh cache reported hits: %+v", stats1)
	}
	pts2, stats2 := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 2, Cache: cache})
	if stats2.CacheHits != len(space) {
		t.Fatalf("second sweep hits = %d, want %d", stats2.CacheHits, len(space))
	}
	if !reflect.DeepEqual(pts1, pts2) {
		t.Fatal("cached sweep diverges from fresh sweep")
	}
	hits, misses := cache.Stats()
	if hits != int64(len(space)) || misses != int64(len(space)) {
		t.Fatalf("cache stats = %d hits / %d misses, want %d / %d", hits, misses, len(space), len(space))
	}

	// A different RunConfig must not collide with cached entries.
	pts3, stats3 := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: false, Precision: eatss.FP64},
		eatss.SweepOptions{Workers: 2, Cache: cache})
	if stats3.CacheHits != 0 {
		t.Fatalf("config change still hit the cache: %+v", stats3)
	}
	if len(pts3) == len(pts1) && reflect.DeepEqual(pts1, pts3) {
		t.Fatal("UseShared=false sweep returned UseShared=true results")
	}
}

// TestConcurrentSweepsWithObs hammers the sweep engine from several
// goroutines with tracing and metrics enabled. It exists to run under
// -race (the Makefile check gate): it exercises the span sink, the
// metric registry, the shared evaluation cache, and the worker pool all
// under concurrent producers.
func TestConcurrentSweepsWithObs(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32, 64})
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	cache := eatss.NewEvalCache()

	var wg sync.WaitGroup
	results := make([][]eatss.SpacePoint, 6)
	for i := range results {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			ctx, root := obs.Start(context.Background(), "test.sweep")
			pts, _ := eatss.ExploreSpaceOpt(ctx, k, g, space, cfg,
				eatss.SweepOptions{Workers: 3, Cache: cache})
			root.End()
			results[slot] = pts
		}(i)
	}
	wg.Wait()

	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("concurrent sweep %d diverged", i)
		}
	}
	if spans := obs.SpansNamed("eatss.explore_space"); len(spans) != 6 {
		t.Fatalf("explore_space spans = %d, want 6", len(spans))
	}
	if workers := obs.SpansNamed("sweep.worker"); len(workers) == 0 {
		t.Fatal("no worker spans recorded")
	}
}

// TestEvalCacheMetricsConcurrentSweep runs several sweeps over one
// shared cache from concurrent goroutines and checks the accounting
// invariant under -race: every point lookup is classified as exactly
// one hit or miss, so hits+misses equals the total number of points
// swept, and misses never exceeds what the workers could have computed.
func TestEvalCacheMetricsConcurrentSweep(t *testing.T) {
	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32, 64})
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	cache := eatss.NewEvalCache()

	const sweeps = 6
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
				eatss.SweepOptions{Workers: 3, Cache: cache})
		}()
	}
	wg.Wait()

	hits, misses := cache.Stats()
	points := int64(sweeps * len(space))
	if hits+misses != points {
		t.Fatalf("cache accounting leaked: hits %d + misses %d != %d points swept",
			hits, misses, points)
	}
	// Every distinct point misses at least once; concurrent racers may
	// each miss the same point before the first result lands, but a miss
	// count at the sweep total would mean the cache never served anything.
	if misses < int64(len(space)) || misses >= points {
		t.Fatalf("misses = %d, want within [%d, %d)", misses, len(space), points)
	}
	if cache.Len() != len(space) {
		t.Fatalf("cache holds %d entries, want %d distinct points", cache.Len(), len(space))
	}
}

// TestSweepPointLatencyHistogram: with observability on, every fresh
// (cache-miss) evaluation lands one observation in the
// eatss.sweep.point_seconds histogram, and cache hits land none — the
// distribution measures evaluation cost, not lookup cost.
func TestSweepPointLatencyHistogram(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() { obs.Disable(); obs.Reset() }()
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	space := eatss.PaperSpace(k)[:8]
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	cache := eatss.NewEvalCache()
	eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 1, Cache: cache})
	hs := obs.Snapshot().Histograms["eatss.sweep.point_seconds"]
	if hs.Count != int64(len(space)) {
		t.Fatalf("histogram count = %d, want %d (one per fresh point)", hs.Count, len(space))
	}
	// A fully cached second sweep must not add observations.
	eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 1, Cache: cache})
	if hs2 := obs.Snapshot().Histograms["eatss.sweep.point_seconds"]; hs2.Count != hs.Count {
		t.Fatalf("cached sweep added observations: %d -> %d", hs.Count, hs2.Count)
	}
}

// TestSweepPublishesLiveProgress: with observability on, a sweep
// publishes a live progress handle whose counters add up and which is
// marked finished when the sweep returns.
func TestSweepPublishesLiveProgress(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()

	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32})
	_, stats := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64},
		eatss.SweepOptions{Workers: 2, Cache: eatss.NewEvalCache()})

	p := obs.CurrentSweep()
	if p == nil {
		t.Fatal("sweep published no live progress")
	}
	if p.Kernel != k.Name || p.Total != int64(len(space)) {
		t.Fatalf("progress = %s/%d, want %s/%d", p.Kernel, p.Total, k.Name, len(space))
	}
	if !p.Finished() {
		t.Fatal("finished sweep not marked finished")
	}
	if p.Done() != int64(len(space)) {
		t.Fatalf("done = %d, want %d", p.Done(), len(space))
	}
	if p.Skipped() != int64(stats.Skipped) {
		t.Fatalf("skipped = %d, stats say %d", p.Skipped(), stats.Skipped)
	}
}

// TestSelectTilesCtxCancellation: a cancelled context interrupts tile
// selection instead of being ignored (the solver polls it between node
// batches) and is reported as an error, not as UNSAT.
func TestSelectTilesCtxCancellation(t *testing.T) {
	prog := stage(t, eatss.MustKernel("gemm"), nil)
	g := eatss.GA100()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := prog.SelectTilesCtx(ctx, g, eatss.DefaultOptions())
	if err == nil {
		t.Fatal("cancelled SelectTilesCtx returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}

	// A solver must not carry cancellation across calls: the same
	// kernel/GPU/options solve with a fresh context succeeds.
	if _, err := prog.SelectTilesCtx(context.Background(), g, eatss.DefaultOptions()); err != nil {
		t.Fatalf("fresh-context solve failed after cancelled one: %v", err)
	}
}
