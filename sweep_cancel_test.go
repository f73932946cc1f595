package eatss_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	eatss "repro"
)

// TestCancelledSweepDoesNotPoisonEvalCache is the regression test for
// the cache-poisoning bug: an eval cut short by cancellation used to be
// memoized as a permanent ok:false "failed to map" entry, so every
// later sweep sharing the cache silently dropped those points. The
// contract now: after a cancelled sweep, a full re-sweep with the same
// cache reproduces a ground-truth sweep exactly.
func TestCancelledSweepDoesNotPoisonEvalCache(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	space := eatss.PaperSpace(k)
	if len(space) > 600 {
		space = space[:600]
	}
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}

	// Ground truth, in a fresh cache: what the space really evaluates to.
	wantPts, wantStats := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 4, Cache: eatss.NewEvalCache()})
	if len(wantPts) == 0 {
		t.Fatal("ground-truth sweep returned no points")
	}

	// A sweep cancelled mid-flight, writing into a fresh shared cache.
	// The watcher cancels as soon as the cache shows the sweep is well
	// under way, so the cancellation reliably lands while evals are in
	// flight. Those evals observe it via the ctx plumbing and fail with
	// context errors — exactly the outcomes that must not be memoized.
	cache := eatss.NewEvalCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for cache.Len() < 50 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, aborted := eatss.ExploreSpaceOpt(ctx, k, g, space, cfg,
		eatss.SweepOptions{Workers: 4, Cache: cache})
	if !aborted.Aborted {
		t.Skip("sweep finished before the cancellation landed; nothing to regress")
	}

	// Re-sweep with the same cache: previously-cancelled points must
	// evaluate fresh and succeed, reproducing the ground truth.
	gotPts, gotStats := eatss.ExploreSpaceOpt(context.Background(), k, g, space, cfg,
		eatss.SweepOptions{Workers: 4, Cache: cache})
	if gotStats.Skipped != wantStats.Skipped {
		t.Fatalf("re-sweep skipped %d points, ground truth skipped %d — cancelled evals were cached as failures",
			gotStats.Skipped, wantStats.Skipped)
	}
	if !reflect.DeepEqual(gotPts, wantPts) {
		if len(gotPts) != len(wantPts) {
			t.Fatalf("re-sweep returned %d points, ground truth %d — the cache was poisoned by the cancelled sweep",
				len(gotPts), len(wantPts))
		}
		for i := range wantPts {
			if !reflect.DeepEqual(gotPts[i], wantPts[i]) {
				t.Fatalf("point %d diverges:\nwant %+v\ngot  %+v", i, wantPts[i], gotPts[i])
			}
		}
	}
}

// TestCompileRunCtxCancellation: the compile and simulate stages poll
// their context, so a cancelled request fails fast with a context error
// instead of doing the work — the plumbing the daemon's per-request
// deadlines rely on.
func TestCompileRunCtxCancellation(t *testing.T) {
	k := eatss.MustKernel("gemm")
	g := eatss.GA100()
	tiles := eatss.DefaultTiles(k)
	prog := stage(t, k, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := prog.CompileCtx(ctx, g, tiles, eatss.RunConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompileCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, _, err := prog.RunCtx(ctx, g, tiles, eatss.RunConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestFingerprintKernelMatchesProgram pins the invariant the service's
// program cache is keyed on: FingerprintKernel(k, params) equals the
// fingerprint of the analysis artifact staged from the same inputs, with
// and without parameter overrides.
func TestFingerprintKernelMatchesProgram(t *testing.T) {
	for _, name := range []string{"gemm", "jacobi-2d", "doitgen"} {
		k := eatss.MustKernel(name)
		// Default params, plus one real parameter doubled.
		paramSets := []map[string]int64{nil}
		for p, v := range k.Params {
			paramSets = append(paramSets, map[string]int64{p: v * 2})
			break
		}
		for _, params := range paramSets {
			prog, err := eatss.Analyze(k, params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := eatss.FingerprintKernel(k, params), prog.Fingerprint(); got != want {
				t.Fatalf("%s params=%v: FingerprintKernel = %s, Program.Fingerprint = %s", name, params, got, want)
			}
		}
	}
}
