package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
)

func TestSweepProgressLifecycle(t *testing.T) {
	withEnabled(t, func() {
		p := BeginSweep("gemm", 10)
		if p == nil {
			t.Fatal("BeginSweep returned nil while enabled")
		}
		if got := CurrentSweep(); got != p {
			t.Fatal("CurrentSweep does not return the active sweep")
		}
		p.PointDone(false, true)
		p.PointDone(true, true)
		p.PointDone(false, false)
		if p.Done() != 3 || p.CacheHits() != 1 || p.Skipped() != 1 {
			t.Fatalf("done/hits/skipped = %d/%d/%d, want 3/1/1", p.Done(), p.CacheHits(), p.Skipped())
		}
		if p.Finished() {
			t.Fatal("sweep finished early")
		}
		p.Finish()
		if !p.Finished() {
			t.Fatal("Finish did not mark the sweep")
		}
	})
}

func TestProgressDisabledReturnsNil(t *testing.T) {
	Disable()
	Reset()
	if p := BeginSweep("gemm", 10); p != nil {
		t.Fatal("BeginSweep returned a handle while disabled")
	}
	// All methods must be nil-safe.
	var p *SweepProgress
	p.PointDone(true, true)
	p.Finish()
	if p.Done() != 0 || p.Finished() {
		t.Fatal("nil progress handle misbehaves")
	}
	SetIncumbent("x", 1, 2)
	if _, ok := Incumbent(); ok {
		t.Fatal("incumbent published while disabled")
	}
}

func TestIncumbentState(t *testing.T) {
	withEnabled(t, func() {
		SetIncumbent("gemm", 3, 928)
		inc, ok := Incumbent()
		if !ok {
			t.Fatal("no incumbent published")
		}
		if inc.Name != "gemm" || inc.Round != 3 || inc.Objective != 928 || inc.TimeNs == 0 {
			t.Fatalf("incumbent = %+v", inc)
		}
		Reset()
		if _, ok := Incumbent(); ok {
			t.Fatal("incumbent survived Reset")
		}
	})
}

func TestObserveN(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("test.observe_n", 2, 4)
		h.ObserveN(1, 5)  // first bucket
		h.ObserveN(3, 2)  // second bucket
		h.ObserveN(10, 1) // overflow
		h.ObserveN(1, 0)  // no-op
		h.ObserveN(1, -3) // no-op
		hs := Snapshot().Histograms["test.observe_n"]
		if hs.Count != 8 {
			t.Fatalf("count = %d, want 8", hs.Count)
		}
		want := []int64{5, 2, 1}
		for i, n := range want {
			if hs.Counts[i] != n {
				t.Fatalf("bucket[%d] = %d, want %d", i, hs.Counts[i], n)
			}
		}
		if hs.Sum != 5*1+2*3+10 {
			t.Fatalf("sum = %v, want 21", hs.Sum)
		}
	})
}

func TestLogHandlerTagsSpan(t *testing.T) {
	withEnabled(t, func() {
		var buf bytes.Buffer
		logger := NewLogger(&buf, slog.LevelInfo)
		ctx, _ := traced(t)
		ctx, sp := Start(ctx, "log.test")
		logger.InfoContext(ctx, "solving", "kernel", "gemm")
		logger.Info("no span here")
		sp.End()

		out := buf.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 2 {
			t.Fatalf("log lines = %d, want 2:\n%s", len(lines), out)
		}
		if !strings.Contains(lines[0], fmt.Sprintf("span=%d", sp.ID)) || !strings.Contains(lines[0], "kernel=gemm") {
			t.Fatalf("span-context record not tagged: %s", lines[0])
		}
		if strings.Contains(lines[1], "span=") {
			t.Fatalf("span tag leaked onto spanless record: %s", lines[1])
		}
	})
}

func TestLogHandlerWithAttrsAndGroup(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo).With("tool", "eatss").WithGroup("g")
	logger.Info("hi", "k", "v")
	out := buf.String()
	if !strings.Contains(out, "tool=eatss") || !strings.Contains(out, "g.k=v") {
		t.Fatalf("WithAttrs/WithGroup lost: %s", out)
	}
}

// TestLiveObsOverheadDisabled extends the zero-alloc guard over the live
// paths: live progress, incumbent publication and level-filtered slog
// calls must all cost nothing when the layer is disabled.
func TestLiveObsOverheadDisabled(t *testing.T) {
	Disable()
	Reset()
	logger := NewLogger(io.Discard, slog.LevelError)
	ctx := context.Background()
	c := NewCounter("test.live_overhead")
	h := NewHistogram("test.live_overhead_hist", 1, 2)
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, sp := Start(ctx, "hot")
		sp.End()
		c.Add(1)
		h.ObserveN(1, 3)
		p := BeginSweep("k", 10)
		p.PointDone(false, true)
		p.Finish()
		SetIncumbent("k", 1, 2)
		logger.DebugContext(ctx2, "below level")
	})
	if allocs != 0 {
		t.Fatalf("disabled live-observability path allocates %.1f per cycle, want 0", allocs)
	}
}

// TestListenPostureStartDoesNotAllocate guards the posture of a CLI
// under -listen (and of eatssd with -no-request-traces): metrics on, no
// trace in the context. Start must return the nil span and allocate
// nothing, so untraced figure code costs a long run no memory.
func TestListenPostureStartDoesNotAllocate(t *testing.T) {
	withEnabled(t, func() {
		ctx := context.Background()
		allocs := testing.AllocsPerRun(1000, func() {
			ctx2, sp := Start(ctx, "gpusim.simulate")
			sp.SetInt("points", 1)
			sp.End()
			if sp != nil || ctx2 != ctx {
				t.Fatal("Start recorded a span without a trace")
			}
		})
		if allocs != 0 {
			t.Fatalf("untraced Start under -listen allocates %.1f per call, want 0", allocs)
		}
	})
}
