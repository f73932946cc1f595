package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func entryFor(t *testing.T, repoFile string) HistoryEntry {
	t.Helper()
	path := filepath.Join("..", "..", repoFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no %s in repo root: %v", repoFile, err)
	}
	e, err := EntryFromReport(path, raw)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMetricDirection pins the unit-suffix convention the gate reads
// directions from: latencies (_ms, _per_point_us) regress by going up,
// rates (_per_sec, including the older _points_per_sec spelling) by
// going down, and everything else is recorded but never gates.
func TestMetricDirection(t *testing.T) {
	cases := map[string]int{
		"fresh_per_point_us":    +1,
		"p50_ms":                +1,
		"p99_ms":                +1,
		"mean_ms":               +1,
		"staged_points_per_sec": -1,
		"requests_per_sec":      -1,
		"speedup":               -1,
		"wall_sec":              0, // duration of the run, not a latency
		"coalesce_rate":         0,
		"cache_hits":            0,
		"errors":                0,
	}
	for name, want := range cases {
		if got := metricDirection(name); got != want {
			t.Errorf("metricDirection(%q) = %+d, want %+d", name, got, want)
		}
	}
}

// TestGuardPassesOnCurrentBenchFiles replays the repo's committed
// BENCH_*.json values against a history made of the same values: the
// gate must pass — a run identical to its baseline is never a
// regression.
func TestGuardPassesOnCurrentBenchFiles(t *testing.T) {
	for _, file := range []string{"BENCH_analysis.json", "BENCH_sweep.json", "BENCH_serve.json"} {
		e := entryFor(t, file)
		if n := guardedCount(e); n == 0 {
			t.Errorf("%s: no guarded metrics recognized", file)
		}
		history := []HistoryEntry{e, e, e}
		if regs := Guard(history, e, 0.15); len(regs) != 0 {
			t.Errorf("%s: self-comparison regressed: %v", file, regs)
		}
	}
}

// TestGuardFailsOnInjectedRegression degrades every guarded metric of
// the committed BENCH files by 20% — the gate (15% tolerance) must
// fail, and must name the degraded metrics.
func TestGuardFailsOnInjectedRegression(t *testing.T) {
	for _, file := range []string{"BENCH_analysis.json", "BENCH_sweep.json", "BENCH_serve.json"} {
		base := entryFor(t, file)
		history := []HistoryEntry{base, base, base}

		bad := base
		bad.Metrics = map[string]float64{}
		injected := 0
		for name, v := range base.Metrics {
			switch metricDirection(name) {
			case +1: // lower is better: 20% slower
				bad.Metrics[name] = v * 1.20
				injected++
			case -1: // higher is better: 20% less throughput
				bad.Metrics[name] = v / 1.20
				injected++
			default:
				bad.Metrics[name] = v
			}
		}
		if injected == 0 {
			t.Fatalf("%s: nothing to inject", file)
		}
		regs := Guard(history, bad, 0.15)
		if len(regs) != injected {
			t.Fatalf("%s: injected %d regressions, guard caught %d: %v", file, injected, len(regs), regs)
		}
		for _, r := range regs {
			if r.Ratio < 1.15 {
				t.Errorf("%s: reported ratio %.3f below tolerance", file, r.Ratio)
			}
			if r.String() == "" {
				t.Error("empty regression rendering")
			}
		}
	}
}

// TestGuardIgnoresIncomparableHistory pins the trajectory identity: a
// run on a different host (or point count) starts a fresh baseline and
// passes trivially, however slow it is.
func TestGuardIgnoresIncomparableHistory(t *testing.T) {
	base := HistoryEntry{
		File: "BENCH_x.json", Kernel: "gemm", GPU: "GA100",
		Points: 512, GOMAXPROCS: 8, Host: "runner-a",
		Metrics: map[string]float64{"fresh_per_point_us": 10},
	}
	slow := base
	slow.Host = "runner-b"
	slow.Metrics = map[string]float64{"fresh_per_point_us": 1000}
	if regs := Guard([]HistoryEntry{base}, slow, 0.15); len(regs) != 0 {
		t.Fatalf("cross-host comparison produced regressions: %v", regs)
	}
	slower := base
	slower.Metrics = map[string]float64{"fresh_per_point_us": 1000}
	if regs := Guard([]HistoryEntry{base}, slower, 0.15); len(regs) != 1 {
		t.Fatalf("same-host 100x slowdown not caught: %v", regs)
	}
}

// TestGuardUsesMedianBaseline checks the baseline is robust to one
// outlier run in the history.
func TestGuardUsesMedianBaseline(t *testing.T) {
	mk := func(v float64) HistoryEntry {
		return HistoryEntry{
			File: "BENCH_x.json", Kernel: "gemm", GPU: "GA100",
			Points: 512, GOMAXPROCS: 8, Host: "h",
			Metrics: map[string]float64{"staged_per_point_us": v},
		}
	}
	// One anomalously fast run must not drag the baseline down.
	history := []HistoryEntry{mk(10), mk(10.2), mk(1)}
	if regs := Guard(history, mk(11), 0.15); len(regs) != 0 {
		t.Fatalf("median baseline corrupted by outlier: %v", regs)
	}
	if regs := Guard(history, mk(13), 0.15); len(regs) != 1 {
		t.Fatalf("median baseline missed a real regression: %v", regs)
	}
}

// TestGuardBaselineWindowTracksDrift pins the sliding window: once the
// recent trajectory has settled at a slower level (machine drift, not a
// code change), runs matching that level pass — fast runs older than
// the window no longer gate — while a genuine regression against the
// recent level still fails.
func TestGuardBaselineWindowTracksDrift(t *testing.T) {
	mk := func(v float64) HistoryEntry {
		return HistoryEntry{
			File: "BENCH_x.json", Kernel: "gemm", GPU: "GA100",
			Points: 512, GOMAXPROCS: 8, Host: "h",
			Metrics: map[string]float64{"staged_per_point_us": v},
		}
	}
	// Ancient fast epoch, then a full window at the slower level.
	history := []HistoryEntry{mk(1), mk(1), mk(1)}
	for i := 0; i < baselineWindow; i++ {
		history = append(history, mk(10))
	}
	if regs := Guard(history, mk(10.5), 0.15); len(regs) != 0 {
		t.Fatalf("stale fast epoch outside the window still gates: %v", regs)
	}
	if regs := Guard(history, mk(13), 0.15); len(regs) != 1 {
		t.Fatalf("windowed baseline missed a real regression: %v", regs)
	}
}

// TestHistoryRoundTrip exercises the JSONL append/read cycle, including
// tolerance of a corrupt line.
func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	e1 := HistoryEntry{File: "BENCH_a.json", Kernel: "gemm", Metrics: map[string]float64{"speedup": 2}}
	e2 := HistoryEntry{File: "BENCH_b.json", Kernel: "2mm", Metrics: map[string]float64{"speedup": 3}}
	if err := AppendHistory(path, e1); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := AppendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].File != "BENCH_a.json" || got[1].File != "BENCH_b.json" {
		t.Fatalf("history round-trip: %+v", got)
	}
	if missing, err := ReadHistory(filepath.Join(t.TempDir(), "absent.jsonl")); err != nil || missing != nil {
		t.Fatalf("missing history: %v %v", missing, err)
	}
}

// TestRecordedSkipsUnchangedReports pins the history dedup: a report
// whose (file, git commit, generated_at) is already in the history is
// recorded, so benchguard does not append a stale report on every run;
// a regenerated report, another commit or another file is new, and a
// report without a timestamp is never deduplicated.
func TestRecordedSkipsUnchangedReports(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "BENCH_sweep.json")
	write := func(commit, at string) HistoryEntry {
		t.Helper()
		raw := []byte(`{"kernel":"gemm","git_commit":"` + commit + `","generated_at":"` + at + `","seq_sec":0.02}`)
		if err := os.WriteFile(report, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := EntryFromReport(report, raw)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	stale := write("64587fe2b0ef", "2026-08-08T20:29:22Z")
	history := []HistoryEntry{stale}
	if !Recorded(history, stale) {
		t.Fatal("an unchanged report is not recognised as recorded")
	}
	for _, e := range []HistoryEntry{
		write("64587fe2b0ef", "2026-08-09T01:00:00Z"),
		write("520990d6add3", "2026-08-08T20:29:22Z"),
		write("64587fe2b0ef", ""),
	} {
		if Recorded(history, e) {
			t.Errorf("%s@%s (generated %q) treated as already recorded", e.File, e.GitCommit, e.GeneratedAt)
		}
	}
	other := stale
	other.File = "BENCH_serve.json"
	if Recorded(history, other) {
		t.Error("another file's report treated as recorded")
	}
	if Recorded([]HistoryEntry{write("64587fe2b0ef", "")}, write("64587fe2b0ef", "")) {
		t.Error("untimestamped reports deduplicated")
	}
}

func guardedCount(e HistoryEntry) int {
	n := 0
	for name := range e.Metrics {
		if GuardedMetric(name) {
			n++
		}
	}
	return n
}
