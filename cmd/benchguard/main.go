// Command benchguard is the benchmark regression gate: it reads the
// repo's BENCH_*.json reports, compares each against the median of its
// recent comparable history in BENCH_history.jsonl (the last 8 runs
// with the same file, kernel, GPU, point count, GOMAXPROCS and host —
// a sliding window, so the baseline tracks machine drift), appends the
// new runs to the history (a report already recorded under the same
// file, git commit and generation time is not appended again), and
// exits non-zero when a guarded metric — per-point time, speedup,
// points/sec — regressed beyond the noise threshold. The Makefile's
// `bench-guard` target runs it after the bench tools, so `make check`
// (and CI) fails when a hot path gets slower.
//
//	benchguard                                   # guard ./BENCH_*.json
//	benchguard -tol 0.25 BENCH_sweep.json        # custom threshold/files
//	benchguard -check-only                       # compare, don't append
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/cli"
)

func main() {
	historyPath := flag.String("history", "BENCH_history.jsonl", "trajectory file (JSONL, append-only)")
	tol := flag.Float64("tol", 0.15, "relative noise threshold: a guarded metric this much worse than its baseline fails")
	checkOnly := flag.Bool("check-only", false, "compare against history without appending the new runs")
	cli.SetUsage("benchguard", "gate benchmark regressions against the BENCH_history.jsonl trajectory",
		"benchguard                                   # guard ./BENCH_*.json",
		"benchguard -tol 0.25 BENCH_sweep.json        # custom threshold/files",
		"benchguard -check-only                       # compare, don't append")
	flag.Parse()

	files := flag.Args()
	if len(files) == 0 {
		var err error
		files, err = filepath.Glob("BENCH_*.json")
		if err != nil {
			fatal(err)
		}
	}
	if len(files) == 0 {
		fmt.Println("benchguard: no BENCH_*.json reports found, nothing to guard")
		return
	}

	history, err := bench.ReadHistory(*historyPath)
	if err != nil {
		fatal(err)
	}

	var failures []bench.Regression
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		e, err := bench.EntryFromReport(file, raw)
		if err != nil {
			fatal(err)
		}
		regs := bench.Guard(history, e, *tol)
		failures = append(failures, regs...)
		baseline := "no comparable history (trajectory starts here)"
		if n := comparableRuns(history, e); n > 0 {
			baseline = fmt.Sprintf("baseline over %d comparable run(s)", n)
		}
		fmt.Printf("benchguard: %s: %d guarded metric(s), %s, %d regression(s)\n",
			e.File, guardedCount(e), baseline, len(regs))
		for _, r := range regs {
			fmt.Printf("  REGRESSION %s\n", r)
		}
		switch {
		case *checkOnly:
		case bench.Recorded(history, e):
			fmt.Printf("  %s (generated %s) is already in the history, not appended\n", e.File, e.GeneratedAt)
		default:
			if err := bench.AppendHistory(*historyPath, e); err != nil {
				fatal(err)
			}
		}
	}
	if len(failures) > 0 {
		fmt.Printf("benchguard: FAIL — %d regression(s) beyond %.0f%% tolerance\n", len(failures), 100**tol)
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

func comparableRuns(history []bench.HistoryEntry, e bench.HistoryEntry) int {
	n := 0
	for _, h := range history {
		if h.File == e.File && h.Kernel == e.Kernel && h.GPU == e.GPU &&
			h.Points == e.Points && h.GOMAXPROCS == e.GOMAXPROCS && h.Host == e.Host {
			n++
		}
	}
	return n
}

func guardedCount(e bench.HistoryEntry) int {
	n := 0
	for name := range e.Metrics {
		if bench.GuardedMetric(name) {
			n++
		}
	}
	return n
}

func fatal(err error) { cli.Fatal(err) }
