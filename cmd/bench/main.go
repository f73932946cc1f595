package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 15

// env is what every workload's set-up sees.
type env struct {
	root    string // repository root, for testdata/kernels
	golden  *golden
	seed    int64
	seconds time.Duration // measured time per workload
}

// rng returns a generator for one stream of the run's seed, so each
// workload's draws depend on the seed alone.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(e.seed), stream))
}

// runner is one workload's set-up state.
type runner interface {
	// fill computes the golden answer for every pooled input.
	fill(g *golden)
	// run measures for d, checks every answer against the golden file,
	// and stores the end-to-end metrics.
	run(d time.Duration, o *outcome)
	// runTraced measures for d with every layer call traced, checks the
	// traced answers against the untraced ones, and stores the
	// per-layer metrics.
	runTraced(d time.Duration, tr *tracer, o *outcome)
	// gate replays the pooled inputs' answers through the independent
	// certifiers. It runs after the timed region, so nothing it computes
	// can serve a timed op.
	gate(o *outcome)
}

// workload names a workload and builds its inputs from the seed.
type workload struct {
	name  string
	setup func(e *env) (runner, error)
}

// workloads are listed in BENCHMARK.json in this order. serve-mixed is
// last because it switches on the daemon's process-wide observability.
var workloads = []workload{
	{"select-catalog", setupSelectCatalog},
	{"select-wide", setupSelectWide},
	{"sweep", setupSweep},
	{"serve-mixed", setupServe},
}

// errFailed reports a run whose answers did not all match the reference.
var errFailed = errors.New("outputs did not match the reference")

func main() {
	name := flag.String("workload", "all", "workload to run: select-catalog | select-wide | sweep | serve-mixed | all")
	seed := flag.Int64("seed", 1, "seed for input order, problem-size draws and arrival times")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	traced := flag.Int("trace", 0, "1 traces every layer call and reports per-layer metrics instead of end-to-end ones")
	spans := flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	root := flag.String("root", ".", "repository root (holds testdata/kernels)")
	writeGolden := flag.String("write-golden", "", "compute every pooled input's answer, write the golden file to this path, and exit")
	flag.Parse()
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", *traced)
	case *seconds < 0:
		err = fmt.Errorf("-seconds %d: want 0 or more", *seconds)
	case *writeGolden != "":
		err = writeGoldenFile(*root, *writeGolden)
	default:
		e := &env{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		err = runAll(os.Stdout, e, *name, *traced == 1, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runAll runs one workload, or all of them in turn, and prints the
// metrics. With more than one workload each metric name is prefixed with
// its workload's.
func runAll(w io.Writer, e *env, name string, traced bool, spans string) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	e.golden = g
	var sel []workload
	for _, wl := range workloads {
		if name == "all" || name == wl.name {
			sel = append(sel, wl)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	total := newOutcome()
	var all []metricDef
	for _, wl := range sel {
		o, err := runWorkload(e, wl, traced, spans)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		for _, n := range o.notes {
			fmt.Fprintf(os.Stderr, "%s: %s\n", wl.name, n)
		}
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", wl.name, p)
		}
		prefix := ""
		if len(sel) > 1 {
			prefix = wl.name + "."
		}
		for _, d := range defs {
			all = append(all, metricDef{prefix + d.Name, d.Unit, d.Better})
			total.metrics[prefix+d.Name] = o.metrics[d.Name]
		}
		total.attempted += o.attempted
		total.failed += o.failed
	}
	if err := report(w, all, total); err != nil {
		return err
	}
	if total.failed > 0 {
		return errFailed
	}
	return nil
}

// runWorkload sets the workload up setupRepeats times, measures it, and
// gates it.
func runWorkload(e *env, wl workload, traced bool, spans string) (*outcome, error) {
	o := newOutcome()
	var r runner
	setups := make([]float64, setupRepeats)
	for i := range setups {
		// Each set-up starts from a collected heap, so the collections
		// its allocations trigger fall at the same points every time.
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = wl.setup(e); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	if traced {
		keep := 0
		if spans != "" {
			keep = maxKeptSpans
		}
		tr := newTracer(keep)
		r.runTraced(e.seconds, tr, o)
		r.gate(o)
		if spans != "" {
			return o, tr.write(spans)
		}
		return o, nil
	}
	heap := startHeapSampler()
	r.run(e.seconds, o)
	o.metrics["peak_heap_mb"] = heap.stopMB()
	o.note("set-ups took %.4g s", setups)
	sort.Float64s(setups)
	o.metrics["setup_s"] = median(setups)
	r.gate(o)
	return o, nil
}

// writeGoldenFile computes the answer for every pooled input of every
// workload and writes the golden file.
func writeGoldenFile(root, path string) error {
	g := &golden{}
	// serve-mixed builds its solve requests at these warp fractions, so
	// they come first.
	wf, err := feasibleWarpFracs(root)
	if err != nil {
		return err
	}
	g.WarpFrac = wf
	e := &env{root: root, golden: g, seed: 1, seconds: time.Second}
	for _, wl := range workloads {
		r, err := wl.setup(e)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		r.fill(g)
	}
	return g.write(path)
}
