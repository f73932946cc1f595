package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric with its unit and the direction that is
// better. BENCHMARK.json lists the same definitions; a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports, on every workload.
// Each workload defines its op: one select, one space sweep, one request.
var endToEnd = []metricDef{
	// setup_s is the median of setupRepeats input-building set-ups.
	{"setup_s", "s", "lower"},
	// p50_ms is the median op latency. Tail percentiles are printed to
	// stderr, not reported: they do not repeat between runs on a shared
	// machine (see the package documentation).
	{"p50_ms", "ms", "lower"},
	// throughput_per_sec is selects/s, full-space points/s, or the
	// highest request rate that met the latency limit.
	{"throughput_per_sec", "1/s", "higher"},
	// peak_heap_mb is the median over one-second windows of the peak
	// HeapInuse, sampled every 10 ms.
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer the workload does not call reports 0.
var perLayer = []metricDef{
	{"parser.parse_us", "us", "lower"},
	{"lint.lint_us", "us", "lower"},
	{"analysis.analyze_us", "us", "lower"},
	{"feas.derive_us", "us", "lower"},
	{"feas.static_skip_frac", "frac", "higher"},
	{"feas.check_ns", "ns", "lower"},
	{"feas.prune_frac", "frac", "higher"},
	{"core.select_tiles_ms", "ms", "lower"},
	{"core.calls_per_select", "count", "lower"},
	{"core.unsat_frac", "frac", "lower"},
	{"smt.nodes_per_solve", "count", "lower"},
	{"smt.solver_calls_per_solve", "count", "lower"},
	{"smt.nodes_per_ms", "1/ms", "higher"},
	{"symbolic.derive_us", "us", "lower"},
	{"symbolic.eval_us", "us", "lower"},
	{"symbolic.residual_frac", "frac", "lower"},
	{"ppcg.compile_us", "us", "lower"},
	{"gpusim.simulate_us", "us", "lower"},
	{"sweep.engine_us_per_point", "us", "lower"},
	{"sweep.parallel_efficiency", "frac", "higher"},
	{"sweep.exhaustive_points_per_sec", "1/s", "higher"},
	{"sweep.interactive_points_per_sec", "1/s", "higher"},
	{"serve.do_hit_us", "us", "lower"},
	{"serve.do_miss_us", "us", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_p90_ms", "ms", "lower"},
	{"serve.coalesced_frac", "frac", "higher"},
	{"serve.shed_frac", "frac", "lower"},
	{"lru.selection_hit_frac", "frac", "higher"},
	{"lru.program_hit_frac", "frac", "higher"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.backlog_max", "count", "lower"},
	{"runtime.alloc_kb_per_op", "kB", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"trace.coverage_frac", "frac", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

// metricValues maps metric names to measured values.
type metricValues map[string]float64

// outcome is one workload run's result: what was attempted, what failed,
// and the metrics measured.
type outcome struct {
	attempted int
	failed    int
	metrics   metricValues
	// problems holds the first few failure descriptions for stderr.
	problems []string
	// notes are remarks printed to stderr, such as which percentile a
	// tail figure is.
	notes []string
	// counts are work counts of a traced run (search nodes, points by
	// fate, requests by class). The program is deterministic, so they
	// repeat exactly for the same inputs.
	counts map[string]int64
}

func newOutcome() *outcome {
	return &outcome{metrics: make(metricValues), counts: make(map[string]int64)}
}

// count adds n to a work count.
func (o *outcome) count(name string, n int64) { o.counts[name] += n }

// maxProblems bounds the failure descriptions kept for stderr.
const maxProblems = 20

// fail counts one failed op.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// report prints every metric of defs as "name value unit" and then, as
// the last line, the JSON summary. A metric the run did not measure is
// printed as 0.
func report(w io.Writer, defs []metricDef, o *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v := o.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%s %v %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
