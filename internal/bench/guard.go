package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The benchmark regression guard: every BENCH_*.json run is appended to
// a BENCH_history.jsonl trajectory, and new runs are compared against
// the median of their comparable predecessors. "Comparable" is strict —
// same report file, kernel, GPU, point count, GOMAXPROCS and host — so
// a fresh CI runner starts its own trajectory (and passes trivially)
// instead of flagging machine-speed differences as regressions.

// HistoryEntry is one benchmark run in BENCH_history.jsonl.
type HistoryEntry struct {
	// File is the report's base name (e.g. "BENCH_sweep.json").
	File       string `json:"file"`
	Kernel     string `json:"kernel"`
	GPU        string `json:"gpu"`
	Points     int64  `json:"points"`
	GOMAXPROCS int64  `json:"gomaxprocs"`
	Host       string `json:"host,omitempty"`
	GitCommit  string `json:"git_commit,omitempty"`
	// GeneratedAt is the report's own timestamp; with File and
	// GitCommit it identifies one measurement, however often the
	// unchanged report is guarded again.
	GeneratedAt string `json:"generated_at,omitempty"`
	RecordedAt  string `json:"recorded_at"`
	// Metrics holds every numeric field of the report. Only the guarded
	// suffixes (see metricDirection) participate in regression checks.
	Metrics map[string]float64 `json:"metrics"`
}

// key identifies the trajectory an entry belongs to.
func (e HistoryEntry) key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%d|%s", e.File, e.Kernel, e.GPU, e.Points, e.GOMAXPROCS, e.Host)
}

// metricDirection says whether a guarded metric regresses by going up
// (+1: lower is better) or down (-1: higher is better). The direction
// is read from the name's unit suffix — latencies (_ms, _per_point_us)
// regress upward, rates (_per_sec) regress downward — so new reports
// opt into gating just by naming their metrics conventionally. The
// static pre-filter's prune_rate also gates: pruning fewer points than
// history means the feasibility analysis got weaker. Unlisted metrics
// are recorded in the history but never gate.
func metricDirection(name string) int {
	switch {
	case strings.HasSuffix(name, "_per_point_us"), strings.HasSuffix(name, "_ms"):
		return +1
	case strings.HasSuffix(name, "_per_sec"):
		return -1
	case name == "speedup", name == "prune_rate":
		return -1
	}
	return 0
}

// GuardedMetric reports whether a metric name participates in
// regression gating.
func GuardedMetric(name string) bool { return metricDirection(name) != 0 }

// Regression is one guarded metric that moved past the noise threshold.
type Regression struct {
	File     string
	Metric   string
	Baseline float64 // median of comparable history
	Current  float64
	// Ratio is current/baseline for lower-is-better metrics and
	// baseline/current for higher-is-better ones: always > 1+tol when
	// reported.
	Ratio   float64
	Samples int // history entries behind the baseline
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s regressed %.1f%% (baseline %.4g over %d run(s), now %.4g)",
		r.File, r.Metric, 100*(r.Ratio-1), r.Baseline, r.Samples, r.Current)
}

// EntryFromReport converts one BENCH_*.json document into a history
// entry: identity fields are lifted from the well-known keys, every
// top-level numeric field becomes a metric.
func EntryFromReport(path string, raw []byte) (HistoryEntry, error) {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return HistoryEntry{}, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	str := func(key string) string {
		s, _ := doc[key].(string)
		return s
	}
	num := func(key string) float64 {
		f, _ := doc[key].(float64)
		return f
	}
	e := HistoryEntry{
		File:        filepath.Base(path),
		Kernel:      str("kernel"),
		GPU:         str("gpu"),
		Points:      int64(num("points")),
		GOMAXPROCS:  int64(num("gomaxprocs")),
		Host:        str("host"),
		GitCommit:   str("git_commit"),
		GeneratedAt: str("generated_at"),
		RecordedAt:  time.Now().UTC().Format(time.RFC3339),
		Metrics:     map[string]float64{},
	}
	for k, v := range doc {
		if f, ok := v.(float64); ok {
			e.Metrics[k] = f
		}
	}
	return e, nil
}

// ReadHistory loads a BENCH_history.jsonl trajectory. A missing file is
// an empty history, not an error. Unparseable lines are skipped: the
// history is append-only telemetry, one corrupt line must not brick the
// gate.
func ReadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// AppendHistory appends one entry to the trajectory file.
func AppendHistory(path string, e HistoryEntry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	buf = append(buf, '\n')
	_, err = f.Write(buf)
	return err
}

// Recorded reports whether history already holds e's measurement: an
// entry with the same file, git commit and generation timestamp. A
// report that was not regenerated since the last run (a bench tool that
// did not run) is then guarded but not appended again. Reports without
// a generation timestamp are never treated as recorded.
func Recorded(history []HistoryEntry, e HistoryEntry) bool {
	if e.GeneratedAt == "" {
		return false
	}
	for _, h := range history {
		if h.File == e.File && h.GitCommit == e.GitCommit && h.GeneratedAt == e.GeneratedAt {
			return true
		}
	}
	return false
}

// baselineWindow bounds how much history feeds the baseline: the
// median is taken over the most recent runs only, so the gate tracks
// the trajectory (including machine-speed drift on a shared box)
// instead of judging today's run against conditions from weeks ago.
const baselineWindow = 8

// Guard compares a new run against the median of its recent comparable
// history (the last baselineWindow runs) and returns every guarded
// metric that regressed beyond tol (relative; 0.15 means "15% worse
// than baseline fails"). An entry with no comparable history passes
// trivially — the first run on a machine starts the trajectory it will
// be judged against.
func Guard(history []HistoryEntry, e HistoryEntry, tol float64) []Regression {
	var comparable []HistoryEntry
	for _, h := range history {
		if h.key() == e.key() {
			comparable = append(comparable, h)
		}
	}
	if len(comparable) == 0 {
		return nil
	}
	if len(comparable) > baselineWindow {
		comparable = comparable[len(comparable)-baselineWindow:]
	}
	var regs []Regression
	names := make([]string, 0, len(e.Metrics))
	for name := range e.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dir := metricDirection(name)
		if dir == 0 {
			continue
		}
		cur := e.Metrics[name]
		var samples []float64
		for _, h := range comparable {
			if v, ok := h.Metrics[name]; ok && v > 0 {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 || cur <= 0 {
			continue
		}
		base := median(samples)
		var ratio float64
		if dir > 0 {
			ratio = cur / base // lower is better: worse when > 1
		} else {
			ratio = base / cur // higher is better: worse when > 1
		}
		if ratio > 1+tol {
			regs = append(regs, Regression{
				File: e.File, Metric: name,
				Baseline: base, Current: cur,
				Ratio: ratio, Samples: len(samples),
			})
		}
	}
	return regs
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}
