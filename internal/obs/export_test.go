package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildFixedTrace records a deterministic span tree and metrics under a
// fake clock into a fresh trace, shared by the exporter tests.
func buildFixedTrace(t *testing.T) *Trace {
	t.Helper()
	base := time.Unix(1700000000, 0).UTC()
	tick := int64(0)
	SetClock(func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 100 * time.Microsecond)
	})
	t.Cleanup(func() { SetClock(nil) })

	ctx, tr := traced(t)
	ctx, pipe := Start(ctx, "pipeline") // t=100us
	sctx, solve := Start(ctx, "solve")  // t=200us
	_, r0 := Start(sctx, "round")       // t=300us
	r0.SetInt("round", 0)
	r0.SetInt("objective", 1024)
	r0.End()                      // t=400us
	_, r1 := Start(sctx, "round") // t=500us
	r1.SetInt("round", 1)
	r1.SetInt("objective", 4096)
	r1.End()                         // t=600us
	solve.End()                      // t=700us
	_, sim := Start(ctx, "simulate") // t=800us
	sim.SetFloat("gflops", 123.5)
	sim.SetStr("gpu", "GA100")
	sim.End()  // t=900us
	pipe.End() // t=1000us

	NewCounter("test.export.nodes").Add(42)
	NewGauge("test.export.ppw").Set(3.5)
	NewHistogram("test.export.occ", 16, 32).Observe(24)
	return tr
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestChromeTraceGolden(t *testing.T) {
	Reset()
	EnableMetrics()
	defer func() {
		Disable()
		Reset()
	}()
	tr := buildFixedTrace(t)

	var buf bytes.Buffer
	if err := WriteChromeTraceOf(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	goldenPath := filepath.Join("testdata", "chrome_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run ChromeTraceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome trace drifted from golden (rerun with -update after verifying).\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Independently of the golden bytes, the file must be valid trace-event
	// JSON with nested, monotonic timestamps.
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metrics MetricsSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(got, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(trace.TraceEvents))
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %s has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur <= 0 {
			t.Errorf("event %s has ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Tid != trace.TraceEvents[0].Tid {
			t.Errorf("event %s on tid %d, want all on root track %d", ev.Name, ev.Tid, trace.TraceEvents[0].Tid)
		}
	}
	// The pipeline event must enclose its children.
	pipe, round := trace.TraceEvents[0], trace.TraceEvents[2]
	if round.Ts < pipe.Ts || round.Ts+round.Dur > pipe.Ts+pipe.Dur {
		t.Errorf("round [%v,%v] not nested in pipeline [%v,%v]",
			round.Ts, round.Ts+round.Dur, pipe.Ts, pipe.Ts+pipe.Dur)
	}
	if v, ok := round.Args["objective"]; !ok || v != float64(1024) {
		t.Errorf("round args = %v, want objective 1024", round.Args)
	}
	if trace.Metrics.Counters["test.export.nodes"] != 42 {
		t.Errorf("metrics snapshot missing counter: %v", trace.Metrics.Counters)
	}
}

func TestTreeSummaryAndJSON(t *testing.T) {
	Reset()
	EnableMetrics()
	defer func() {
		Disable()
		Reset()
	}()
	tr := buildFixedTrace(t)

	tree := TreeSummaryOf(tr.Snapshot())
	for _, want := range []string{"pipeline", "  solve", "    round", "  simulate", "objective=4096"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree summary missing %q:\n%s", want, tree)
		}
	}
	// Indentation must reflect depth: "round" is two levels down.
	if !strings.Contains(tree, "\n    round") {
		t.Errorf("round not doubly indented:\n%s", tree)
	}

	buf, err := json.Marshal(JSONSpans(tr.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		DurNs  int64  `json:"dur_ns"`
	}
	if err := json.Unmarshal(buf, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 {
		t.Fatalf("json spans = %d, want 5", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Error("json lost parent linkage")
	}
	if g := Snapshot().Gauges["test.export.ppw"]; g != 3.5 {
		t.Errorf("metrics gauge = %v, want 3.5", g)
	}
}
