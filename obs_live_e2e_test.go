package eatss_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	eatss "repro"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/serve"
)

// progressDoc mirrors the /progress JSON document served by
// internal/obs/serve — redeclared here so the test checks the wire
// format, not the Go types.
type progressDoc struct {
	Sweep *struct {
		Kernel       string  `json:"kernel"`
		Total        int64   `json:"total"`
		Done         int64   `json:"done"`
		CacheHits    int64   `json:"cache_hits"`
		Finished     bool    `json:"finished"`
		CacheHitRate float64 `json:"cache_hit_rate"`
		EtaSec       float64 `json:"eta_sec"`
	} `json:"sweep"`
	Incumbent *struct {
		Name      string `json:"name"`
		Round     int64  `json:"round"`
		Objective int64  `json:"objective"`
	} `json:"incumbent"`
}

// TestIntrospectionServerDuringSweep is the end-to-end check of the
// live introspection story: with observability and the flight recorder
// on, start the HTTP server on an ephemeral port, run a solve and a
// full gemm paper-space sweep, and scrape the endpoints from the
// outside while the sweep runs. /progress must report the sweep with a
// monotone non-decreasing done count that lands exactly on the space
// size; /metrics must be well-formed Prometheus text; /flight and
// /trace must decode as JSON carrying the recorded events and spans.
func TestIntrospectionServerDuringSweep(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()
	flight.Default.Enable()
	defer flight.Default.Disable()
	flight.Default.Reset()

	srv, err := serve.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	k := eatss.MustKernel("gemm")
	g := eatss.GA100()

	// A solve first, so the incumbent climb is visible on /progress and
	// in the flight recorder alongside the sweep.
	if _, err := stage(t, k, nil).SelectTilesCtx(context.Background(), g, eatss.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// The solve's incumbent climb must already be on the flight recorder.
	// Check now: the sweep below records enough events to wrap the ring
	// and evict these early ones.
	if kinds := flightKinds(t, base); !kinds["incumbent"] {
		t.Fatalf("/flight has no incumbent event after a solve; kinds seen: %v", kinds)
	}

	space := eatss.PaperSpace(k) // 3,375 points
	done := make(chan struct{})
	go func() {
		defer close(done)
		eatss.ExploreSpaceOpt(context.Background(), k, g, space,
			eatss.RunConfig{UseShared: true, Precision: eatss.FP64},
			eatss.SweepOptions{Workers: 1, Cache: eatss.NewEvalCache()})
	}()

	// Scrape /progress concurrently with the sweep. The whole space
	// evaluates in well under a second, so don't demand a mid-flight
	// sample — only that every sample we do get is consistent and that
	// the done counter never moves backwards.
	var samples []progressDoc
	lastDone := int64(-1)
	deadline := time.After(30 * time.Second)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-deadline:
			t.Fatal("sweep did not finish within 30s")
		default:
		}
		doc := scrapeProgress(t, base)
		if doc.Sweep != nil && doc.Sweep.Kernel == k.Name {
			if doc.Sweep.Total != int64(len(space)) {
				t.Fatalf("/progress total = %d, want %d", doc.Sweep.Total, len(space))
			}
			if doc.Sweep.Done < lastDone {
				t.Fatalf("/progress done went backwards: %d after %d", doc.Sweep.Done, lastDone)
			}
			if doc.Sweep.Done > doc.Sweep.Total {
				t.Fatalf("/progress done = %d exceeds total %d", doc.Sweep.Done, doc.Sweep.Total)
			}
			lastDone = doc.Sweep.Done
			samples = append(samples, doc)
		}
	}

	// Final state: the finished sweep is still visible with every point
	// accounted for, and the solve's incumbent survived alongside it.
	final := scrapeProgress(t, base)
	if final.Sweep == nil {
		t.Fatal("/progress lost the sweep after it finished")
	}
	if !final.Sweep.Finished || final.Sweep.Done != int64(len(space)) {
		t.Fatalf("/progress final = done %d finished %t, want %d true",
			final.Sweep.Done, final.Sweep.Finished, len(space))
	}
	// The last incumbent may come from the main climb ("gemm") or the
	// secondary shrink pass ("gemm/shrink") — both belong to this solve.
	if final.Incumbent == nil || !strings.HasPrefix(final.Incumbent.Name, k.Name) {
		t.Fatalf("/progress incumbent = %+v, want one named for %s", final.Incumbent, k.Name)
	}
	if len(samples) == 0 {
		t.Fatal("never observed the sweep on /progress")
	}

	checkPrometheus(t, get(t, base+"/metrics"))

	if kinds := flightKinds(t, base); !kinds["sweep_point"] {
		t.Fatalf("/flight has no sweep_point event after a sweep; kinds seen: %v", kinds)
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(get(t, base+"/trace"), &trace); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("/trace carries no span events")
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return body
}

// flightKinds scrapes /flight and returns the set of event kinds in the
// retained ring, after checking the dump itself is well-formed.
func flightKinds(t *testing.T, base string) map[string]bool {
	t.Helper()
	var doc struct {
		Total  int64 `json:"total"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get(t, base+"/flight"), &doc); err != nil {
		t.Fatalf("/flight is not JSON: %v", err)
	}
	if len(doc.Events) == 0 || doc.Total == 0 {
		t.Fatalf("/flight recorded nothing: total=%d events=%d", doc.Total, len(doc.Events))
	}
	kinds := make(map[string]bool, 8)
	for _, e := range doc.Events {
		kinds[e.Kind] = true
	}
	return kinds
}

func scrapeProgress(t *testing.T, base string) progressDoc {
	t.Helper()
	var doc progressDoc
	if err := json.Unmarshal(get(t, base+"/progress"), &doc); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	return doc
}

var promSeries = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})?$`)

// promExemplar is the OpenMetrics-style exemplar suffix histogram
// bucket lines may carry: a label set naming the trace and the
// exemplar's own value.
var promExemplar = regexp.MustCompile(`^\{trace_id="[^"]+"\} \S+$`)

// checkPrometheus validates text against the Prometheus exposition
// format: every line is either a # TYPE comment with a known type or a
// `series value` sample whose name fits the metric charset and whose
// value parses as a float; bucket samples may append an exemplar.
func checkPrometheus(t *testing.T, text []byte) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("/metrics is empty")
	}
	samples := 0
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Fatalf("/metrics bad TYPE line: %q", line)
			}
			continue
		}
		if j := strings.Index(line, " # "); j >= 0 {
			if !promExemplar.MatchString(line[j+3:]) {
				t.Fatalf("/metrics bad exemplar suffix in %q", line)
			}
			line = line[:j]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("/metrics bad sample line: %q", line)
		}
		series, value := line[:i], line[i+1:]
		if !promSeries.MatchString(series) {
			t.Fatalf("/metrics bad series name: %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("/metrics bad sample value in %q: %v", line, err)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("/metrics has no samples")
	}
	for _, want := range []string{"eatss_sweep_cache_misses", "gpusim_simulations", "smt_nodes"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %s after a sweep and a solve", want)
		}
	}
}
