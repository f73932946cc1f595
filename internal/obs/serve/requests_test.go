package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// finishOne pushes one finished request (with a real span tree) through
// the default trace store and returns its trace ID.
func finishOne(t *testing.T, id, status string, httpStatus int) {
	t.Helper()
	ctx, tr := obs.StartTrace(context.Background(), id)
	if tr == nil {
		t.Fatalf("StartTrace(%q) returned no trace (obs disabled?)", id)
	}
	act := &trace.Active{TraceID: id, Op: "solve", Kernel: "gemm", GPU: "ga100", StartAt: time.Now(), Trace: tr}
	trace.Default.Begin(act)
	ctx, root := obs.Start(ctx, "serve.request")
	_, child := obs.Start(ctx, "core.select_tiles")
	child.End()
	root.End()
	trace.Default.Finish(act, trace.Outcome{
		Status: status, HTTPStatus: httpStatus,
		Kernel: "gemm", GPU: "ga100", Duration: 5 * time.Millisecond,
	})
}

// TestDebugRequestsEndpoint drives /debug/requests through the overview
// and every drill-down view.
func TestDebugRequestsEndpoint(t *testing.T) {
	obs.Reset()
	trace.Default.Reset()
	obs.EnableMetrics() // daemon mode: per-request traces, no global capture
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
		trace.Default.Reset()
	})

	const id = "0123456789abcdef0123456789abcdef"
	finishOne(t, id, "error", 422)

	srv := httptest.NewServer(Handler())
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/requests")
	if code != 200 {
		t.Fatalf("/debug/requests = %d:\n%s", code, body)
	}
	var overview struct {
		Recent []struct {
			TraceID    string `json:"trace_id"`
			Status     string `json:"status"`
			KeepReason string `json:"keep_reason"`
			SpanCount  int    `json:"span_count"`
		} `json:"recent"`
		Stats struct {
			Seen     int64 `json:"seen"`
			Retained int64 `json:"retained"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &overview); err != nil {
		t.Fatalf("/debug/requests not JSON: %v\n%s", err, body)
	}
	if len(overview.Recent) != 1 || overview.Recent[0].TraceID != id {
		t.Fatalf("recent table = %+v", overview.Recent)
	}
	if r := overview.Recent[0]; r.Status != "error" || r.KeepReason != "error" || r.SpanCount != 2 {
		t.Fatalf("recent row = %+v", r)
	}
	if overview.Stats.Seen != 1 || overview.Stats.Retained != 1 {
		t.Fatalf("stats = %+v", overview.Stats)
	}

	code, body = get("/debug/requests?trace=" + id)
	if code != 200 {
		t.Fatalf("drill-down = %d:\n%s", code, body)
	}
	var detail struct {
		TraceID string `json:"trace_id"`
		Spans   []struct {
			Name   string `json:"name"`
			Parent uint64 `json:"parent"`
			Trace  string `json:"trace"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("drill-down not JSON: %v\n%s", err, body)
	}
	if detail.TraceID != id || len(detail.Spans) != 2 {
		t.Fatalf("drill-down = %+v", detail)
	}
	if detail.Spans[0].Name != "serve.request" || detail.Spans[1].Name != "core.select_tiles" {
		t.Fatalf("span names = %+v", detail.Spans)
	}
	if detail.Spans[1].Parent == 0 || detail.Spans[1].Trace != id {
		t.Fatalf("child span not nested under root / mislabeled: %+v", detail.Spans[1])
	}

	if code, body := get("/debug/requests?trace=" + id + "&view=tree"); code != 200 ||
		!strings.Contains(body, "core.select_tiles") {
		t.Fatalf("tree view = %d:\n%s", code, body)
	}
	if code, body := get("/debug/requests?trace=" + id + "&view=chrome"); code != 200 ||
		!json.Valid([]byte(body)) || !strings.Contains(body, "serve.request") {
		t.Fatalf("chrome view = %d:\n%s", code, body)
	}
	if code, body := get("/debug/requests?trace=ffffffffffffffffffffffffffffffff"); code != 404 ||
		!strings.Contains(body, "sampled out") {
		t.Fatalf("unknown trace = %d:\n%s", code, body)
	}
	if code, body := get("/debug/requests?trace=" + id + "&view=nope"); code != 400 ||
		!strings.Contains(body, `"nope"`) {
		t.Fatalf("unknown view = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/requests?n=bogus"); code != 400 {
		t.Fatalf("bad n = %d, want 400", code)
	}
}

// TestDebugRequestsActiveTable: a request between Begin and Finish shows
// in the active table with its live span count.
func TestDebugRequestsActiveTable(t *testing.T) {
	obs.Reset()
	trace.Default.Reset()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
		trace.Default.Reset()
	})

	const id = "aaaa0000aaaa0000aaaa0000aaaa0000"
	ctx, tr := obs.StartTrace(context.Background(), id)
	act := &trace.Active{TraceID: id, Op: "best", StartAt: time.Now(), Trace: tr}
	trace.Default.Begin(act)
	_, sp := obs.Start(ctx, "serve.request")

	rec := httptest.NewRecorder()
	handleRequests(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var overview struct {
		Active []struct {
			TraceID string `json:"trace_id"`
			Op      string `json:"op"`
			Spans   int    `json:"spans"`
		} `json:"active"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &overview); err != nil {
		t.Fatal(err)
	}
	if len(overview.Active) != 1 || overview.Active[0].TraceID != id ||
		overview.Active[0].Op != "best" || overview.Active[0].Spans != 1 {
		t.Fatalf("active table = %+v", overview.Active)
	}

	sp.End()
	trace.Default.Finish(act, trace.Outcome{Status: trace.StatusOK, HTTPStatus: 200})
}

// TestHealthMetricsOnScrape: /metrics carries the process health series
// and the GC pause histogram fills once a collection has run.
func TestHealthMetricsOnScrape(t *testing.T) {
	obs.Reset()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	runtime.GC() // guarantee at least one pause in MemStats
	rec := httptest.NewRecorder()
	handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"process_goroutines ",
		"process_heap_inuse_bytes ",
		"process_uptime_seconds ",
		"process_gc_pause_seconds_count ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "process_gc_pause_seconds_count ") {
			if strings.TrimPrefix(line, "process_gc_pause_seconds_count ") == "0" {
				t.Fatalf("gc pause histogram empty after runtime.GC():\n%s", body)
			}
		}
	}
}

// TestWritePrometheusExemplars pins the OpenMetrics-style exemplar
// suffix: buckets with an exemplar carry it, buckets without stay plain.
func TestWritePrometheusExemplars(t *testing.T) {
	ex := &obs.Exemplar{TraceID: "deadbeef", Value: 0.005}
	s := obs.MetricsSnapshot{
		Histograms: map[string]obs.HistogramSnapshot{
			"serve.request_seconds": {
				Count:     3,
				Sum:       0.015,
				Bounds:    []float64{0.001, 0.01},
				Counts:    []int64{1, 2, 0},
				Exemplars: []*obs.Exemplar{nil, ex, nil},
			},
		},
	}
	var b strings.Builder
	WritePrometheus(&b, s)
	got := b.String()
	want := `serve_request_seconds_bucket{le="0.01"} 3 # {trace_id="deadbeef"} 0.005`
	if !strings.Contains(got, want) {
		t.Fatalf("exemplar suffix missing:\n%s", got)
	}
	if !strings.Contains(got, `serve_request_seconds_bucket{le="0.001"} 1`+"\n") {
		t.Fatalf("exemplar leaked onto the wrong bucket:\n%s", got)
	}
}
