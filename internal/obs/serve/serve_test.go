package serve

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition format against a fixed
// snapshot: counter/gauge/histogram rendering, sorted order, name
// sanitization, cumulative buckets and the +Inf terminator.
func TestWritePrometheusGolden(t *testing.T) {
	s := obs.MetricsSnapshot{
		Counters: map[string]int64{
			"smt.solve_calls": 14,
			"core.selections": 3,
		},
		Gauges: map[string]float64{
			"smt.incumbent_objective": 18432,
			"sweep.hit_rate":          0.625,
		},
		Histograms: map[string]obs.HistogramSnapshot{
			"smt.search_depth": {
				Count:  357,
				Sum:    391.5,
				Bounds: []float64{1, 2, 4},
				Counts: []int64{11, 326, 20, 0},
			},
		},
	}
	var b strings.Builder
	WritePrometheus(&b, s)
	got := b.String()

	path := filepath.Join("testdata", "metrics.prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/serve -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("Prometheus exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"smt.nodes":       "smt_nodes",
		"a-b c/d":         "a_b_c_d",
		"ok_name:subsys":  "ok_name:subsys",
		"2fast":           "_2fast",
		"core.cons.l1":    "core_cons_l1",
		"already_fine_99": "already_fine_99",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHandlerEndpoints drives every endpoint through an httptest server
// with the obs layer live.
func TestHandlerEndpoints(t *testing.T) {
	obs.Reset()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})

	obs.NewCounter("serve.test_counter").Add(7)
	p := obs.BeginSweep("gemm", 100)
	p.PointDone(true, true)
	p.PointDone(false, true)
	obs.SetIncumbent("gemm", 2, 928)
	ctx, _ := obs.StartTrace(context.Background(), "serve-test")
	_, sp := obs.Start(ctx, "serve.test_span")
	sp.End()

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

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "serve_test_counter 7") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var prog struct {
		Sweep *struct {
			Kernel       string  `json:"kernel"`
			Total        int64   `json:"total"`
			Done         int64   `json:"done"`
			CacheHitRate float64 `json:"cache_hit_rate"`
		} `json:"sweep"`
		Incumbent *struct {
			Name      string `json:"name"`
			Objective int64  `json:"objective"`
		} `json:"incumbent"`
	}
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog.Sweep == nil || prog.Sweep.Kernel != "gemm" || prog.Sweep.Total != 100 || prog.Sweep.Done != 2 {
		t.Fatalf("/progress sweep = %+v", prog.Sweep)
	}
	if prog.Sweep.CacheHitRate != 0.5 {
		t.Fatalf("cache_hit_rate = %v, want 0.5", prog.Sweep.CacheHitRate)
	}
	if prog.Incumbent == nil || prog.Incumbent.Name != "gemm" || prog.Incumbent.Objective != 928 {
		t.Fatalf("/progress incumbent = %+v", prog.Incumbent)
	}

	// Spans live only in traces, served per request at /debug/requests;
	// there is no process-wide span log or event ring to dump.
	for _, path := range []string{"/trace", "/flight"} {
		if code, _ := get(path); code != 404 {
			t.Fatalf("%s = %d, want 404", path, code)
		}
	}

	if code, body := get("/"); code != 200 || !strings.Contains(body, "/progress") {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestProfileEndpoint drives the /profile views through the publish
// cycle: 404 before anything is published, then JSON / rendered-report /
// surface views once a profile and a surface land.
func TestProfileEndpoint(t *testing.T) {
	profile.Publish(nil)
	profile.PublishSurface(nil)
	t.Cleanup(func() {
		profile.Publish(nil)
		profile.PublishSurface(nil)
	})

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

	if code, _ := get("/profile"); code != 404 {
		t.Fatalf("/profile before publish = %d, want 404", code)
	}
	if code, _ := get("/profile?view=surface"); code != 404 {
		t.Fatalf("/profile?view=surface before publish = %d, want 404", code)
	}

	p := &profile.Profile{Kernel: "gemm", GPU: "GA100", TimeSec: 0.01, EnergyJ: 2}
	p.Energy.Static = 2
	profile.Publish(p)
	profile.PublishSurface(&profile.Surface{Kernel: "gemm", GPU: "GA100", Dims: []string{"i"}})

	code, body := get("/profile")
	if code != 200 {
		t.Fatalf("/profile = %d", code)
	}
	var got profile.Profile
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/profile not JSON: %v\n%s", err, body)
	}
	if got.Kernel != "gemm" || got.EnergyJ != 2 {
		t.Fatalf("/profile round-trip = %+v", got)
	}
	if code, body := get("/profile?view=report"); code != 200 || !strings.Contains(body, "energy attribution: gemm on GA100") {
		t.Fatalf("/profile?view=report = %d:\n%s", code, body)
	}
	if code, body := get("/profile?view=surface"); code != 200 || !strings.Contains(body, `"dims"`) {
		t.Fatalf("/profile?view=surface = %d:\n%s", code, body)
	}

	// An unknown view is a client error that names the valid views — it
	// must not silently fall back to the default JSON document.
	if code, body := get("/profile?view=suface"); code != 400 ||
		!strings.Contains(body, `"suface"`) || !strings.Contains(body, "surface, report") {
		t.Fatalf("/profile?view=suface = %d:\n%s", code, body)
	}
}

// TestProgressEmptyWhenIdle confirms /progress degrades to an empty
// document when nothing has been published.
func TestProgressEmptyWhenIdle(t *testing.T) {
	obs.Reset()
	rec := httptest.NewRecorder()
	handleProgress(rec, httptest.NewRequest("GET", "/progress", nil))
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if _, ok := v["sweep"]; ok {
		t.Fatalf("idle /progress published a sweep: %s", rec.Body.String())
	}
}

// TestServerStartClose exercises the background listener lifecycle.
func TestServerStartClose(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestServerShutdown exercises the graceful path: Shutdown drains and
// stops the listener, and repeated Shutdown stays safe.
func TestServerShutdown(t *testing.T) {
	s, err := Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Fatal("server still reachable after Shutdown")
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestStartHandlerServesCustomMux pins the seam cmd/eatssd mounts its
// API on: StartHandler serves the caller's handler with the hardened
// listener settings.
func TestStartHandlerServesCustomMux(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/custom", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "custom ok")
	})
	s, err := StartHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/custom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "custom ok" {
		t.Fatalf("custom handler = %d %q", resp.StatusCode, body)
	}
}
