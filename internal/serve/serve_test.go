package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	eatss "repro"

	"repro/internal/obs"
)

// --- concurrency contract -------------------------------------------------

// TestHerdCoalescesToOneSolve is the daemon's core contract: N identical
// concurrent cold-cache solve requests trigger exactly one underlying
// solve; the other N-1 coalesce onto it.
func TestHerdCoalescesToOneSolve(t *testing.T) {
	s := New(Config{})
	const n = 6
	s.solveHook = func(key string) {
		// Hold the solve open until the whole herd has attached, so the
		// outcome cannot depend on scheduling luck. The hook runs on the
		// detached leader goroutine, so it must not t.Fatal.
		spin(func() bool { return s.flights.waiters(key) == n })
	}

	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
		}()
	}
	wg.Wait()

	if got := s.solves.Load(); got != 1 {
		t.Fatalf("herd of %d triggered %d solves, want exactly 1", n, got)
	}
	coalesced := 0
	for i, r := range resps {
		if r.Status != StatusOK {
			t.Fatalf("resp %d: status %s (%s)", i, r.Status, r.Error)
		}
		if r.Selection == nil || len(r.Selection.Tiles) == 0 {
			t.Fatalf("resp %d: no tiles", i)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d responses coalesced, want %d", coalesced, n-1)
	}

	// The herd's result is cached: a follow-up request is a pure hit.
	r := s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	if !r.Cached || r.Coalesced {
		t.Fatalf("follow-up: cached=%t coalesced=%t, want cached only", r.Cached, r.Coalesced)
	}
}

// TestCatalogHerdOverHTTP holds the service to its acceptance bar over
// real HTTP, for every catalog kernel on GA100. A herd of identical
// cold-cache solves must coalesce onto one leader. A formulation that is
// unsatisfiable (422) is retried as a fresh herd at the next finer warp
// fraction, the paper's Sec. V-D fallback. A simulate at the feasible
// fraction must then succeed. Any other error fails the test.
func TestCatalogHerdOverHTTP(t *testing.T) {
	const herd = 8
	s := New(Config{})
	// Hold each leader until its whole herd has attached, as in
	// TestHerdCoalescesToOneSolve. Later requests hit the cache and never
	// reach the hook.
	s.solveHook = func(key string) {
		spin(func() bool { return s.flights.waiters(key) == herd })
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, kernel := range eatss.Kernels() {
		feasible := 0.0
		for i, wf := range eatss.WarpFractions {
			body := fmt.Sprintf(`{"kernel":%q,"gpu":"ga100","warpfrac":%g}`, kernel, wf)
			solves := s.solves.Load()
			resps := make([]*Response, herd)
			errs := make([]error, herd)
			var wg sync.WaitGroup
			for j := range resps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[j], errs[j] = postAsync(ts, "/v1/solve", body)
				}()
			}
			wg.Wait()

			coalesced, unsat := 0, 0
			for j, r := range resps {
				switch {
				case errs[j] != nil:
					t.Fatalf("%s warpfrac %g: %v", kernel, wf, errs[j])
				case r.HTTPStatus == http.StatusUnprocessableEntity && strings.Contains(r.Error, "unsatisfiable") &&
					i+1 < len(eatss.WarpFractions):
					unsat++
				case r.Status != StatusOK:
					t.Fatalf("%s warpfrac %g: unexpected %s (HTTP %d): %s", kernel, wf, r.Status, r.HTTPStatus, r.Error)
				}
				if r.Coalesced {
					coalesced++
				}
			}
			// An error response does not carry the coalesced flag, so every
			// herd is held to one underlying solve.
			if got := s.solves.Load() - solves; got != 1 {
				t.Fatalf("%s warpfrac %g: a herd of %d ran %d solves, want 1", kernel, wf, herd, got)
			}
			if unsat == herd {
				continue
			}
			if unsat != 0 {
				t.Fatalf("%s warpfrac %g: %d of a herd of %d unsatisfiable", kernel, wf, unsat, herd)
			}
			if coalesced != herd-1 {
				t.Fatalf("%s warpfrac %g: %d of a herd of %d coalesced, want %d", kernel, wf, coalesced, herd, herd-1)
			}
			feasible = wf
			break
		}

		r, err := postAsync(ts, "/v1/simulate", fmt.Sprintf(`{"kernel":%q,"gpu":"ga100","warpfrac":%g}`, kernel, feasible))
		if err != nil {
			t.Fatalf("%s simulate: %v", kernel, err)
		}
		if r.Status != StatusOK || r.Result == nil {
			t.Fatalf("%s simulate at warpfrac %g: %s (HTTP %d): %s", kernel, feasible, r.Status, r.HTTPStatus, r.Error)
		}
	}
}

// TestDeadlineReturnsTimeoutWithoutKillingWork: a request whose deadline
// expires gets a timeout status, the server stays healthy, and the
// abandoned solve still completes and lands in the cache.
func TestDeadlineReturnsTimeoutWithoutKillingWork(t *testing.T) {
	s := New(Config{})
	release := make(chan struct{})
	s.solveHook = func(string) { <-release }

	r := s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm", TimeoutMs: 50})
	if r.Status != StatusTimeout {
		t.Fatalf("status = %s (%s), want %s", r.Status, r.Error, StatusTimeout)
	}
	if r.HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("http status = %d, want 504", r.HTTPStatus)
	}

	// The solve was abandoned, not cancelled: release it and it caches.
	close(release)
	spinUntil(t, func() bool { return s.selections.Len() == 1 })
	s.solveHook = nil
	r = s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	if r.Status != StatusOK || !r.Cached {
		t.Fatalf("post-timeout request: status=%s cached=%t, want ok from cache", r.Status, r.Cached)
	}
}

// TestOverloadSheds: with one execution slot and a one-deep queue, a
// third distinct request is refused with the shed status (HTTP 429)
// instead of queueing without bound.
func TestOverloadSheds(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: 1})
	release := make(chan struct{})
	s.solveHook = func(key string) {
		// Block only the first solve (split 0.5); later solves run free.
		if strings.Split(key, "|")[3] == "0.5" {
			<-release
		}
	}

	// A occupies the only slot.
	done := make(chan *Response, 2)
	go func() {
		done <- s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	}()
	spinUntil(t, func() bool { return s.adm.inFlight() == 1 })

	// B fills the queue.
	split := 0.25
	go func() {
		done <- s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm", Split: &split})
	}()
	spinUntil(t, func() bool { return s.adm.queueDepth() == 1 })

	// C is shed at the door.
	split2 := 0.75
	r := s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm", Split: &split2})
	if r.Status != StatusShed {
		t.Fatalf("status = %s (%s), want %s", r.Status, r.Error, StatusShed)
	}
	if r.HTTPStatus != http.StatusTooManyRequests {
		t.Fatalf("http status = %d, want 429", r.HTTPStatus)
	}

	close(release)
	<-done
	<-done

	// The gate fully drains: the server keeps serving.
	spinUntil(t, func() bool { return s.adm.inFlight() == 0 && s.adm.queueDepth() == 0 })
	r = s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	if r.Status != StatusOK {
		t.Fatalf("post-shed request: status = %s (%s), want ok", r.Status, r.Error)
	}
}

// --- HTTP API -------------------------------------------------------------

func TestEndpoints(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("lint", func(t *testing.T) {
		r := post(t, ts, "/v1/lint", `{"kernel":"gemm"}`, http.StatusOK)
		if r.Status != StatusOK || r.Kernel != "gemm" {
			t.Fatalf("status=%s kernel=%s", r.Status, r.Kernel)
		}
	})

	t.Run("analyze", func(t *testing.T) {
		r := post(t, ts, "/v1/analyze", `{"kernel":"gemm"}`, http.StatusOK)
		if r.Analysis == nil || r.Analysis.Fingerprint == "" || r.Analysis.Nests == 0 {
			t.Fatalf("analysis view missing: %+v", r.Analysis)
		}
		if r.Fingerprint != r.Analysis.Fingerprint {
			t.Fatal("envelope and view fingerprints disagree")
		}
	})

	t.Run("analyze source", func(t *testing.T) {
		src, err := json.Marshal(eatss.WriteKernel(eatss.MustKernel("atax")))
		if err != nil {
			t.Fatal(err)
		}
		r := post(t, ts, "/v1/analyze", fmt.Sprintf(`{"source":%s}`, src), http.StatusOK)
		if r.Status != StatusOK || r.Kernel != "atax" {
			t.Fatalf("status=%s kernel=%s (%s)", r.Status, r.Kernel, r.Error)
		}
	})

	t.Run("solve then cache hit", func(t *testing.T) {
		r := post(t, ts, "/v1/solve", `{"kernel":"syrk"}`, http.StatusOK)
		if r.Selection == nil || len(r.Selection.Tiles) == 0 {
			t.Fatal("no tiles in solve response")
		}
		if r.Cached {
			t.Fatal("first solve reported a cache hit")
		}
		r2 := post(t, ts, "/v1/solve", `{"kernel":"syrk"}`, http.StatusOK)
		if !r2.Cached {
			t.Fatal("second identical solve missed the cache")
		}
		if r2.Selection.Objective != r.Selection.Objective {
			t.Fatal("cached solve returned a different objective")
		}
	})

	t.Run("solve options key separately", func(t *testing.T) {
		r := post(t, ts, "/v1/solve", `{"kernel":"syrk","fp32":true}`, http.StatusOK)
		if r.Cached {
			t.Fatal("different precision must not share the FP64 cache entry")
		}
	})

	t.Run("compile", func(t *testing.T) {
		r := post(t, ts, "/v1/compile", `{"kernel":"gemm","tiles":{"i":32,"j":32,"k":32}}`, http.StatusOK)
		if r.Mapping == nil || len(r.Mapping.Nests) == 0 || r.Mapping.CUDA == "" {
			t.Fatalf("mapping view missing: %+v", r.Mapping)
		}
	})

	t.Run("simulate solves when no tiles given", func(t *testing.T) {
		r := post(t, ts, "/v1/simulate", `{"kernel":"mvt"}`, http.StatusOK)
		if r.Selection == nil {
			t.Fatal("tile-less simulate should report the selection it solved")
		}
		if r.Result == nil || r.Result.GFLOPS <= 0 || r.Result.EnergyJ <= 0 {
			t.Fatalf("result view missing or degenerate: %+v", r.Result)
		}
	})

	t.Run("best", func(t *testing.T) {
		r := post(t, ts, "/v1/best", `{"kernel":"gemm"}`, http.StatusOK)
		if len(r.Candidates) == 0 || r.Result == nil || r.Result.PPW <= 0 {
			t.Fatalf("best view missing: %d candidates, result %+v", len(r.Candidates), r.Result)
		}
	})

	t.Run("batch", func(t *testing.T) {
		body := `{"requests":[{"op":"lint","kernel":"gemm"},{"op":"solve","kernel":"bicg"},{"op":"nope","kernel":"gemm"}]}`
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status = %d, want 200", resp.StatusCode)
		}
		var out batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Responses) != 3 {
			t.Fatalf("%d responses, want 3", len(out.Responses))
		}
		if out.Responses[0].Op != "lint" || out.Responses[0].Status != StatusOK {
			t.Fatalf("entry 0: %+v", out.Responses[0])
		}
		if out.Responses[1].Selection == nil {
			t.Fatal("entry 1: no selection")
		}
		if out.Responses[2].Status != StatusError {
			t.Fatalf("entry 2: status %s, want error for unknown op", out.Responses[2].Status)
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Solves == 0 || st.SelectionCache.Len == 0 {
			t.Fatalf("stats look untouched after traffic: %+v", st)
		}
	})

	t.Run("introspection mounted", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics status = %d, want 200", resp.StatusCode)
		}
	})
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"unknown kernel", "/v1/solve", `{"kernel":"nope"}`, http.StatusBadRequest},
		{"no kernel", "/v1/solve", `{}`, http.StatusBadRequest},
		{"kernel and source", "/v1/solve", `{"kernel":"gemm","source":"x"}`, http.StatusBadRequest},
		{"unknown gpu", "/v1/solve", `{"kernel":"gemm","gpu":"h100"}`, http.StatusBadRequest},
		{"unknown evaluator", "/v1/simulate", `{"kernel":"gemm","evaluator":"z3"}`, http.StatusBadRequest},
		{"bad source", "/v1/analyze", `{"source":"not a kernel"}`, http.StatusBadRequest},
		{"infeasible formulation", "/v1/solve", `{"kernel":"conv-2d"}`, http.StatusUnprocessableEntity},
		{"split above 1", "/v1/solve", `{"kernel":"gemm","split":2}`, http.StatusBadRequest},
		{"negative split", "/v1/compile", `{"kernel":"gemm","split":-0.5}`, http.StatusBadRequest},
		{"split 1", "/v1/solve", `{"kernel":"gemm","split":1}`, http.StatusOK},
		{"negative warpfrac", "/v1/solve", `{"kernel":"gemm","warpfrac":-1}`, http.StatusBadRequest},
		{"huge warpfrac", "/v1/simulate", `{"kernel":"gemm","warpfrac":1e308}`, http.StatusBadRequest},
		{"zero warpfrac", "/v1/solve", `{"kernel":"gemm","warpfrac":0}`, http.StatusBadRequest},
		{"warpfrac 1", "/v1/solve", `{"kernel":"gemm","warpfrac":1}`, http.StatusOK},
		// Below one thread of GA100's 32-thread warp: rejected, not
		// rounded up to a one-thread alignment step.
		{"subthread warpfrac", "/v1/solve", `{"kernel":"gemm","warpfrac":1e-300}`, http.StatusBadRequest},
		{"warpfrac just under a thread", "/v1/simulate", `{"kernel":"gemm","warpfrac":0.03}`, http.StatusBadRequest},
		{"warpfrac one thread", "/v1/solve", `{"kernel":"gemm","warpfrac":0.03125}`, http.StatusOK},
		{"empty batch", "/v1/batch", `{"requests":[]}`, http.StatusBadRequest},
		// Regression: a null batch entry decoded to a nil *Request and
		// panicked inside a handler-spawned goroutine, crashing the whole
		// process (net/http's recover only covers the handler goroutine).
		{"null entry in batch", "/v1/batch", `{"requests":[null]}`, http.StatusBadRequest},
		{"null entry amid valid ones", "/v1/batch", `{"requests":[{"op":"lint","kernel":"gemm"},null]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("malformed json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})
}

// TestNilRequest: Do must never dereference a nil request (the /v1/batch
// handler guards its entries, but Do is public API and must hold on its
// own).
func TestNilRequest(t *testing.T) {
	s := New(Config{})
	r := s.Do(context.Background(), nil)
	if r == nil {
		t.Fatal("Do(nil) returned nil response")
	}
	if r.Status != StatusError || r.HTTPStatus != http.StatusBadRequest {
		t.Fatalf("Do(nil): status=%s http=%d, want %s/400", r.Status, r.HTTPStatus, StatusError)
	}
}

// TestClientCancelIsNotATimeout: a client that disconnects mid-request
// (context cancelled) gets the cancelled status, not 504/timeout, so
// churny clients don't inflate the serve.timeouts metric.
func TestClientCancelIsNotATimeout(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	s := New(Config{})
	release := make(chan struct{})
	s.solveHook = func(string) { <-release }
	timeoutsBefore := mTimeouts.Value()
	cancelledBefore := mCancelled.Value()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *Response, 1)
	go func() {
		done <- s.Do(ctx, &Request{Op: "solve", Kernel: "gemm"})
	}()
	spinUntil(t, func() bool { return s.adm.inFlight() == 1 })
	cancel()
	r := <-done

	if r.Status != StatusCancelled {
		t.Fatalf("status = %s (%s), want %s", r.Status, r.Error, StatusCancelled)
	}
	if r.HTTPStatus != statusClientClosed {
		t.Fatalf("http status = %d, want %d", r.HTTPStatus, statusClientClosed)
	}
	if got := mTimeouts.Value(); got != timeoutsBefore {
		t.Fatalf("serve.timeouts moved %d -> %d on a client cancel", timeoutsBefore, got)
	}
	if got := mCancelled.Value(); got != cancelledBefore+1 {
		t.Fatalf("serve.cancelled moved %d -> %d, want +1", cancelledBefore, got)
	}

	// The detached solve is unaffected: release it and it caches.
	close(release)
	spinUntil(t, func() bool { return s.selections.Len() == 1 })
}

// TestInflightGaugeDrains: serve.inflight must track both edges of the
// admission gate — >=1 while a solve holds a slot, back to 0 once
// traffic drains (it used to stick at the last post-acquire value).
func TestInflightGaugeDrains(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	s := New(Config{})
	release := make(chan struct{})
	s.solveHook = func(string) { <-release }

	done := make(chan *Response, 1)
	go func() {
		done <- s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	}()
	spinUntil(t, func() bool { return mInflight.Value() >= 1 })
	close(release)
	<-done
	spinUntil(t, func() bool { return mInflight.Value() == 0 })
}

// TestSolvePanicAnswers500: a panic inside a solve runs on the detached
// singleflight goroutine, out of reach of any handler's recover; the
// leader must turn it into the request's 500 instead of a crash.
func TestSolvePanicAnswers500(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	s := New(Config{})
	s.solveHook = func(string) { panic("boom") }
	before := mPanics.Value()

	r := s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	if r.Status != StatusError || r.HTTPStatus != http.StatusInternalServerError {
		t.Fatalf("status=%s http=%d (%s), want %s/500", r.Status, r.HTTPStatus, r.Error, StatusError)
	}
	if !strings.Contains(r.Error, "boom") {
		t.Fatalf("error %q does not name the panic", r.Error)
	}
	if got := mPanics.Value(); got != before+1 {
		t.Fatalf("serve.panics moved %d -> %d, want +1", before, got)
	}
}

// TestPanicHerdFailsTogether: every waiter coalesced onto a panicking
// leader gets the 500 and none hangs; the failure is not cached, so the
// next request for the key solves afresh, and the admission slot the
// panicking solve held is released.
func TestPanicHerdFailsTogether(t *testing.T) {
	obs.EnableMetrics()
	defer obs.Disable()
	s := New(Config{})
	const n = 6
	s.solveHook = func(key string) {
		spin(func() bool { return s.flights.waiters(key) == n })
		panic("boom")
	}

	done := make(chan *Response, n)
	for i := 0; i < n; i++ {
		go func() {
			done <- s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-done:
			if r.HTTPStatus != http.StatusInternalServerError {
				t.Fatalf("herd member: status=%s http=%d (%s), want 500", r.Status, r.HTTPStatus, r.Error)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d herd members still waiting on a panicked leader", n-i, n)
		}
	}

	s.solveHook = nil
	r := s.Do(context.Background(), &Request{Op: "solve", Kernel: "gemm"})
	if r.Status != StatusOK || r.Cached || r.Coalesced {
		t.Fatalf("repeat: status=%s cached=%t coalesced=%t (%s), want a fresh ok solve",
			r.Status, r.Cached, r.Coalesced, r.Error)
	}
	if got := s.solves.Load(); got != 1 {
		t.Fatalf("%d solves, want 1: the repeat's (the hook panicked before the herd's began)", got)
	}
	if got := mInflight.Value(); got != 0 {
		t.Fatalf("serve.inflight = %g after the herd drained, want 0", got)
	}
}

// TestBatchPanicIsolated: a panicking /v1/batch entry answers 500 while
// its siblings complete normally.
func TestBatchPanicIsolated(t *testing.T) {
	s := New(Config{})
	s.solveHook = func(key string) {
		if strings.Contains(key, "|0.25|") {
			panic("boom")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(`{"requests":[
		{"op":"solve","kernel":"gemm","split":0.25},
		{"op":"solve","kernel":"gemm"},
		{"op":"lint","kernel":"gemm"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Responses) != 3 {
		t.Fatalf("batch: http %d with %d responses, want 200 with 3", resp.StatusCode, len(out.Responses))
	}
	if r := out.Responses[0]; r.Status != StatusError || !strings.Contains(r.Error, "boom") {
		t.Fatalf("panicking entry: status=%s (%s), want %s naming the panic", r.Status, r.Error, StatusError)
	}
	for i, r := range out.Responses[1:] {
		if r.Status != StatusOK {
			t.Fatalf("sibling %d: status=%s (%s), want ok", i+1, r.Status, r.Error)
		}
	}
}

// TestRequestPanicAnswers500: a panic on the request goroutine itself
// (here a server whose program cache is missing) is answered as a 500
// by Do, not left to crash a /v1/batch goroutine.
func TestRequestPanicAnswers500(t *testing.T) {
	s := New(Config{})
	s.programs = nil
	r := s.Do(context.Background(), &Request{Op: "analyze", Kernel: "gemm"})
	if r.Status != StatusError || r.HTTPStatus != http.StatusInternalServerError {
		t.Fatalf("status=%s http=%d (%s), want %s/500", r.Status, r.HTTPStatus, r.Error, StatusError)
	}
}

// TestProgramCacheSharedAcrossOps: analyze then solve then lint on the
// same kernel stages the analysis exactly once.
func TestProgramCacheSharedAcrossOps(t *testing.T) {
	s := New(Config{})
	for _, op := range []string{"analyze", "solve", "lint"} {
		r := s.Do(context.Background(), &Request{Op: op, Kernel: "doitgen"})
		if r.Status != StatusOK {
			t.Fatalf("%s: %s (%s)", op, r.Status, r.Error)
		}
	}
	hits, misses, _ := s.programs.Stats()
	if misses != 1 || hits != 2 {
		t.Fatalf("program cache: %d hits, %d misses; want 2, 1", hits, misses)
	}
}

func TestWarmStagesCatalog(t *testing.T) {
	s := New(Config{})
	n := s.Warm(context.Background())
	if n != len(eatss.Kernels()) {
		t.Fatalf("warmed %d programs, want the full catalog of %d", n, len(eatss.Kernels()))
	}
	if got := s.programs.Len(); got != n {
		t.Fatalf("program cache holds %d, want %d", got, n)
	}
}

// --- helpers --------------------------------------------------------------

func post(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) *Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decode %s response: %v", path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s status = %d, want %d (error: %s)", path, resp.StatusCode, wantStatus, r.Error)
	}
	return &r
}

// postAsync is post for goroutines that cannot t.Fatal: it returns the
// decoded response with its HTTP status, or the transport error.
func postAsync(ts *httptest.Server, path, body string) (*Response, error) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("decode %s response: %w", path, err)
	}
	r.HTTPStatus = resp.StatusCode
	return &r, nil
}

func spinUntil(t *testing.T, cond func() bool) {
	t.Helper()
	if !spin(cond) {
		t.Fatal("condition not reached in 10s")
	}
}

// spin is spinUntil for non-test goroutines (it cannot t.Fatal).
func spin(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestEvaluatorBackendParity: the evaluator request knob must select the
// backend (echoed in the response), produce identical figures either
// way, and keep selection-tier cache entries separate per backend.
func TestEvaluatorBackendParity(t *testing.T) {
	s := New(Config{})
	run := func(evaluator string) *Response {
		r := s.Do(context.Background(), &Request{
			Op: "simulate", Kernel: "gemm",
			Tiles:     map[string]int64{"i": 32, "j": 32, "k": 16},
			Evaluator: evaluator,
		})
		if r.Status != StatusOK {
			t.Fatalf("evaluator %q: status %s (%s)", evaluator, r.Status, r.Error)
		}
		if r.Result == nil {
			t.Fatalf("evaluator %q: no result", evaluator)
		}
		return r
	}
	sim := run("")
	sym := run("symbolic")
	auto := run("auto") // a name for the symbolic backend
	if sim.Evaluator != "simulate" || sym.Evaluator != "symbolic" || auto.Evaluator != "symbolic" {
		t.Fatalf("evaluator echo = %q / %q / %q, want simulate / symbolic / symbolic",
			sim.Evaluator, sym.Evaluator, auto.Evaluator)
	}
	if sim.Result.EnergyJ != sym.Result.EnergyJ || sim.Result.L2Sectors != sym.Result.L2Sectors {
		t.Fatalf("backends diverge: %+v vs %+v", sim.Result, sym.Result)
	}

	// The best protocol keys its cache per backend: a simulate-backed
	// best must not satisfy a symbolic-backed one.
	b1 := s.Do(context.Background(), &Request{Op: "best", Kernel: "mvt"})
	b2 := s.Do(context.Background(), &Request{Op: "best", Kernel: "mvt", Evaluator: "symbolic"})
	if b1.Status != StatusOK || b2.Status != StatusOK {
		t.Fatalf("best failed: %s / %s", b1.Error, b2.Error)
	}
	if b2.Cached {
		t.Fatal("symbolic best hit the simulate-backed cache entry")
	}
	if b1.Result.EnergyJ != b2.Result.EnergyJ {
		t.Fatalf("best diverges across backends: %g vs %g", b1.Result.EnergyJ, b2.Result.EnergyJ)
	}
}

// Explicit tiles that provably violate the static feasibility region
// must be rejected with 422 before any heavy work, naming the violated
// constraint; feasible explicit tiles and solver-chosen tiles (no tiles
// in the request) are untouched by the pre-filter.
func TestInfeasibleTilesRejected(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A 512x512 parallel block puts REG_SM far over GA100's 65536.
	for _, op := range []string{"simulate", "compile"} {
		r := post(t, ts, "/v1/"+op,
			`{"kernel":"gemm","tiles":{"i":512,"j":512,"k":4}}`, http.StatusUnprocessableEntity)
		if r.Status != StatusError || !strings.Contains(r.Error, "register") {
			t.Fatalf("%s: want a register-constraint 422, got status %q error %q", op, r.Status, r.Error)
		}
	}
	if post(t, ts, "/v1/simulate", `{"kernel":"gemm","tiles":{"i":32,"j":32,"k":16}}`,
		http.StatusOK).Result == nil {
		t.Fatal("feasible explicit tiles returned no result")
	}
	// The solve-first path asks the solver for tiles; its output is
	// feasible by construction and must never be pre-filtered.
	if post(t, ts, "/v1/simulate", `{"kernel":"gemm"}`, http.StatusOK).Result == nil {
		t.Fatal("solver-tiles simulate returned no result")
	}
}
