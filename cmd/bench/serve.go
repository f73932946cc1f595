package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	eatss "repro"

	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/trace"
	"repro/internal/parser"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Traffic classes of the serve-mixed mix.
const (
	// classWarm is best/solve/simulate on catalog kernels at a warp
	// fraction known to be feasible: selection-cache hits, since prewarm
	// asks each key before the step.
	classWarm = iota
	// classCold is best on a (kernel, GPU, precision, params) key no
	// earlier request of the step used: a full cold SelectBest.
	classCold
	// classDSL is lint and solve of DSL sources, parsed on every request.
	classDSL
	// classExplicit is simulate with explicit tiles, half of them
	// statically infeasible and rejected with 422.
	classExplicit
	numClasses
)

var (
	classNames = [numClasses]string{"warm", "cold", "dsl", "explicit"}
	classShare = [numClasses]float64{0.70, 0.15, 0.10, 0.05}
)

const (
	// referenceRate is the arrival rate the latency metrics are read at.
	referenceRate = 500
	// maxConns bounds the load generator: at most this many sender
	// goroutines, each holding one keep-alive connection.
	maxConns = 2
	// latencyLimit is the tail latency a step must meet to count toward
	// throughput_per_sec. A failed request misses it. Generator and
	// server share two cores, so a collection or a burst of slow cold
	// selects can stall both connections for a hundred milliseconds at any
	// rate; the limit sits above such stalls and below the seconds a
	// saturated step queues for.
	latencyLimit = 250 * time.Millisecond
	// lagGrowthLimit is how far the generator's median lag may rise from
	// a step's first quarter to its last before the backlog counts as
	// growing. Medians, so that one stall does not count as growth. A
	// saturated step's lag grows by seconds; the 1000/s step, whose p99
	// stays below 70 ms, rose by more than 10 ms in one run in five on a
	// busy machine.
	lagGrowthLimit = 50 * time.Millisecond
)

// ladderRates are the rates tried besides the reference rate. With two
// connections the server saturates near 2 / (0.4 ms) = 5000/s at best and
// near 2000/s when the machine is busy, so 1000/s passes and 8000/s fails
// however noisy the machine.
var ladderRates = []float64{250, 1000, 8000}

// coldScales returns the fractions a/b in lowest terms with b <= 7. Each
// scales every problem size of a cold key (floored like sizeDraws); the
// 17 of them give about 2100 distinct keys, more than the 2000 cold
// requests of the fastest ladder step.
func coldScales() [][2]int64 {
	var out [][2]int64
	for b := int64(2); b <= 7; b++ {
		for a := int64(1); a < b; a++ {
			if gcd(a, b) == 1 {
				out = append(out, [2]int64{a, b})
			}
		}
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// serveReq is one distinct request of the pool.
type serveReq struct {
	class int
	key   string // golden key
	req   serve.Request
	body  []byte // req as JSON
	// src is the DSL source of classDSL requests, which the traced
	// replay parses and lints beside the server.
	src string
}

// solveClass reports whether the request goes through the selection
// cache, so its cached flag says hit or miss.
func (r *serveReq) solveClass() bool {
	return r.req.Op == "best" || r.req.Op == "solve" || (r.req.Op == "simulate" && len(r.req.Tiles) == 0)
}

// step is one rate's seeded schedule: arrival times and the pooled
// request sent at each.
type step struct {
	rate float64
	due  []time.Duration // since the step's start, ascending
	reqs []int           // index into serveBench.reqs, per arrival
}

// serveBench drives an in-process server over loopback HTTP with an open
// loop: a reference step at referenceRate, then a ladder of rates, each
// against a fresh server.
type serveBench struct {
	reqs []serveReq
	// coldDeck is the cold requests in one fixed order, the same for
	// every seed; a step sends a prefix of it.
	coldDeck []int
	steps    []step // steps[0] is the reference step
	conns    int
	gold     *golden
}

// sourceFiles lists the DSL sources serve-mixed lints and solves.
func sourceFiles(root string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(root, "testdata", "kernels", "*.kdsl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no DSL sources under %s", filepath.Join(root, "testdata", "kernels"))
	}
	sort.Strings(files)
	return files, nil
}

func setupServe(e *env) (runner, error) {
	w := &serveBench{conns: maxConns, gold: e.golden}
	files, err := sourceFiles(e.root)
	if err != nil {
		return nil, err
	}
	add := func(class int, key string, req serve.Request, src string) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		w.reqs = append(w.reqs, serveReq{class: class, key: key, req: req, body: body, src: src})
		return nil
	}
	for _, name := range eatss.Kernels() {
		k, err := eatss.Kernel(name)
		if err != nil {
			return nil, err
		}
		for _, gn := range gpuNames {
			wf, feasible := e.golden.WarpFrac[name+"|"+gn]
			for _, op := range []string{"best", "solve", "simulate"} {
				req := serve.Request{Op: op, Kernel: name, GPU: gn}
				if op != "best" {
					if !feasible {
						continue
					}
					req.WarpFrac = &wf
				}
				if err := add(classWarm, "warm|"+op+"|"+name+"|"+gn, req, ""); err != nil {
					return nil, err
				}
			}
			for _, prec := range []string{"fp64", "fp32"} {
				seen := map[string]bool{}
				for _, sc := range coldScales() {
					params := scaleParams(k.Params, sc)
					fp := eatss.FingerprintKernel(k, params)
					if seen[fp] {
						continue
					}
					seen[fp] = true
					req := serve.Request{Op: "best", Kernel: name, GPU: gn, Params: params, FP32: prec == "fp32"}
					key := fmt.Sprintf("cold|%s|%s|%s|%d/%d", name, gn, prec, sc[0], sc[1])
					if err := add(classCold, key, req, ""); err != nil {
						return nil, err
					}
				}
			}
			ok, bad := map[string]int64{}, map[string]int64{}
			for loop := range eatss.DefaultTiles(k) {
				ok[loop], bad[loop] = 8, 4096
			}
			for _, v := range []struct {
				name  string
				tiles map[string]int64
			}{{"ok", ok}, {"bad", bad}} {
				req := serve.Request{Op: "simulate", Kernel: name, GPU: gn, Tiles: v.tiles}
				if err := add(classExplicit, "explicit|"+name+"|"+gn+"|"+v.name, req, ""); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		src, base := string(b), filepath.Base(f)
		if err := add(classDSL, "dsl|lint|"+base, serve.Request{Op: "lint", Source: src}, src); err != nil {
			return nil, err
		}
		for _, gn := range gpuNames {
			wf, ok := e.golden.WarpFrac[base+"|"+gn]
			if !ok {
				continue
			}
			req := serve.Request{Op: "solve", Source: src, GPU: gn, WarpFrac: &wf}
			if err := add(classDSL, "dsl|solve|"+base+"|"+gn, req, src); err != nil {
				return nil, err
			}
		}
	}
	for i, q := range w.reqs {
		if q.class == classCold {
			w.coldDeck = append(w.coldDeck, i)
		}
	}
	fixed := rand.New(rand.NewPCG(0, 0))
	fixed.Shuffle(len(w.coldDeck), func(i, j int) { w.coldDeck[i], w.coldDeck[j] = w.coldDeck[j], w.coldDeck[i] })
	r := e.rng(4)
	w.steps = append(w.steps, w.schedule(r, referenceRate, e.seconds/2))
	for _, rate := range ladderRates {
		w.steps = append(w.steps, w.schedule(r, rate, e.seconds/time.Duration(2*len(ladderRates))))
	}
	return w, nil
}

// schedule draws one step of rate×dur requests: Poisson arrival times
// (given their number, independent uniform times) and each class's exact
// share of the requests, in seeded order. The cold share is the first
// keys of coldDeck, each sent once; the other classes deal their requests
// from successive shuffles of their pools, so every key of a class is
// sent equally often. The seed therefore changes the order and timing of
// a step, not what it asks for.
func (w *serveBench) schedule(r *rand.Rand, rate float64, dur time.Duration) step {
	var byClass [numClasses][]int
	for i, q := range w.reqs {
		byClass[q.class] = append(byClass[q.class], i)
	}
	n := int(rate * dur.Seconds())
	st := step{rate: rate, due: make([]time.Duration, n)}
	for i := range st.due {
		st.due[i] = time.Duration(r.Float64() * float64(dur))
	}
	sort.Slice(st.due, func(i, j int) bool { return st.due[i] < st.due[j] })
	for c := numClasses - 1; c >= 0; c-- {
		k := int(math.Round(classShare[c] * float64(n)))
		switch c {
		case classCold:
			k = min(k, len(w.coldDeck))
			st.reqs = append(st.reqs, w.coldDeck[:k]...)
			continue
		case classWarm:
			k = n - len(st.reqs) // the rest
		}
		pool := byClass[c]
		for dealt := 0; dealt < k && len(pool) > 0; dealt += len(pool) {
			deck := append([]int(nil), pool...)
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			st.reqs = append(st.reqs, deck[:min(len(deck), k-dealt)]...)
		}
	}
	r.Shuffle(len(st.reqs), func(i, j int) { st.reqs[i], st.reqs[j] = st.reqs[j], st.reqs[i] })
	return st
}

// reply is what the benchmark reads from one response.
type reply struct {
	status    int
	cached    bool
	coalesced bool
	tiles     map[string]int64
	err       error
}

func replyOf(status int, r *serve.Response) reply {
	rep := reply{status: status, cached: r.Cached, coalesced: r.Coalesced}
	switch {
	case r.Result != nil:
		rep.tiles = r.Result.Tiles
	case r.Selection != nil:
		rep.tiles = r.Selection.Tiles
	}
	return rep
}

func (rep reply) out() serveOut { return serveOut{Status: rep.status, Tiles: rep.tiles} }

// post sends one pooled request over HTTP.
func post(c *http.Client, base string, q *serveReq) reply {
	resp, err := c.Post(base+"/v1/"+q.req.Op, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	var out serve.Response
	err = json.NewDecoder(resp.Body).Decode(&out)
	// Reading the body to its end lets the connection be reused.
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the decoded reply is complete
	if err != nil {
		return reply{status: resp.StatusCode, err: fmt.Errorf("decode: %w", err)}
	}
	return replyOf(resp.StatusCode, &out)
}

// do sends one pooled request in process.
func do(s *serve.Server, q *serveReq) reply {
	req := q.req
	resp := s.Do(context.Background(), &req)
	return replyOf(resp.HTTPStatus, resp)
}

// timing is one open-loop request's schedule record.
type timing struct {
	lag     time.Duration // sent minus due
	latency time.Duration // completed minus due
	service time.Duration // completed minus sent
	backlog int           // requests due but not yet sent when this one was sent
}

// openLoop sends each request at its due time from conns senders and
// times it from that due time, so a stall charges every request queued
// behind it. due must be ascending; send performs request i.
func openLoop(due []time.Duration, conns int, send func(i int)) []timing {
	out := make([]timing, len(due))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				dueNow := sort.Search(len(due), func(j int) bool { return due[j] > sent })
				send(i)
				done := time.Since(start)
				out[i] = timing{
					lag:     sent - due[i],
					latency: done - due[i],
					service: done - sent,
					backlog: max(dueNow-i-1, 0),
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// stepResult is one step's measurements.
type stepResult struct {
	timings []timing
	replies []reply
	ok      []bool // the reply matched the golden file
	stats   serve.Stats
}

// latencies returns each request's latency from its due time in ms, with
// failed requests at +Inf: they miss every latency limit.
func (s *stepResult) latencies(keep func(i int) bool) []float64 {
	var out []float64
	for i, t := range s.timings {
		if keep != nil && !keep(i) {
			continue
		}
		v := float64(t.latency) / float64(time.Millisecond)
		if !s.ok[i] {
			v = math.Inf(1)
		}
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// lagGrows reports whether the generator fell further behind over the
// step: the median lag of its last quarter exceeds that of its first by
// more than lagGrowthLimit.
func lagGrows(ts []timing) bool {
	q := len(ts) / 4
	if q == 0 {
		return false
	}
	medianLag := func(ts []timing) float64 {
		lags := make([]float64, len(ts))
		for i, t := range ts {
			lags[i] = float64(t.lag)
		}
		return median(sortedCopy(lags))
	}
	return medianLag(ts[len(ts)-q:])-medianLag(ts[:q]) > float64(lagGrowthLimit)
}

// stepOK reports whether a step sent requests and met the latency limit
// at its tail percentile without a growing backlog.
func (s *stepResult) stepOK() bool {
	v, _ := tail(s.latencies(nil), 0.99)
	return len(s.timings) > 0 && v <= float64(latencyLimit)/float64(time.Millisecond) && !lagGrows(s.timings)
}

// maxOKRate is the highest rate whose step passed stepOK, or 0.
func maxOKRate(steps []step, res []stepResult) float64 {
	best := 0.0
	for i := range steps {
		if res[i].stepOK() {
			best = max(best, steps[i].rate)
		}
	}
	return best
}

// runStep boots a fresh server, opens the connections, and runs one
// step's schedule against it.
func (w *serveBench) runStep(st *step) (stepResult, error) {
	trace.Default.Reset()
	srv := serve.New(serve.Config{})
	hs, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return stepResult{}, err
	}
	defer hs.Close()
	tr := &http.Transport{MaxConnsPerHost: w.conns, MaxIdleConnsPerHost: w.conns}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr, Timeout: time.Minute}
	base := "http://" + hs.Addr()
	var wg sync.WaitGroup
	for i := 0; i < w.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := c.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	w.prewarm(func(q *serveReq) { post(c, base, q) })
	res := stepResult{replies: make([]reply, len(st.reqs))}
	res.timings = openLoop(st.due, w.conns, func(i int) { res.replies[i] = post(c, base, &w.reqs[st.reqs[i]]) })
	res.stats = srv.Stats()
	return res, nil
}

// prewarm sends every request a step may repeat, all but the cold deck,
// once and untimed. A fresh server would otherwise spend its first half
// second solving the warm keys while arrivals queue behind them; that
// transient pushed the 1000/s step's p99 to 200 ms, near latencyLimit,
// and its first quarter's lag to over 100 ms, which lagGrows compares the
// last quarter against. After prewarm a step measures the steady state:
// warm keys hit the selection cache and only cold requests miss.
func (w *serveBench) prewarm(send func(q *serveReq)) {
	for i := range w.reqs {
		if w.reqs[i].class != classCold {
			send(&w.reqs[i])
		}
	}
}

// check compares every reply of a step with the golden file.
func (w *serveBench) check(o *outcome, st *step, res *stepResult) {
	res.ok = make([]bool, len(res.replies))
	for i, rep := range res.replies {
		q := &w.reqs[st.reqs[i]]
		o.attempted++
		want, known := w.gold.Serve[q.key]
		switch {
		case rep.err != nil:
			o.fail("serve %s: %v", q.key, rep.err)
		case !known || !rep.out().equal(want):
			o.fail("serve %s: got %+v, golden %+v", q.key, rep.out(), want)
		default:
			res.ok[i] = true
		}
	}
}

// daemonPosture switches on the observability cmd/eatssd runs with
// (metrics and the flight ring; servers also trace each request into the
// tail-sampled store) and returns a function that switches it off.
func daemonPosture() func() {
	obs.EnableMetrics()
	flight.Default.Enable()
	return func() {
		flight.Default.Disable()
		obs.Disable()
	}
}

// runSteps runs the reference step and then the ladder.
func (w *serveBench) runSteps(o *outcome) ([]stepResult, error) {
	out := make([]stepResult, len(w.steps))
	for i := range w.steps {
		res, err := w.runStep(&w.steps[i])
		if err != nil {
			return nil, err
		}
		w.check(o, &w.steps[i], &res)
		out[i] = res
	}
	return out, nil
}

func (w *serveBench) run(d time.Duration, o *outcome) {
	defer daemonPosture()()
	res, err := w.runSteps(o)
	if err != nil {
		o.fail("serve: %v", err)
		return
	}
	lat := res[0].latencies(nil)
	o.metrics["p50_ms"] = median(lat)
	v, q := tail(lat, 0.99)
	o.note("reference step: %d requests, p50 %.4g ms, p%g %.4g ms", len(lat), median(lat), q*100, v)
	o.metrics["throughput_per_sec"] = maxOKRate(w.steps, res)
	for i, st := range w.steps {
		v, q := tail(res[i].latencies(nil), 0.99)
		o.note("step %g/s: %d requests, p%g %.2f ms, lag growth %t, ok %t",
			st.rate, len(st.reqs), q*100, v, lagGrows(res[i].timings), res[i].stepOK())
	}
}

// fill asks a fresh in-process server every pooled request.
func (w *serveBench) fill(g *golden) {
	s := serve.New(serve.Config{DisableTracing: true})
	g.Serve = make(map[string]serveOut, len(w.reqs))
	for i := range w.reqs {
		g.Serve[w.reqs[i].key] = do(s, &w.reqs[i]).out()
	}
}

// gate is empty: every reply is checked against the golden file after
// its step, and the server's selections come from the pipeline the
// select workloads certify.
func (w *serveBench) gate(*outcome) {}

// runTraced runs the same steps over HTTP, then replays the reference
// step's requests in process, bare and traced (see replay).
func (w *serveBench) runTraced(d time.Duration, tr *tracer, o *outcome) {
	defer daemonPosture()()
	var ru runtimeUse
	ru.begin()
	res, err := w.runSteps(o)
	if err != nil {
		o.fail("serve: %v", err)
		return
	}
	ref, st := &res[0], &w.steps[0]
	m := o.metrics
	isHit := func(i int) bool { return w.reqs[st.reqs[i]].solveClass() && ref.replies[i].cached }
	isMiss := func(i int) bool { return w.reqs[st.reqs[i]].solveClass() && !ref.replies[i].cached }
	hits, misses := ref.latencies(isHit), ref.latencies(isMiss)
	m["serve.hit_p50_ms"] = median(hits)
	m["serve.hit_p99_ms"], _ = tail(hits, 0.99)
	m["serve.miss_p50_ms"] = median(misses)
	m["serve.miss_p90_ms"], _ = tail(misses, 0.90)
	var coalesced, shed int
	for _, rep := range ref.replies {
		if rep.coalesced {
			coalesced++
		}
		if rep.status == http.StatusTooManyRequests {
			shed++
		}
	}
	n := float64(len(ref.replies))
	m["serve.coalesced_frac"] = ratio(float64(coalesced), n)
	m["serve.shed_frac"] = ratio(float64(shed), n)
	sc, pc := ref.stats.SelectionCache, ref.stats.ProgramCache
	m["lru.selection_hit_frac"] = ratio(float64(sc.Hits), float64(sc.Hits+sc.Misses))
	m["lru.program_hit_frac"] = ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses))
	// The generator's lag and backlog at the highest passing rate say
	// whether that rate was really offered.
	top := 0
	for i := range w.steps {
		if res[i].stepOK() && w.steps[i].rate >= w.steps[top].rate {
			top = i
		}
	}
	var lags []float64
	backlog := 0
	for _, t := range res[top].timings {
		lags = append(lags, float64(t.lag)/float64(time.Millisecond))
		backlog = max(backlog, t.backlog)
	}
	m["gen.lag_p99_ms"], _ = tail(sortedCopy(lags), 0.99)
	m["gen.backlog_max"] = float64(backlog)
	for i, rep := range ref.replies {
		class := classNames[w.reqs[st.reqs[i]].class]
		switch {
		case !w.reqs[st.reqs[i]].solveClass():
			o.count("serve."+class+".uncached", 1)
		case rep.cached:
			o.count("serve."+class+".hit", 1)
		default:
			o.count("serve."+class+".miss", 1)
		}
	}

	rp := w.replay(st, tr, &ru)
	var doHit, doMiss, overhead []float64
	var bareSum, tracedSum time.Duration
	for i, r := range rp {
		o.attempted++
		want := ref.replies[i].out()
		if !r.bare.out().equal(want) || !r.traced.out().equal(want) {
			o.fail("serve %s: HTTP %+v, Do %+v, traced Do %+v", w.reqs[st.reqs[i]].key,
				want, r.bare.out(), r.traced.out())
		}
		bareSum += r.bareDo
		tracedSum += r.tracedDo
		us := float64(r.tracedDo) / float64(time.Microsecond)
		if w.reqs[st.reqs[i]].solveClass() {
			if r.traced.cached {
				doHit = append(doHit, us)
			} else {
				doMiss = append(doMiss, us)
			}
		}
		if r.traced.cached == ref.replies[i].cached {
			overhead = append(overhead, float64(ref.timings[i].service)/float64(time.Microsecond)-us)
		}
	}
	m["serve.do_hit_us"] = mean(doHit)
	m["serve.do_miss_us"] = mean(doMiss)
	m["serve.http_overhead_us"] = median(sortedCopy(overhead))
	m["parser.parse_us"] = tr.perCall("parser.parse", time.Microsecond)
	m["lint.lint_us"] = tr.perCall("lint.lint", time.Microsecond)
	m["trace.coverage_frac"] = tr.coverage()
	m["trace.overhead_frac"] = ratio(float64(tracedSum), float64(bareSum)) - 1
	ru.put(m)
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// replayed is one request sent in process to both replay servers.
type replayed struct {
	bare, traced     reply
	bareDo, tracedDo time.Duration
}

// replay sends a step's requests in order to two fresh in-process
// servers, alternating between them so both see the same cache states and
// the same machine: one gets bare Do calls, whose allocations ru charges;
// for the other each request is a traced op, in which DSL sources are
// parsed (and, for lint, linted) in spans beside the server, as the server
// itself parses them, and Do runs in a span.
func (w *serveBench) replay(st *step, tr *tracer, ru *runtimeUse) []replayed {
	trace.Default.Reset()
	bare, traced := serve.New(serve.Config{}), serve.New(serve.Config{})
	w.prewarm(func(q *serveReq) {
		do(bare, q)
		do(traced, q)
	})
	out := make([]replayed, len(st.reqs))
	for i, ri := range st.reqs {
		q, r := &w.reqs[ri], &out[i]
		ru.measure(func() {
			t0 := time.Now()
			r.bare = do(bare, q)
			r.bareDo = time.Since(t0)
		})
		tr.beginOp()
		if q.src != "" {
			sp := tr.begin("parser.parse")
			k, err := parser.Parse(q.src)
			tr.end(sp)
			if err == nil {
				sp = tr.begin("sched.schedule")
				sched.ScheduleKernel(k)
				tr.end(sp)
				if q.req.Op == "lint" {
					sp = tr.begin("lint.lint")
					lint.Lint(k, nil)
					tr.end(sp)
				}
			}
		}
		sp := tr.begin("serve.do")
		r.traced = do(traced, q)
		tr.end(sp)
		r.tracedDo = tr.dur(sp)
		tr.endOp()
	}
	return out
}

// feasibleWarpFracs finds, for every catalog kernel and DSL source on
// every GPU, the coarsest warp fraction whose formulation at the default
// split is satisfiable.
func feasibleWarpFracs(root string) (map[string]float64, error) {
	out := make(map[string]float64)
	probe := func(key string, k *eatss.AffineKernel) error {
		p, err := eatss.Analyze(k, nil)
		if err != nil {
			return err
		}
		for _, gn := range gpuNames {
			g, err := eatss.GPUByName(gn)
			if err != nil {
				return err
			}
			for _, wf := range eatss.WarpFractions {
				opts := eatss.DefaultOptions()
				opts.WarpFraction = wf
				if _, err := p.SelectTiles(g, opts); err == nil {
					out[key+"|"+gn] = wf
					break
				}
			}
		}
		return nil
	}
	for _, name := range eatss.Kernels() {
		k, err := eatss.Kernel(name)
		if err != nil {
			return nil, err
		}
		if err := probe(name, k); err != nil {
			return nil, err
		}
	}
	files, err := sourceFiles(root)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		// The server schedules parsed kernels before analysing them.
		k, err := eatss.ParseKernel(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		eatss.Schedule(k)
		if err := probe(filepath.Base(f), k); err != nil {
			return nil, err
		}
	}
	return out, nil
}
