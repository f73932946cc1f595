package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	eatss "repro"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// ops are the /v1/<op> endpoints, one staged-pipeline step each.
var ops = []string{"lint", "analyze", "solve", "best", "compile", "simulate"}

// Response statuses.
const (
	StatusOK        = "ok"        // request succeeded
	StatusError     = "error"     // the pipeline rejected the request (HTTP 400/422)
	StatusTimeout   = "timeout"   // the request deadline expired (HTTP 504)
	StatusCancelled = "cancelled" // the client went away mid-request (HTTP 499)
	StatusShed      = "shed"      // admission control refused the request (HTTP 429)
)

// statusClientClosed is the nginx-convention transport code for "client
// closed request"; net/http has no constant for it. The client never
// reads it — it records the outcome for logs and in-process callers.
const statusClientClosed = 499

// batchLimit caps how many requests one /v1/batch call may carry.
const batchLimit = 256

// maxBodyBytes bounds a request body; kernel sources are a few KB at
// most, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// Request is the JSON body accepted by every /v1 endpoint. Exactly one
// of Kernel (catalog name) or Source (DSL text) identifies the kernel.
type Request struct {
	// Op is the pipeline step; implied by the URL on single-op
	// endpoints, required on /v1/batch entries.
	Op string `json:"op,omitempty"`

	// Kernel names a catalog kernel; Source is inline DSL text.
	Kernel string `json:"kernel,omitempty"`
	Source string `json:"source,omitempty"`
	// GPU names the target ("ga100", "xavier", "v100"); default ga100.
	GPU string `json:"gpu,omitempty"`
	// Params overrides problem sizes (nil = kernel defaults).
	Params map[string]int64 `json:"params,omitempty"`

	// Solver options (solve): nil means DefaultOptions.
	Split    *float64 `json:"split,omitempty"`
	WarpFrac *float64 `json:"warpfrac,omitempty"`
	// FP32 selects single precision (solve, best, compile, simulate).
	FP32 bool `json:"fp32,omitempty"`

	// Evaluator picks the evaluation backend for best/simulate:
	// "simulate" (default) or "symbolic" (closed-form with simulator
	// fallback on residual configurations); "auto" is accepted as a name
	// for "symbolic", and the response echoes "symbolic". Invalid values
	// are rejected with 400.
	Evaluator string `json:"evaluator,omitempty"`

	// Compile/simulate configuration. Empty Tiles means "solve first,
	// then use the selected tiles". UseShared defaults to true.
	Tiles        map[string]int64 `json:"tiles,omitempty"`
	UseShared    *bool            `json:"use_shared,omitempty"`
	SharedQuota  int64            `json:"shared_quota,omitempty"`
	TimeTileFuse int64            `json:"time_tile_fuse,omitempty"`
	RegTile      int64            `json:"reg_tile,omitempty"`

	// TimeoutMs bounds this request's execution (clamped to the
	// server's MaxTimeout); 0 means the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// traceparent is the raw incoming W3C traceparent header, set by the
	// HTTP handler (not decodable from JSON): a valid one makes the
	// request adopt the caller's trace ID. Batch entries always get
	// fresh per-entry IDs.
	traceparent string
}

// Response is the JSON reply for every /v1 endpoint. Status is always
// set; exactly the view matching the op is populated on success.
type Response struct {
	Op     string `json:"op"`
	Status string `json:"status"`
	// HTTPStatus is the transport code the handler writes; not part of
	// the JSON body.
	HTTPStatus int    `json:"-"`
	Error      string `json:"error,omitempty"`

	Kernel      string `json:"kernel,omitempty"`
	GPU         string `json:"gpu,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Evaluator echoes the evaluation backend used (best/simulate only).
	Evaluator string `json:"evaluator,omitempty"`
	// Cached reports a selection-tier cache hit; Coalesced reports that
	// this request waited on another request's identical in-flight work.
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// TraceID identifies this request in /debug/requests, the flight
	// recorder and the access log; also echoed as a traceparent header.
	TraceID string `json:"trace_id,omitempty"`

	Diags      []DiagView      `json:"diags,omitempty"`
	Analysis   *AnalysisView   `json:"analysis,omitempty"`
	Selection  *SelectionView  `json:"selection,omitempty"`
	Candidates []CandidateView `json:"candidates,omitempty"`
	Mapping    *MappingView    `json:"mapping,omitempty"`
	Result     *ResultView     `json:"result,omitempty"`
}

// DiagView is one kernel-linter finding.
type DiagView struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Pos      string `json:"pos"`
	Msg      string `json:"msg"`
	Note     string `json:"note,omitempty"`
}

// AnalysisView summarizes a staged analysis artifact.
type AnalysisView struct {
	Fingerprint string           `json:"fingerprint"`
	Nests       int              `json:"nests"`
	Params      map[string]int64 `json:"params,omitempty"`
}

// SelectionView is a solved EATSS tile choice.
type SelectionView struct {
	Tiles       map[string]int64 `json:"tiles"`
	Objective   int64            `json:"objective"`
	SolverCalls int              `json:"solver_calls"`
	SolveTimeMs float64          `json:"solve_time_ms"`
	Split       float64          `json:"split"`
	WarpFrac    float64          `json:"warpfrac"`
}

// CandidateView is one evaluated configuration from the best protocol.
type CandidateView struct {
	SharedFrac float64        `json:"shared_frac"`
	Selection  *SelectionView `json:"selection"`
	Result     *ResultView    `json:"result"`
}

// NestView is one mapped nest's launch geometry.
type NestView struct {
	Loops           []string `json:"loops"`
	GridDims        []int64  `json:"grid"`
	BlockDims       []int64  `json:"block"`
	ThreadsPerBlock int64    `json:"threads_per_block"`
	SharedBytes     int64    `json:"shared_bytes"`
	RegsPerThread   int64    `json:"regs_per_thread"`
	Launches        int64    `json:"launches"`
}

// MappingView is a compiled kernel: per-nest geometry plus the rendered
// CUDA-style source.
type MappingView struct {
	Nests             []NestView `json:"nests"`
	TimeTileFallbacks int        `json:"time_tile_fallbacks,omitempty"`
	RegTileFallbacks  int        `json:"reg_tile_fallbacks,omitempty"`
	CUDA              string     `json:"cuda"`
}

// ResultView is one simulated execution.
type ResultView struct {
	Tiles     map[string]int64 `json:"tiles,omitempty"`
	TimeMs    float64          `json:"time_ms"`
	GFLOPS    float64          `json:"gflops"`
	AvgPowerW float64          `json:"avg_power_w"`
	EnergyJ   float64          `json:"energy_j"`
	PPW       float64          `json:"ppw"`
	L2Sectors int64            `json:"l2_sectors"`
	DRAMBytes int64            `json:"dram_bytes"`
}

// Do executes one request under the service's deadline, admission and
// caching policy and returns the response (never nil; errors are
// encoded in Status/Error/HTTPStatus).
//
// Every request gets a trace identity: the ID from a valid incoming
// traceparent, or a generated one. Unless tracing is disabled, the
// request runs under an obs.Trace (collecting the span tree of
// everything below — analysis, solver rounds, sweep workers,
// evaluation) rooted at a "serve.request" span annotated with the
// serving outcome, and the finished trace is offered to the
// tail-sampled store behind /debug/requests. Either way the latency
// histogram gets the trace ID as a bucket exemplar and the configured
// access log gets one wide-event line.
func (s *Server) Do(ctx context.Context, req *Request) *Response {
	if req == nil {
		return fail(&Response{}, http.StatusBadRequest, StatusError,
			errors.New("nil request"))
	}
	mRequests.Add(1)
	start := obs.Now()
	traceID := s.traceID(req)
	var act *trace.Active
	if !s.cfg.DisableTracing {
		var t *obs.Trace
		ctx, t = obs.StartTrace(ctx, traceID)
		act = &trace.Active{
			TraceID: traceID, Op: req.Op, Kernel: req.Kernel, GPU: req.GPU,
			StartAt: start, Trace: t,
		}
		trace.Default.Begin(act)
	}
	ctx, root := obs.Start(ctx, "serve.request")
	root.SetStr("op", req.Op)
	ctx, ri := withReqInfo(ctx)
	ctx, cancel := context.WithTimeout(ctx, s.timeout(req))
	defer cancel()
	resp := s.do(ctx, req)
	resp.TraceID = traceID
	elapsed := obs.Now().Sub(start)
	resp.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	mRequestSec.ObserveExemplar(elapsed.Seconds(), traceID)
	switch resp.Status {
	case StatusTimeout:
		mTimeouts.Add(1)
	case StatusCancelled:
		mCancelled.Add(1)
	case StatusShed:
		mShed.Add(1)
	case StatusError:
		mErrors.Add(1)
	}
	queueWait := time.Duration(ri.queueWaitNs.Load())
	rounds := 0
	if resp.Selection != nil {
		rounds = resp.Selection.SolverCalls
	}
	root.SetStr("status", resp.Status)
	root.SetStr("kernel", resp.Kernel)
	root.SetStr("gpu", resp.GPU)
	root.SetBool("cached", resp.Cached)
	root.SetBool("coalesced", resp.Coalesced)
	if resp.Evaluator != "" {
		root.SetStr("evaluator", resp.Evaluator)
	}
	if ri.residual.Load() {
		root.SetBool("residual", true)
	}
	root.SetInt("solver_rounds", int64(rounds))
	root.SetFloat("queue_wait_ms", float64(queueWait)/float64(time.Millisecond))
	root.End()
	if act != nil {
		trace.Default.Finish(act, trace.Outcome{
			Status:      resp.Status,
			HTTPStatus:  resp.HTTPStatus,
			Error:       resp.Error,
			Kernel:      resp.Kernel,
			GPU:         resp.GPU,
			Fingerprint: resp.Fingerprint,
			Evaluator:   resp.Evaluator,
			Cached:      resp.Cached,
			Coalesced:   resp.Coalesced,
			Residual:    ri.residual.Load(),
			QueueWait:   queueWait,
			SolverCalls: rounds,
			Duration:    elapsed,
		})
	}
	s.logRequest(ctx, resp, queueWait, rounds)
	return resp
}

// timeout resolves the request's deadline: client timeout_ms clamped to
// MaxTimeout, or the server default.
func (s *Server) timeout(req *Request) time.Duration {
	if req.TimeoutMs <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(req.TimeoutMs) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) do(ctx context.Context, req *Request) *Response {
	resp := &Response{Op: req.Op, GPU: req.GPU}
	if resp.GPU == "" {
		resp.GPU = "ga100"
	}
	known := false
	for _, op := range ops {
		if req.Op == op {
			known = true
			break
		}
	}
	if !known {
		return fail(resp, http.StatusBadRequest, StatusError,
			fmt.Errorf("unknown op %q (valid: %s)", req.Op, strings.Join(ops, ", ")))
	}
	k, err := kernelOf(req)
	if err != nil {
		return fail(resp, http.StatusBadRequest, StatusError, err)
	}
	resp.Kernel = k.Name
	g, err := eatss.GPUByName(resp.GPU)
	if err != nil {
		return fail(resp, http.StatusBadRequest, StatusError, err)
	}
	eval, err := eatss.ParseEvaluator(req.Evaluator)
	if err != nil {
		return fail(resp, http.StatusBadRequest, StatusError, err)
	}

	prog, fp, _, err := s.program(ctx, k, req.Params)
	if err != nil {
		return failFrom(resp, err)
	}
	resp.Fingerprint = fp

	switch req.Op {
	case "lint":
		for _, d := range prog.Lint() {
			resp.Diags = append(resp.Diags, DiagView{
				Code:     d.Code,
				Severity: d.Severity.String(),
				Pos:      d.Pos.String(),
				Msg:      d.Msg,
				Note:     d.Note,
			})
		}
	case "analyze":
		resp.Analysis = &AnalysisView{
			Fingerprint: fp,
			Nests:       len(prog.Kernel().Nests),
			Params:      prog.Params(),
		}
	case "solve":
		opts := solveOptions(req)
		key := fmt.Sprintf("sel|%s|%s|%g|%g|%d", fp, g.Name, opts.SplitFactor, opts.WarpFraction, opts.Precision)
		v, cached, coalesced, err := s.solved(ctx, key, func(wctx context.Context) (any, error) {
			return prog.SelectTilesCtx(wctx, g, opts)
		})
		if err != nil {
			return failFrom(resp, err)
		}
		resp.Cached, resp.Coalesced = cached, coalesced
		resp.Selection = selectionView(v.(*eatss.Selection))
	case "best":
		prec := precisionOf(req)
		resp.Evaluator = eval.String()
		key := fmt.Sprintf("best|%s|%s|%d|%s", fp, g.Name, prec, eval)
		v, cached, coalesced, err := s.solved(ctx, key, func(wctx context.Context) (any, error) {
			return prog.SelectBestEval(wctx, g, prec, eval)
		})
		if err != nil {
			return failFrom(resp, err)
		}
		resp.Cached, resp.Coalesced = cached, coalesced
		best := v.(*eatss.Best)
		if best.Residual > 0 {
			markResidual(ctx)
		}
		resp.Selection = selectionView(best.Chosen.Selection)
		resp.Result = resultView(best.Chosen.Selection.Tiles, best.Chosen.Result)
		for _, c := range best.Candidates {
			resp.Candidates = append(resp.Candidates, CandidateView{
				SharedFrac: c.SharedFrac,
				Selection:  selectionView(c.Selection),
				Result:     resultView(c.Selection.Tiles, c.Result),
			})
		}
	case "compile", "simulate":
		tiles := req.Tiles
		if len(tiles) == 0 {
			opts := solveOptions(req)
			key := fmt.Sprintf("sel|%s|%s|%g|%g|%d", fp, g.Name, opts.SplitFactor, opts.WarpFraction, opts.Precision)
			v, cached, coalesced, err := s.solved(ctx, key, func(wctx context.Context) (any, error) {
				return prog.SelectTilesCtx(wctx, g, opts)
			})
			if err != nil {
				return failFrom(resp, err)
			}
			resp.Cached, resp.Coalesced = cached, coalesced
			sel := v.(*eatss.Selection)
			resp.Selection = selectionView(sel)
			tiles = sel.Tiles
		}
		cfg := runConfig(req)
		cfg.Evaluator = eval
		// Explicit tiles are judged by the static feasibility analysis
		// before any heavy work: a point that provably violates the
		// option-free model constraints (tile domains, register bound)
		// is rejected with 422 naming the violated constraint. The
		// region is memoized on the Program, so a server caching
		// Programs per fingerprint pays one derivation per fingerprint.
		// Solver-selected tiles (the empty-Tiles path above) are model-
		// feasible by construction and skip the check.
		if len(req.Tiles) != 0 {
			if cert := prog.FeasibleRegion(g, cfg).Check(req.Tiles); cert != nil {
				mInfeasibleTiles.Add(1)
				_, fsp := obs.Start(ctx, "serve.infeasible_tiles")
				fsp.SetStr("constraint", cert.Constraint)
				fsp.End()
				return fail(resp, http.StatusUnprocessableEntity, StatusError,
					fmt.Errorf("tiles statically infeasible on %s: %s", g.Name, cert))
			}
		}
		err := s.heavy(ctx, func() error {
			if req.Op == "compile" {
				m, err := prog.CompileCtx(ctx, g, tiles, cfg)
				if err != nil {
					return err
				}
				resp.Mapping = mappingView(m)
				return nil
			}
			resp.Evaluator = eval.String()
			res, info, err := prog.RunCtx(ctx, g, tiles, cfg)
			if err != nil {
				return err
			}
			if info.Residual {
				markResidual(ctx)
			}
			resp.Result = resultView(tiles, res)
			return nil
		})
		if err != nil {
			return failFrom(resp, err)
		}
	}
	resp.Status = StatusOK
	resp.HTTPStatus = http.StatusOK
	return resp
}

// kernelOf resolves the request's kernel: exactly one of kernel|source.
func kernelOf(req *Request) (*eatss.AffineKernel, error) {
	switch {
	case req.Kernel != "" && req.Source != "":
		return nil, errors.New("request has both kernel and source; send exactly one")
	case req.Kernel != "":
		return eatss.Kernel(req.Kernel)
	case req.Source != "":
		k, err := eatss.ParseKernel(req.Source)
		if err != nil {
			return nil, err
		}
		eatss.Schedule(k) // canonical loop order, applied in place
		return k, nil
	default:
		return nil, errors.New("request names no kernel; send kernel (catalog name) or source (DSL text)")
	}
}

func solveOptions(req *Request) eatss.Options {
	opts := eatss.DefaultOptions()
	if req.Split != nil {
		opts.SplitFactor = *req.Split
	}
	if req.WarpFrac != nil {
		opts.WarpFraction = *req.WarpFrac
	}
	opts.Precision = precisionOf(req)
	return opts
}

func precisionOf(req *Request) eatss.Precision {
	if req.FP32 {
		return eatss.FP32
	}
	return eatss.FP64
}

func runConfig(req *Request) eatss.RunConfig {
	cfg := eatss.RunConfig{
		Params:       req.Params,
		UseShared:    true,
		SharedQuota:  req.SharedQuota,
		Precision:    precisionOf(req),
		TimeTileFuse: req.TimeTileFuse,
		RegTile:      req.RegTile,
	}
	if req.UseShared != nil {
		cfg.UseShared = *req.UseShared
	}
	return cfg
}

func selectionView(sel *eatss.Selection) *SelectionView {
	return &SelectionView{
		Tiles:       sel.Tiles,
		Objective:   sel.Objective,
		SolverCalls: sel.SolverCalls,
		SolveTimeMs: float64(sel.SolveTime) / float64(time.Millisecond),
		Split:       sel.Opts.SplitFactor,
		WarpFrac:    sel.Opts.WarpFraction,
	}
}

func resultView(tiles map[string]int64, res eatss.Result) *ResultView {
	return &ResultView{
		Tiles:     tiles,
		TimeMs:    res.TimeSec * 1e3,
		GFLOPS:    res.GFLOPS,
		AvgPowerW: res.AvgPowerW,
		EnergyJ:   res.EnergyJ,
		PPW:       res.PPW,
		L2Sectors: res.L2Sectors,
		DRAMBytes: res.DRAMBytes,
	}
}

func mappingView(m *eatss.MappedKernel) *MappingView {
	mv := &MappingView{
		TimeTileFallbacks: m.TimeTileFallbacks,
		RegTileFallbacks:  m.RegTileFallbacks,
		CUDA:              m.CUDASource(),
	}
	for _, n := range m.Nests {
		mv.Nests = append(mv.Nests, NestView{
			Loops:           n.MappedLoops,
			GridDims:        n.GridDims,
			BlockDims:       n.BlockDims,
			ThreadsPerBlock: n.ThreadsPerBlock,
			SharedBytes:     n.SharedBytesPerBlock,
			RegsPerThread:   n.RegsPerThread,
			Launches:        n.Launches,
		})
	}
	return mv
}

// fail stamps a terminal status onto resp.
func fail(resp *Response, httpStatus int, status string, err error) *Response {
	resp.HTTPStatus = httpStatus
	resp.Status = status
	resp.Error = err.Error()
	return resp
}

// failFrom maps an execution error onto the right transport semantics:
// shed -> 429, blown deadline -> 504, client cancellation -> 499,
// anything else -> 422. Canceled is kept apart from DeadlineExceeded so
// churny clients that disconnect mid-request don't inflate the timeout
// metric.
func failFrom(resp *Response, err error) *Response {
	switch {
	case errors.Is(err, errShed):
		return fail(resp, http.StatusTooManyRequests, StatusShed, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fail(resp, http.StatusGatewayTimeout, StatusTimeout, err)
	case errors.Is(err, context.Canceled):
		return fail(resp, statusClientClosed, StatusCancelled, err)
	default:
		return fail(resp, http.StatusUnprocessableEntity, StatusError, err)
	}
}

// handleOp builds the POST handler for one /v1/<op> endpoint. It
// ingests the W3C traceparent header (a valid one makes the request
// adopt the caller's trace ID) and echoes the request's trace identity
// back as a traceparent response header.
func (s *Server) handleOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeRequest(w, r)
		if !ok {
			return
		}
		req.Op = op
		req.traceparent = r.Header.Get("traceparent")
		resp := s.Do(r.Context(), req)
		if resp.TraceID != "" {
			w.Header().Set("traceparent", trace.Traceparent(resp.TraceID))
		}
		writeJSON(w, resp.HTTPStatus, resp)
	}
}

// batchRequest / batchResponse are the /v1/batch envelope.
type batchRequest struct {
	Requests []*Request `json:"requests"`
}

type batchResponse struct {
	Responses []*Response `json:"responses"`
}

// handleBatch executes up to batchLimit requests concurrently and
// returns their responses in order. The transport status is 200; each
// entry carries its own status.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var batch batchRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&batch); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(batch.Requests) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if len(batch.Requests) > batchLimit {
		http.Error(w, fmt.Sprintf("batch of %d exceeds the %d-request limit",
			len(batch.Requests), batchLimit), http.StatusBadRequest)
		return
	}
	for i, req := range batch.Requests {
		if req == nil {
			http.Error(w, fmt.Sprintf("null request at index %d", i), http.StatusBadRequest)
			return
		}
	}
	out := batchResponse{Responses: make([]*Response, len(batch.Requests))}
	var wg sync.WaitGroup
	for i, req := range batch.Requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.Responses[i] = s.Do(r.Context(), req)
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, false
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return &req, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response write
}
