GO ?= go

.PHONY: all fmt vet build test race sweep-race obs-bench profile-demo lint-gate selfcheck symbolic-parity symbolic-bench bench-module benchtables-smoke golden-repeat check clean

all: check

# fmt fails when any Go file is not gofmt-formatted, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# sweep-race exercises the concurrency surfaces under the race
# detector: the sweep worker pool, the shared evaluation cache (and its
# cancellation-poisoning regression test), concurrent obs producers, the
# solver's cancellation polling, SelectBest's concurrent shared-memory
# splits (serial-oracle parity, cancellation and panic propagation), and
# the service layer's herd coalescing / deadline / load-shedding paths
# and its recovery of panics in solve and batch goroutines. It is a focused (fast)
# subset of `race` so the gate names the concurrent paths explicitly
# even when the full suite is skipped locally.
sweep-race:
	$(GO) test -race -count=1 -run 'Sweep|Explore|Concurrent|SelectBest|SolveCtx|Cancel|Poison|Herd|Coalesc|Deadline|Shed|Panic' . ./internal/sweep ./internal/smt ./internal/obs ./internal/serve

# obs-bench guards the observability layer's disabled-path cost: the
# allocs/op checks proving that spans, metrics (counters, gauges and the
# sweep/solver latency histograms), slog output, the live sweep progress
# and incumbent publication all cost zero allocations (and take no
# locks) on the hot path when observability is off — and that histogram
# observation stays allocation-free even when it is on. Spans are
# recorded only under a trace, so the daemon posture (metrics on, no
# request trace) and the -listen posture of every CLI (metrics on,
# untraced figure code) get the same guarantee: Start under a traceless
# context returns the nil span and allocates nothing. A regression here
# taxes every sweep evaluation, so it runs as part of `check`.
obs-bench:
	$(GO) test -count=1 -run 'TestObsOverhead|TestHistogramObserveEnabledDoesNotAllocate|TestTracingDisabledDaemonPathDoesNotAllocate|TestListenPostureStartDoesNotAllocate|TestLiveObsOverheadDisabled' ./internal/obs

# symbolic-parity pins the pluggable-backend contract: the closed-form
# symbolic evaluator must reproduce compile+simulate point-by-point —
# same valid set, exact integer counters, energies to float noise, same
# argmin — over the paper's full gemm space, a reduced space of every
# catalog kernel on both GPUs, and the SelectBest protocol.
symbolic-parity:
	$(GO) test -count=1 -run 'TestSymbolicSweepParity|TestSelectBestEvalParity|TestEvaluatorBackendParity' . ./internal/serve

# symbolic-bench measures what the closed-form evaluator buys per sweep
# evaluation over gemm's 15^3 space (BenchmarkSymbolicSpeedup) and fails
# when the per-point speedup over compile+simulate falls under the 10x
# floor: the backend's reason to exist, enforced on every `make check`.
# Parity is symbolic-parity's job.
symbolic-bench:
	$(GO) test -count=1 -run '^$$' -bench '^BenchmarkSymbolicSpeedup$$' -benchtime 1x .

# profile-demo exercises the energy attribution profiler end to end on
# the paper's worked example: per-nest/per-array/per-level breakdown,
# the "why best beats ppcg-default" diff, and the sweep-surface export
# (PROFILE_gemm.json + SURFACE_gemm.csv are CI artifacts, not committed).
profile-demo:
	$(GO) run ./cmd/eatss -kernel gemm -best -profile -profile-out PROFILE_gemm.json -surface SURFACE_gemm.csv

# lint-gate runs the kernel linter (internal/lint) over the built-in
# catalog and every shipped DSL kernel, failing on any error-severity
# diagnostic: no kernel with a provable out-of-bounds access, undeclared
# name or degenerate domain may ship. It also runs the static
# feasibility pass on both reference GPUs: a catalog kernel whose
# feasible tile region is certifiably empty fails the gate.
lint-gate:
	$(GO) run ./tools/lintgate

# selfcheck runs the repo's own static analyzer (tools/selfcheck,
# stdlib go/ast only) over the source tree: obs span open/close pairing,
# the *Ctx context-threading contract, the "no raw time.Now under
# internal/ outside obs and bench" rule, the metric-name lint
# (literal snake_case dot-namespaced names, each registered exactly
# once), the "no context.Background()/TODO() under internal/serve
# or internal/sweep" request-path rule, the "only the feas
# lowering declares Sec. IV constraints" rule, R7: every internal/
# package with non-test files has a non-test importer, so code only
# tests run lives in _test.go files, and R8: the certifier
# (internal/verify) imports none of the packages it certifies, and no
# internal/ package imports it, so certification stays an independent,
# explicit post-hoc call.
selfcheck:
	$(GO) run ./tools/selfcheck .

# bench-module vets and tests the benchmark (cmd/bench), a separate Go
# module that builds against this checkout through a replace directive.
# `go build ./...` and `go test ./...` at the root skip nested modules, so
# without this target a change that removes or renames a name the
# benchmark compiles against would surface only when the benchmark runs.
# It writes no tracked file.
bench-module:
	cd cmd/bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# benchtables-smoke drives the evaluation CLI end to end: it lists the
# experiment registry and exports fig1's CSV series into a temporary
# directory, which it removes again, so it writes no tracked file.
benchtables-smoke:
	$(GO) run ./cmd/benchtables -list
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && $(GO) run ./cmd/benchtables -only fig1 -csv "$$d"

# golden-repeat runs every golden test (each one's name contains
# "Golden") twice in one process, so a golden that depends on what ran
# earlier in the process, such as an ID from a process-wide counter,
# fails here rather than only when tests are repeated or reordered.
golden-repeat:
	$(GO) test -count=2 -run Golden ./...

# check is the gate a change must pass before it lands: formatting,
# static analysis (go vet plus the repo's own selfcheck analyzer), a full build, the
# kernel lint gate, the concurrency race gate, the symbolic-backend
# parity and speedup gates, the zero-cost-observability guard, the
# attribution-profiler demo, the benchmark module's vet and tests, the
# benchtables smoke run, the golden tests run twice in one process, and the full test suite under
# the race detector (which holds the staged-compilation,
# static-feasibility and service-herd gates). It writes no tracked file.
check: fmt vet build selfcheck lint-gate sweep-race symbolic-parity symbolic-bench obs-bench profile-demo bench-module benchtables-smoke golden-repeat race

clean:
	$(GO) clean ./...
	rm -f trace.json PROFILE_gemm.json SURFACE_gemm.csv
