// Command bench is the repository's benchmark: four workloads that run the
// pipeline the way its users do, the end-to-end metrics those users see,
// and a traced mode that splits each workload's time by layer.
//
// # Running
//
// The benchmark is a module of its own (go.mod here replaces the
// repository module with ../..), so run it from this directory or through
// run.sh from the repository root:
//
//	bash cmd/bench/run.sh --workload select-catalog --seed 1 --seconds 20 --trace 0
//	cd cmd/bench && go run . -root ../.. -workload all -seed 1
//	cd cmd/bench && go run . -root ../.. -workload sweep -trace 1 -spans spans.json
//	cd cmd/bench && go test .
//
// run.sh builds into .bench_build with GOMAXPROCS=2. Every run prints each
// metric as "name value unit" and, as its last line, a JSON object with
// the keys correct, attempted, failed and metrics. It exits non-zero when
// any answer differs from the reference. -trace 0 (the default) reports
// the end-to-end metrics. -trace 1 reports the per-layer metrics instead,
// and -spans writes the recorded spans to a file. The untraced run is the
// measurement; the traced run explains it.
//
// The go test run holds the unit tests, a determinism test (one traced
// pass of every workload, twice at seed 1 and once at seed 2, whose work
// counts must repeat exactly), and a test that keeps BENCHMARK.json in
// step with the metrics and workloads defined here. The repository's own
// `go test ./...` does not enter this module.
//
// # Workloads
//
// Every input is drawn from a fixed, finite pool, so one golden file
// (testdata/golden.json) covers every seed. The seed sets the order of
// inputs and the serve traffic; the program sees only the generated
// inputs. Each workload runs in one process with GOMAXPROCS=2.
//
// select-catalog: a closed loop with one caller. The pool holds the 21
// catalog kernels × {GA100, Xavier, V100} × 4 problem-size draws (the
// defaults, STANDARD, the defaults halved, the defaults quartered, scaled
// sizes floored at 32), less the 27 draws whose sizes coincide with
// another's: 225 inputs. One op is a fresh eatss.Analyze and
// (*Program).SelectBestEval with FP64 and EvalSimulate. This is the
// paper's protocol as a user runs it. About 80% of an op is the solver,
// and only three evaluations of about 15 µs each are not, so model and
// solver changes show here and evaluator changes barely do.
//
// select-wide: a closed loop with one caller over five generated DSL
// kernels. Each has n independent 2-D nests with distinct loop names
// (C_n[i][j] = A_n[i][j]): n = 2 with N ∈ {128, 256, 512} and n = 3 with
// N ∈ {128, 256}. One op is ParseKernel, Analyze and
// (*Program).SelectTiles on GA100 with the default options. It isolates
// the exponential search on separable kernels: n = 2 takes 1 to 27 ms, and
// n = 3 takes about 20 ms at N = 128 and 0.5 s at N = 256, which is most of
// a run. Decomposing the search moves this workload by orders of magnitude
// and select-catalog only a little. n = 3 at N >= 512 takes 1 to 2 s per
// solve and is left out so a run holds dozens of passes; n = 4 takes more
// than 20 s per solve and stays out until the solver has an effort budget.
//
// sweep: the paper's 15^d spaces of gemm, 2mm, heat-3d and jacobi-2d, on
// GA100 and Xavier, each swept in two modes with SweepOptions{Workers: 2,
// Cache: NewEvalCache()}: exhaustive (EvalSimulate, no pruning, the
// figure-reproduction mode) and interactive (EvalAuto with Prune). One op
// is one space in one mode; a pass runs all 16 in seeded order. The
// solver does no work here: ppcg and gpusim carry the exhaustive mode,
// and feas, symbolic and the sweep engine carry the interactive mode, so
// evaluator and engine changes show here and not on select-*.
//
// serve-mixed: an in-process serve.New(serve.Config{}) on loopback, under
// the daemon's observability (metrics, flight ring, per-request tracing).
// The load is an open loop: seeded Poisson arrivals sent over two
// connections by two goroutines, each request timed from its due time, so
// a stall charges every request queued behind it. A reference step runs
// at 500 req/s for half the run; ladder steps at 250, 1000 and 8000 req/s
// share the other half. Each step gets a fresh server, which is first
// sent every request but the cold ones once, untimed, so the step
// measures a warmed server rather than its start-up. The step then sends
// exactly rate × duration requests, each class its exact share:
//   - 70% best, solve or simulate on catalog kernels, solving at the
//     coarsest warp fraction the golden file records as feasible:
//     selection-cache hits;
//   - 15% cold best on (kernel, GPU, precision, sizes) keys, taken from
//     the front of one fixed shuffle of about 2100 keys, so none repeats
//     within a step and every seed sends the same ones;
//   - 10% lint and solve of the testdata/kernels DSL sources, which the
//     server parses on every request;
//   - 5% simulate with explicit tiles, half of them statically infeasible,
//     which must return 422.
//
// The seed changes the order and timing of the requests, not which ones
// a step sends.
//
// It is the only workload that runs HTTP and JSON, admission and
// per-request tracing. Hits only read the LRU tiers while misses insert
// into them, so a change that helps one class shows against the other.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric; each workload defines
// its op (a select, a space sweep, a request).
//
//   - setup_s: building the inputs (kernel lookups, fingerprints, paper
//     spaces, request bodies), done fifteen times, each after a
//     collection; the median.
//   - p50_ms: the median op latency. On select-wide it is the middle
//     input's, the n = 3, N = 128 solve: the pool has an odd number of
//     inputs and every pass runs each once. A pool split evenly between
//     fast and slow inputs would put the median in the gap between the
//     classes, resting on the slowest fast op and the fastest slow one,
//     which moved by 25% to 35% between runs. On serve-mixed it is the
//     reference step's, timed from each request's due time.
//   - throughput_per_sec: selects/s (select-*), points/s (sweep, counting
//     every point of each space, so pruned points count as speed), or, on
//     serve-mixed, the highest step rate whose p99 stayed within 250 ms
//     and whose backlog did not grow (the generator's median lag rose by
//     less than 50 ms from the step's first quarter to its last). The
//     limit sits above the stalls a collection or a burst of cold selects
//     causes at any rate and below the seconds a saturated step queues
//     for. The server saturates between 2000/s and 5000/s depending on how
//     busy the machine is, so at this commit that is 1000/s.
//   - peak_heap_mb: HeapInuse sampled every 10 ms; the median over
//     one-second windows of the window's peak, so one late collection
//     moves one window and not the metric.
//
// Tail latency is printed to stderr (the highest percentile with ten
// samples beyond it: p99 on select-catalog and serve-mixed, p90 on sweep
// and select-wide) but is not an end-to-end metric. On the two-core
// machine these numbers come from, whose speed wanders by 10% or more
// over tens of seconds, the tails moved by 12% to 36% between runs of
// the same code while the machine was quiet, more than any bound a
// regression check could use; the medians and rates moved by 4% to 15%.
// serve-mixed's split of hits and misses is among the per-layer metrics.
//
// # Per-layer metrics
//
// The traced run makes the same calls as the public path, layer by layer,
// each wrapped in a span the benchmark records in memory (name, start,
// end, parent, op). There is no tracing inside the program. A layer's
// self time is its span's time minus the time its child spans cover. Each
// traced op is also run through the public path, and the two answers must
// agree exactly: tiles, objective and PPW, every sweep point, every serve
// reply. A layer a workload does not call reports 0. Below, each metric
// names its layer, then the end-to-end metric and workload it should
// move.
//
//   - parser.parse_us, lint.lint_us: per call. p50_ms on serve-mixed,
//     where every DSL request is parsed before any cache lookup;
//     parser.parse_us also p50_ms on select-wide.
//   - analysis.analyze_us: per call. p50_ms on select-catalog.
//   - feas.derive_us, feas.static_skip_frac (formulations proved empty
//     without a solve): p50_ms on select-catalog.
//   - feas.check_ns, feas.prune_frac: throughput_per_sec on sweep.
//   - core.select_tiles_ms (per call, UNSAT calls included),
//     core.calls_per_select, core.unsat_frac (UNSAT solves are wasted):
//     p50_ms and throughput_per_sec on select-catalog and select-wide.
//   - smt.nodes_per_solve, smt.solver_calls_per_solve, smt.nodes_per_ms:
//     counts read from Selection.Search of satisfiable solves, and nodes
//     per ms of their core.select_tiles time. They move with core, and
//     tell "fewer nodes" (decomposing the search) from "faster nodes"
//     (compiled constraints).
//   - symbolic.derive_us, symbolic.eval_us, symbolic.residual_frac:
//     throughput_per_sec on sweep.
//   - ppcg.compile_us, gpusim.simulate_us: throughput_per_sec on sweep;
//     p50_ms on select-catalog.
//   - sweep.engine_us_per_point (a one-worker sweep's wall per point less
//     the direct layer calls' time for the same points),
//     sweep.parallel_efficiency (one-worker over two-worker wall, halved),
//     sweep.exhaustive_points_per_sec, sweep.interactive_points_per_sec
//     (the two-worker engine per mode): throughput_per_sec on sweep.
//   - serve.do_hit_us, serve.do_miss_us: in-process (*Server).Do of the
//     reference step's requests, replayed in order on two fresh servers
//     prewarmed like the HTTP one, one bare and one traced, request by
//     request; split by the cached
//     flag. p50_ms (hits) and throughput_per_sec (misses set the knee) on
//     serve-mixed.
//   - serve.http_overhead_us: the median of a request's HTTP service time
//     less its replayed Do time. p50_ms on serve-mixed.
//   - serve.hit_p50_ms, serve.hit_p99_ms, serve.miss_p50_ms,
//     serve.miss_p90_ms: the reference step split by the response's cached
//     flag, over requests that use the selection cache. p50_ms and
//     throughput_per_sec on serve-mixed.
//   - serve.coalesced_frac, serve.shed_frac, lru.selection_hit_frac,
//     lru.program_hit_frac (Server.Stats after the reference step, its
//     prewarm included):
//     throughput_per_sec on serve-mixed.
//   - gen.lag_p99_ms, gen.backlog_max: the generator at the highest
//     passing rate; they say whether that rate was really offered.
//   - runtime.alloc_kb_per_op (public-path ops), runtime.gc_cpu_frac:
//     peak_heap_mb and p50_ms on every workload.
//   - trace.coverage_frac: layer self time over op wall time.
//     trace.overhead_frac: traced wall over the public path's wall for the
//     same ops, less 1 (for sweep, the one-worker engine; for serve-mixed,
//     the bare replay). Negative means the public path's own work between
//     layers (memo keys, the engine's cache and progress) costs more than
//     the spans.
//
// # Correctness
//
// Every op's answer is compared with the golden file: the chosen tiles,
// objective and PPW of each select (or the class of its expected error),
// each sweep's evaluated, skipped, pruned and residual counts with its
// argmax, and each serve request's status and tiles. After the timed
// region, so nothing it computes can serve a timed op, a gate checks the
// paper's walkthrough (gemm on GA100 gives Ti=16 Tj=384 Tk=16 with
// objective 18432), replays every distinct selection through the
// independent eatss.Certify, and replays one in 64 of each interactive
// space's prunes through eatss.CertifyPrune. Any mismatch is a failed op:
// correct turns false and the run exits non-zero. The golden file is
// rewritten with
//
//	cd cmd/bench && go run . -root ../.. -write-golden testdata/golden.json
//
// # Baseline
//
// Medians of ten 20 s runs per workload, two sets (seeds 1-10 and
// 11-20), with each set's spread (interquartile range over median) in
// parentheses, on a two-vCPU VM with go1.24.
//
//	                 setup_s      p50_ms                throughput_per_sec       peak_heap_mb
//	select-catalog   6.7/7.6 ms   0.97 (15%)/1.04 (16%) 677 (15%)/634 (15%)      6.5 (1%)/6.6 (1%)
//	select-wide      0.50/0.53 ms 16.1 (12%)/16.9 (9%)  10.6 (8%)/10.0 (5%)      5.5 (5%)/5.4 (2%)
//	sweep            5.5/5.1 ms   27.0 (7%)/25.1 (8%)   46000 (6%)/50600 (8%)    27.5 (3%)/27.8 (2%)
//	serve-mixed      91/69 ms     1.14 (9%)/1.04 (9%)   1000 (0%)/1000 (0%)      45.8 (7%)/44.2 (4%)
//
// Most of each spread is the machine, not the benchmark: within one set
// select-catalog's p50_ms, the median of some twelve thousand selects a
// run, moved from 0.86 to 1.17 ms between runs minutes apart, and the
// sweep and serve set-ups moved by as much. The bounds in BENCHMARK.json
// (0.25, 0.20 for peak_heap_mb) hold these sets; a machine that slows by
// more than a quarter between sets can exceed them. Among the per-layer
// metrics, smt.nodes_per_solve, smt.solver_calls_per_solve,
// feas.static_skip_frac and feas.prune_frac repeat exactly, the lru hit
// fractions within 0.01%, and trace.coverage_frac is 0.999 on
// select-catalog and 0.966 on sweep.
//
// # Not here
//
// Two items of ROADMAP item 3 touch files outside this directory and are
// left for their own changes: folding cmd/{sweep,analysis,sym,feas,serve}bench
// into this command, and stopping benchguard from re-appending the stale
// BENCH_sweep.json to BENCH_history.jsonl.
package main
