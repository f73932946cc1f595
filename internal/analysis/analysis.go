// Package analysis computes the tile- and options-independent front end
// of the EATSS pipeline once per (kernel, params) and packages it as an
// immutable Program artifact the rest of the pipeline reuses.
//
// Every downstream consumer — the model generator (internal/core), the
// PPCG-style compiler (internal/ppcg + internal/codegen), the constraint
// explainer, and the sweep engine — needs the same facts about a kernel:
// per-nest dependence/reuse analysis, the parallel-loop classification,
// the CMA loop l_s1 (Sec. IV-D), the L1-vs-shared reference split
// (Sec. IV-E), the distinct-cache-line reference count (Sec. IV-G), the
// objective-weight skeleton (Sec. IV-K before warp-alignment scaling),
// and the loop extents under the bound problem sizes. None of those
// depend on the tile choice or the model Options, yet the pre-staged
// pipeline re-derived them for every solve and for every point of a
// tile-space sweep. The paper's own toolchain performs this polyhedral
// analysis once per kernel (inside PPCG/isl); only the Z3 model and the
// generated code vary per configuration.
//
// A Program is immutable after Analyze returns and safe to share across
// goroutines — the sweep engine hands one Program to all of its workers.
// Its Fingerprint identifies the (kernel, params) pair and is the cache
// key prefix for evaluation memoization.
package analysis

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/affine"
	"repro/internal/deps"
	"repro/internal/obs"
	"repro/internal/parser"
)

// Telemetry: how many analysis artifacts were built, and how many times
// a consumer reused a precomputed per-nest analysis instead of
// re-deriving it. A healthy staged pipeline shows reuse_hits far above
// builds (e.g. one build per sweep, one hit per nest per evaluation).
var (
	mBuilds    = obs.NewCounter("analysis.builds")
	mReuseHits = obs.NewCounter("analysis.reuse_hits")
)

// CountReuseHits records that n precomputed per-nest analyses were
// consumed in place of fresh deps.AnalyzeReuse derivations.
func CountReuseHits(n int) { mReuseHits.Add(int64(n)) }

// ArrayVolume is the data-tile volume skeleton of one array within a
// nest (Sec. IV-C): which loop iterators index it (in nest loop order),
// and whether any of its references is cache-mapped (MemL1). The model
// generator turns Iters into a product of tile variables; the final
// L1-vs-shared placement additionally depends on Options.SplitFactor,
// which is why only the reference classification is stored here.
type ArrayVolume struct {
	Array string
	// Iters lists the nest iterators appearing in the array's
	// subscripts, ordered like the nest's loops.
	Iters []string
	// L1 reports that at least one reference to the array is classified
	// MemL1 (coalescable along the CMA loop, or a write target).
	L1 bool
}

// NestAnalysis is everything tile- and options-independent about one
// loop nest.
type NestAnalysis struct {
	Nest *affine.Nest
	// Reuse is the full dependence/reuse analysis: parallel loops, CMA
	// loop, per-reference memory classification, HRaw counts, and the
	// distinct-cache-line reference count.
	Reuse *deps.NestReuse
	// Parallel names the first (up to three) parallel loops — the
	// B_size contributors of Sec. IV-F. Empty when the nest has no
	// parallel loop (consumers report that as an error).
	Parallel []string
	// HSkeleton maps loop name -> objective weight after the structural
	// zeroing rules of Sec. IV-K (serial spatial reuse in deep nests,
	// the already-mapped parallel loop of 2D single-parallel nests) but
	// before the warp-alignment scaling of the CMA loop, which depends
	// on Options. Loops whose raw count is zero have no entry.
	HSkeleton map[string]int64
	// Arrays holds one volume skeleton per distinct array, in first-
	// reference order.
	Arrays []ArrayVolume
	// Extents maps loop name -> trip count under the Program's params.
	Extents map[string]int64
}

// Program is the immutable analysis artifact for one (kernel, params)
// pair. It is safe for concurrent use.
type Program struct {
	// Kernel is the analyzed kernel. The Program does not copy it;
	// callers must not mutate a kernel they handed to Analyze.
	Kernel *affine.Kernel
	// Params are the resolved problem sizes the extents were computed
	// under (the params argument of Analyze, or Kernel.Params).
	Params map[string]int64
	// Nests holds one analysis per kernel nest, in nest order.
	Nests []*NestAnalysis

	fpOnce sync.Once
	fp     string

	stashMu sync.Mutex
	stash   map[any]any
}

// Memo returns the value stashed under key, building and caching it on
// first use. It is the staging hook derived artifacts hang off the
// Program the way the per-nest skeletons do: internal/symbolic memoizes
// one closed-form plan per (GPU, options) here, so every sweep worker
// sharing the Program shares the plan. key must be comparable; a struct
// of the inputs the artifact depends on keys it without formatting
// anything. build must be pure — the stash
// does not change the Program's observable immutability, it only caches
// functions of it. Safe for concurrent use; concurrent first calls for
// the same key may run build more than once, and the first stored value
// wins (all callers then observe the same value).
func (p *Program) Memo(key any, build func() any) any {
	p.stashMu.Lock()
	if v, ok := p.stash[key]; ok {
		p.stashMu.Unlock()
		return v
	}
	p.stashMu.Unlock()
	// Build outside the lock: a derive can be long, and blocking every
	// other key's readers behind it would serialize sweep startup.
	v := build()
	p.stashMu.Lock()
	defer p.stashMu.Unlock()
	if prev, ok := p.stash[key]; ok {
		return prev
	}
	if p.stash == nil {
		p.stash = make(map[any]any)
	}
	p.stash[key] = v
	return v
}

// Fingerprint identifies the (kernel, params) pair: a hash of the
// kernel's canonical DSL rendering and the resolved params. Two
// Programs with equal fingerprints produce identical pipeline results;
// any kernel or params edit changes it (invalidation rule: a Program
// must be rebuilt whenever the fingerprint of its inputs would differ).
// Computed lazily on first use — one-off compiles never render the
// kernel — and safe for concurrent callers.
func (p *Program) Fingerprint() string {
	p.fpOnce.Do(func() { p.fp = fingerprint(p.Kernel, p.Params) })
	return p.fp
}

// Fingerprint computes the fingerprint a Program built from the same
// (kernel, params) pair would report, without performing the analysis:
// a hash of the kernel's canonical DSL rendering and the resolved
// params (nil params resolves to the kernel's own defaults, exactly
// like Analyze). Callers that key caches of Program artifacts use it to
// decide whether an artifact can be reused before paying for a build.
func Fingerprint(k *affine.Kernel, params map[string]int64) string {
	if params == nil {
		params = k.Params
	}
	return fingerprint(k, params)
}

// Analyze computes the Program artifact for a kernel under the given
// problem sizes (nil params uses the kernel's own defaults, unmerged —
// exactly how the pre-staged pipeline resolved them).
func Analyze(k *affine.Kernel, params map[string]int64) *Program {
	return AnalyzeCtx(context.Background(), k, params)
}

// AnalyzeCtx is Analyze with the caller's context threaded through, so
// the "analysis.analyze" span nests under the caller's obs span.
func AnalyzeCtx(ctx context.Context, k *affine.Kernel, params map[string]int64) *Program {
	_, sp := obs.Start(ctx, "analysis.analyze")
	defer sp.End()
	sp.SetStr("kernel", k.Name)
	if params == nil {
		params = k.Params
	}
	p := &Program{Kernel: k, Params: params}
	for ni := range k.Nests {
		p.Nests = append(p.Nests, analyzeNest(&k.Nests[ni], params))
	}
	sp.SetInt("nests", int64(len(p.Nests)))
	mBuilds.Add(1)
	return p
}

func analyzeNest(nest *affine.Nest, params map[string]int64) *NestAnalysis {
	reuse := deps.AnalyzeReuse(nest)
	info := reuse.Info
	na := &NestAnalysis{
		Nest:      nest,
		Reuse:     reuse,
		HSkeleton: make(map[string]int64),
		Extents:   make(map[string]int64, nest.Depth()),
	}

	// Sec. IV-F: up to the first three parallel loops define B_size.
	if np := min(info.NumParallel(), 3); np > 0 {
		na.Parallel = make([]string, 0, np)
	}
	for d, l := range nest.Loops {
		if info.Parallel[d] && len(na.Parallel) < 3 {
			na.Parallel = append(na.Parallel, l.Name)
		}
	}

	// Sec. IV-K structural weight rules (options-independent part).
	depth := nest.Depth()
	for d, l := range nest.Loops {
		h := reuse.HRaw[l.Name]
		if h == 0 {
			continue
		}
		switch {
		case depth >= 3 && !info.Parallel[d]:
			h = 0 // favor CMA over serial spatial reuse
		case depth == 2 && info.NumParallel() == 1 && slices.Contains(na.Parallel, l.Name):
			// 2D nests with a single parallel loop (mvt, atax, ...):
			// the parallel loop is already mapped; prefer growing the
			// non-parallel one (Sec. IV-K, third sub-case).
			h = 0
		}
		na.HSkeleton[l.Name] = h
	}

	// Sec. IV-C volume skeletons, one per array in first-reference
	// order. References to the same array share one data tile (the
	// paper's matmul walkthrough M_L1 = TiTj + TkTj).
	for _, rr := range reuse.Refs {
		i := slices.IndexFunc(na.Arrays, func(av ArrayVolume) bool { return av.Array == rr.Ref.Array })
		if i < 0 {
			i = len(na.Arrays)
			na.Arrays = append(na.Arrays, ArrayVolume{Array: rr.Ref.Array})
		}
		if rr.Class == deps.MemL1 {
			na.Arrays[i].L1 = true
		}
	}
	// One backing array holds every volume's iterators.
	iters := make([]string, 0, len(na.Arrays)*depth)
	for i := range na.Arrays {
		start := len(iters)
		for _, l := range nest.Loops {
			used := false
			for _, rr := range reuse.Refs {
				if rr.Ref.Array == na.Arrays[i].Array && rr.Ref.UsesIter(l.Name) {
					used = true
					break
				}
			}
			if used {
				iters = append(iters, l.Name)
			}
		}
		if len(iters) > start {
			na.Arrays[i].Iters = iters[start:len(iters):len(iters)]
		}
	}

	for _, l := range nest.Loops {
		na.Extents[l.Name] = l.Extent(params)
	}
	return na
}

// NestReuses returns the per-nest reuse analyses aligned with
// Kernel.Nests, the shape codegen.MapKernelReuse consumes.
func (p *Program) NestReuses() []*deps.NestReuse {
	out := make([]*deps.NestReuse, len(p.Nests))
	for i, na := range p.Nests {
		out[i] = na.Reuse
	}
	return out
}

// fingerprint hashes the kernel's canonical DSL text and the resolved
// params. The DSL rendering covers names, arrays, nests, loops, bounds,
// statements and default parameters, so any semantic kernel edit
// changes the fingerprint.
func fingerprint(k *affine.Kernel, params map[string]int64) string {
	h := fnv.New64a()
	io.WriteString(h, parser.Write(k))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "|%s=%d", name, params[name])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
