// Package codegen maps tiled affine loop nests onto the GPU execution model
// the way PPCG does: tile loops become the block grid, point loops become
// threads, non-parallel loops stay sequential inside each thread, and
// shared-memory-classified references are staged cooperatively per tile.
// It produces both the MappedNest descriptor consumed by the simulator and
// human-readable CUDA-like source (cuda.go).
package codegen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/deps"
	"repro/internal/obs"
)

// ErrNegativeTile is returned (wrapped) by MapNest when a tile entry is
// negative. Missing or zero entries keep the documented default-32
// behaviour; a negative size is always a caller bug and is rejected
// rather than silently coerced.
var ErrNegativeTile = errors.New("negative tile size")

// Telemetry: mapping decisions and shared-memory staging pressure.
var (
	mNestsMapped  = obs.NewCounter("codegen.nests_mapped")
	mMapFailures  = obs.NewCounter("codegen.map_failures")
	mStagingBytes = obs.NewCounter("codegen.shared_staging_bytes")
	mDemotions    = obs.NewCounter("codegen.shared_demotions")
	mCoarsened    = obs.NewCounter("codegen.coarsened_nests")
)

// Options configures the mapping, mirroring PPCG's relevant flags.
type Options struct {
	// UseShared enables staging of non-coalescable references in shared
	// memory (PPCG --use-shared-memory).
	UseShared bool
	// SharedQuota is the shared-memory budget per block in bytes
	// (PPCG --max-shared-memory). Zero means the architecture limit.
	SharedQuota int64
	// Precision selects FP32 or FP64 data.
	Precision affine.Precision
}

// MappedRef describes how one array reference is serviced.
type MappedRef struct {
	Ref affine.Ref
	// Shared marks references staged in software-managed shared memory.
	Shared bool
	// Coalesced marks references whose global accesses (or shared-memory
	// staging loads) are warp-coalesced along the thread-x loop.
	Coalesced bool
	// Write mirrors Ref.Write.
	Write bool
}

// MappedNest is one GPU kernel: a tiled nest with its launch geometry.
type MappedNest struct {
	Nest  *affine.Nest
	Reuse *deps.NestReuse

	// Tiles maps loop name -> tile size (clamped to the loop extent).
	Tiles map[string]int64
	// MappedLoops are the parallel loops mapped to the grid/threads,
	// ordered x, y, z (x carries the CMA loop when it is parallel).
	MappedLoops []string
	// BlockDims[i] is the thread-block extent of MappedLoops[i]. When a
	// tile holds more points than the thread-block limit allows, block
	// extents are capped and each thread iterates Coarsen[i] points
	// (PPCG-style thread coarsening).
	BlockDims []int64
	// Coarsen[i] is the per-thread serial trip count along MappedLoops[i].
	Coarsen []int64
	// GridDims[i] is the number of blocks along MappedLoops[i].
	GridDims []int64
	// SerialLoops are the remaining loops, executed inside each thread
	// (tiled by their tile size for shared-memory staging).
	SerialLoops []string

	Refs []MappedRef

	// ThreadsPerBlock is the product of BlockDims.
	ThreadsPerBlock int64
	// TotalBlocks is the product of GridDims.
	TotalBlocks int64
	// SharedBytesPerBlock is the staging buffer footprint.
	SharedBytesPerBlock int64
	// RegsPerThread is the estimated register usage.
	RegsPerThread int64
	// Launches is how many times the kernel is launched (host time loop).
	Launches int64
	// TimeTiling, when non-nil, fuses several time steps per launch
	// (overlapped tiling — see timetile.go). nil means the PPCG behavior
	// the paper evaluates: one launch per time step.
	TimeTiling *TimeTiling
	// RegTiling, when non-nil, gives each thread an r x r register
	// micro-tile (see regtile.go). nil means PPCG's one-point-per-thread
	// code, as in the paper's evaluation.
	RegTiling *RegTiling

	// Params are the problem-size bindings the mapping was built for.
	Params map[string]int64
	// Precision of all data.
	Precision affine.Precision
}

// MapNest maps one nest with the given tile sizes. Tile sizes are looked
// up by loop name; missing or zero entries default to 32, and negative
// entries are rejected with an error wrapping ErrNegativeTile. It returns
// an error when the configuration violates a hard execution-model limit
// (threads per block, shared memory per block, registers). It derives the
// nest's reuse analysis fresh; callers that already hold one (e.g. via an
// analysis.Program) should use MapNestReuse.
func MapNest(n *affine.Nest, params map[string]int64, tiles map[string]int64, g *arch.GPU, opts Options) (*MappedNest, error) {
	return MapNestReuse(n, deps.AnalyzeReuse(n), params, tiles, g, opts)
}

// MapNestReuse is MapNest with the nest's reuse analysis supplied by the
// caller instead of re-derived, so a sweep evaluating thousands of tile
// configurations pays the dependence/reuse analysis once.
func MapNestReuse(n *affine.Nest, reuse *deps.NestReuse, params map[string]int64, tiles map[string]int64, g *arch.GPU, opts Options) (*MappedNest, error) {
	m := &MappedNest{
		Nest:      n,
		Reuse:     reuse,
		Tiles:     make(map[string]int64, n.Depth()),
		Params:    params,
		Precision: opts.Precision,
		Launches:  n.RepeatCount(params),
	}

	// Clamp tile sizes to loop extents.
	for _, l := range n.Loops {
		t, err := ClampTile(tiles[l.Name], l.Extent(params))
		if err != nil {
			return nil, fmt.Errorf("codegen: nest %q loop %q: %w (%d)", n.Name, l.Name, err, tiles[l.Name])
		}
		m.Tiles[l.Name] = t
	}

	// Choose mapped (parallel) loops: thread-x is the CMA loop when
	// parallel, otherwise the innermost parallel loop; y and z follow
	// outside-in. At most 3 dimensions (Sec. IV-F).
	var err error
	m.MappedLoops, err = MappedLoopNames(n, reuse)
	if err != nil {
		return nil, err
	}

	mapped := make(map[string]bool, len(m.MappedLoops))
	for _, name := range m.MappedLoops {
		mapped[name] = true
	}
	for _, l := range n.Loops {
		if !mapped[l.Name] {
			m.SerialLoops = append(m.SerialLoops, l.Name)
		}
	}

	// PPCG quirk the paper documents in Sec. V-D (the overlined tile
	// sizes of Fig. 10): for nests deeper than 3, the code generator
	// ignores the tiling of the innermost loop — it runs untiled at its
	// full extent, which is what makes the default configuration of
	// high-dimensional kernels so costly.
	if n.Depth() > 3 {
		inner := n.Loops[n.Depth()-1]
		if !mapped[inner.Name] {
			if ext := inner.Extent(params); ext > 0 {
				m.Tiles[inner.Name] = ext
			}
		}
	}

	// Geometry: block/grid extents with PPCG-style thread coarsening.
	mtiles := make([]int64, len(m.MappedLoops))
	mexts := make([]int64, len(m.MappedLoops))
	for i, name := range m.MappedLoops {
		mtiles[i] = m.Tiles[name]
		mexts[i] = n.Loops[n.LoopIndex(name)].Extent(params)
	}
	geo, err := ComputeGeometry(mtiles, mexts, g.ThreadsPerBlock)
	if err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	m.BlockDims = geo.BlockDims
	m.Coarsen = geo.Coarsen
	m.GridDims = geo.GridDims
	m.ThreadsPerBlock = geo.ThreadsPerBlock
	m.TotalBlocks = geo.TotalBlocks

	// Reference servicing. An access is warp-efficient when thread-x
	// walks its fastest dimension (coalesced) or when it does not use
	// thread-x at all (a broadcast: every lane reads the same address,
	// one transaction).
	xName := m.MappedLoops[0]
	if len(reuse.Refs) > 0 {
		m.Refs = make([]MappedRef, 0, len(reuse.Refs))
	}
	for _, rr := range reuse.Refs {
		mr := MappedRef{
			Ref:       rr.Ref,
			Write:     rr.Ref.Write,
			Coalesced: rr.Ref.HasStride1(xName) || !rr.Ref.UsesIter(xName),
			Shared:    opts.UseShared && rr.Class == deps.MemShared,
		}
		m.Refs = append(m.Refs, mr)
	}

	// Shared-memory footprint: one staging buffer per distinct array in
	// shared memory, sized tile-extent (+halo) per dimension.
	quota := SharedQuotaOf(opts.SharedQuota, g)
	m.SharedBytesPerBlock = m.sharedFootprint(opts.Precision)
	// PPCG falls back to global memory when the staging buffers exceed
	// the budget: demote the largest arrays until the rest fit.
	for m.SharedBytesPerBlock > quota {
		if !m.demoteLargestShared(opts.Precision) {
			break
		}
		mDemotions.Add(1)
		m.SharedBytesPerBlock = m.sharedFootprint(opts.Precision)
	}
	if m.SharedBytesPerBlock > quota {
		return nil, fmt.Errorf("codegen: shared staging %dB exceeds quota %dB",
			m.SharedBytesPerBlock, quota)
	}

	// Register estimate: base context + accumulators and address
	// arithmetic per distinct reference, doubled for FP64 operands.
	// Like a real compiler under -maxrregcount pressure, usage is
	// clamped (spilled) to what the per-thread and per-block register
	// files allow rather than rejecting the block.
	uniq := deps.UniqueArrayRefs(reuse.Refs)
	m.RegsPerThread = EstimateRegs(len(uniq), len(m.SerialLoops), opts.Precision, m.ThreadsPerBlock, g)

	return m, nil
}

// ArrayStageElems returns the element count of an array's shared-memory
// staging buffer: per subscript position, extent = tile(iter) + halo
// spread across the array's shared references.
func (m *MappedNest) ArrayStageElems(array string) int64 {
	var refs []affine.Ref
	for _, mr := range m.Refs {
		if mr.Shared && mr.Ref.Array == array {
			refs = append(refs, mr.Ref)
		}
	}
	return StageElems(StageSpans(refs), func(iter string) (int64, bool) {
		t, ok := m.Tiles[iter]
		return t, ok
	})
}

// sharedArrays returns the distinct arrays currently staged in shared
// memory, sorted by name for determinism.
func (m *MappedNest) sharedArrays() []string {
	set := make(map[string]bool)
	for _, mr := range m.Refs {
		if mr.Shared {
			set[mr.Ref.Array] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (m *MappedNest) sharedFootprint(prec affine.Precision) int64 {
	total := int64(0)
	for _, a := range m.sharedArrays() {
		total += m.ArrayStageElems(a) * prec.Bytes()
	}
	return total
}

// demoteLargestShared moves the largest shared-staged array back to global
// memory. It returns false when nothing is staged.
func (m *MappedNest) demoteLargestShared(prec affine.Precision) bool {
	arrays := m.sharedArrays()
	if len(arrays) == 0 {
		return false
	}
	sizes := make([]int64, len(arrays))
	for i, a := range arrays {
		sizes[i] = m.ArrayStageElems(a) * prec.Bytes()
	}
	worst := arrays[DemoteIndex(sizes)]
	for i := range m.Refs {
		if m.Refs[i].Ref.Array == worst {
			m.Refs[i].Shared = false
		}
	}
	return true
}

// MappedKernel is the full compilation result: one MappedNest per nest.
type MappedKernel struct {
	Kernel *affine.Kernel
	Params map[string]int64
	Nests  []*MappedNest

	// TimeTileFallbacks and RegTileFallbacks count the nests where a
	// requested extension (RunConfig.TimeTileFuse / RunConfig.RegTile)
	// could not be applied — no stencil halo, tile too small, register
	// file too tight — and the nest kept its plain PPCG behaviour.
	// Recorded by the compile driver so per-nest failures are visible
	// instead of silently dropped.
	TimeTileFallbacks int
	RegTileFallbacks  int
}

// MapKernel maps every nest of the kernel with a single tile configuration
// (tile sizes are shared across nests by loop name, the way the paper
// applies one EATSS configuration per kernel).
func MapKernel(k *affine.Kernel, params map[string]int64, tiles map[string]int64, g *arch.GPU, opts Options) (*MappedKernel, error) {
	return MapKernelReuse(context.Background(), k, nil, params, tiles, g, opts)
}

// MapKernelReuse is MapKernel with the caller's context threaded through
// and precomputed per-nest reuse analyses (aligned with k.Nests, e.g.
// analysis.Program.NestReuses), so no per-compile re-derivation happens.
// A nil slice re-derives every nest. Each nest's mapping runs under a
// "codegen.map_nest" span recording the grid/block decision, thread
// coarsening, and staging footprint.
func MapKernelReuse(ctx context.Context, k *affine.Kernel, reuses []*deps.NestReuse, params map[string]int64, tiles map[string]int64, g *arch.GPU, opts Options) (*MappedKernel, error) {
	if reuses != nil && len(reuses) != len(k.Nests) {
		return nil, fmt.Errorf("codegen: kernel %s: %d precomputed reuse analyses for %d nests",
			k.Name, len(reuses), len(k.Nests))
	}
	if params == nil {
		params = k.Params
	}
	mk := &MappedKernel{Kernel: k, Params: params}
	for i := range k.Nests {
		_, sp := obs.Start(ctx, "codegen.map_nest")
		sp.SetStr("nest", k.Nests[i].Name)
		reuse := (*deps.NestReuse)(nil)
		if reuses != nil {
			reuse = reuses[i]
		}
		if reuse == nil {
			reuse = deps.AnalyzeReuse(&k.Nests[i])
		}
		mn, err := MapNestReuse(&k.Nests[i], reuse, params, tiles, g, opts)
		if err != nil {
			mMapFailures.Add(1)
			sp.SetStr("error", err.Error())
			sp.End()
			return nil, fmt.Errorf("kernel %s: %w", k.Name, err)
		}
		mNestsMapped.Add(1)
		mStagingBytes.Add(mn.SharedBytesPerBlock)
		sp.SetStr("mapped_loops", strings.Join(mn.MappedLoops, ","))
		sp.SetInt("threads_per_block", mn.ThreadsPerBlock)
		sp.SetInt("total_blocks", mn.TotalBlocks)
		sp.SetInt("shared_bytes_per_block", mn.SharedBytesPerBlock)
		sp.SetInt("regs_per_thread", mn.RegsPerThread)
		for _, c := range mn.Coarsen {
			if c > 1 {
				mCoarsened.Add(1)
				sp.SetBool("coarsened", true)
				break
			}
		}
		sp.End()
		mk.Nests = append(mk.Nests, mn)
	}
	return mk, nil
}
