package gpusim

import (
	"slices"
	"sort"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/codegen"
)

// Traffic summarizes one launch's memory-system activity (bytes are per
// launch, across the whole grid).
type Traffic struct {
	// Flops is the floating-point work of one launch.
	Flops int64
	// L2ReadBytes is the read traffic arriving at L2 from the SMs
	// (L1 misses plus, on architectures without the bypass, shared-memory
	// staging loads). L2Sectors = L2ReadBytes / sector size: the paper's
	// Fig. 9 proxy for data liveness.
	L2ReadBytes int64
	// L2WriteBytes is store traffic through L2.
	L2WriteBytes int64
	// DRAMBytes is the traffic between L2 and device memory.
	DRAMBytes int64
	// SharedBytes is shared-memory bank traffic (reads + staging writes).
	SharedBytes int64
	// StagingBytes is the global->shared cooperative load volume.
	StagingBytes int64
	// L2Sectors is the sector count backing the Fig. 9 correlation.
	L2Sectors int64
	// LiveBytesPerThread measures thread-private data kept live across a
	// thread's serial iterations (the intra-thread liveness EATSS
	// constrains; feeds the power model's liveness term).
	LiveBytesPerThread int64
	// L1CapturedAll reports whether every cache-mapped array's per-step
	// tile fit in its L1 share (no thrashing).
	L1CapturedAll bool
	// L1Bytes is the volume moved through the SM-local L1/LSU pipe:
	// every cache-mapped access reads through it (hits included), and
	// uncoalesced warp accesses move a full sector per lane. The L1 and
	// shared-memory paths share this pipe on NVIDIA SMs, so staging
	// relieves it only by shortening each access's footprint.
	L1Bytes int64
	// SerialSteps is the number of staging steps per block.
	SerialSteps int64
	// Arrays attributes the launch's traffic to the individual arrays,
	// in sorted array-name order. The per-level sums match the totals
	// above (DRAM exactly; L1 up to per-array rounding) — this is the
	// breakdown internal/profile turns into per-array energy shares.
	Arrays []ArrayTraffic
}

// ArrayTraffic is one array's share of a launch's memory-system traffic
// (bytes per launch, across the whole grid), with the servicing class
// the mapping chose for it.
type ArrayTraffic struct {
	Array string
	// Class is how the array's references are serviced: "shared"
	// (cooperatively staged), "register" (register-resident
	// accumulator), "cached" (fits its L1 share), or "spilled"
	// (L1-overflowing, re-fetching from L2).
	Class string

	L2ReadBytes  int64
	L2WriteBytes int64
	DRAMBytes    int64
	SharedBytes  int64
	StagingBytes int64
	L1Bytes      int64
	// LiveBytesPerThread is the array's contribution to the nest's
	// thread-private liveness (the paper's energy lever).
	LiveBytesPerThread int64
}

// arrayGroup accumulates all references to one array while
// trafficInputs reduces a mapped nest to GroupTraffic summaries.
// Footprints are unions over the group's references, computed per
// subscript position, so stencil offsets do not multiply-count.
type arrayGroup struct {
	array string
	refs  []codegen.MappedRef

	shared     bool
	write      bool
	usesSerial bool
}

// UnionSpan is one subscript position of an array group's union
// footprint: the distinct iterators whose sizes the position sums over
// (sorted, for determinism) and the constant-offset spread
// (max − min constant across the group's references at that position).
type UnionSpan struct {
	Iters  []string
	Spread int64
}

// UnionSpans precomputes, per subscript position, the structure
// UnionElems evaluates: which iterators are involved and the
// constant-offset spread. It depends only on the references — not on
// tile sizes — so internal/symbolic derives it once per program and
// re-evaluates it per tile point.
func UnionSpans(refs []affine.Ref) []UnionSpan {
	type span struct {
		iters      []string // distinct
		minC, maxC int64
		set        bool
	}
	var spans []span
	for _, r := range refs {
		for p, s := range r.Subscripts {
			for len(spans) <= p {
				spans = append(spans, span{})
			}
			sp := &spans[p]
			for _, it := range s.IterNames() {
				if !slices.Contains(sp.iters, it) {
					sp.iters = append(sp.iters, it)
				}
			}
			if !sp.set {
				sp.minC, sp.maxC, sp.set = s.Const, s.Const, true
			} else {
				if s.Const < sp.minC {
					sp.minC = s.Const
				}
				if s.Const > sp.maxC {
					sp.maxC = s.Const
				}
			}
		}
	}
	out := make([]UnionSpan, len(spans))
	for i, sp := range spans {
		sort.Strings(sp.iters)
		out[i] = UnionSpan{Iters: sp.iters, Spread: sp.maxC - sp.minC}
	}
	return out
}

// UnionElems evaluates the union footprint of an array group under a
// size assignment: per subscript position, the extent is the sum of the
// sizes of the involved iterators (minus overlaps) plus the
// constant-offset spread.
func UnionElems(spans []UnionSpan, size func(iter string) int64) int64 {
	elems := int64(1)
	for _, sp := range spans {
		ext := int64(1) + sp.Spread
		for _, it := range sp.Iters {
			ext += size(it) - 1
		}
		if ext < 1 {
			ext = 1
		}
		elems *= ext
	}
	return elems
}

// GroupTraffic is one array's reference-group summary — the per-array
// input TrafficModel consumes, with every tile-dependent quantity
// already evaluated to a number. ComputeTraffic builds it by walking a
// MappedNest; internal/symbolic builds it from a precomputed plan.
type GroupTraffic struct {
	Array string
	// Shared marks a group cooperatively staged through shared memory;
	// Write marks a written array; UsesSerial marks a group some
	// reference of which is indexed by a serial (non-grid-mapped) loop;
	// RegResident marks a written accumulator indexed only by mapped
	// loops (kept in registers).
	Shared, Write, UsesSerial, RegResident bool

	FpStepBytes int64 // per-serial-step tile footprint (union)
	DistBytes   int64 // distinct bytes touched per block per launch
	GlobalBytes int64 // distinct bytes touched by the whole launch
	SerialBytes int64 // per-thread private footprint along serial dims
	Accesses    int64 // dynamic accesses issued per block (all refs)
	// BankReadsPerBlock is the shared-memory bank-read volume issued per
	// block (meaningful only for Shared groups).
	BankReadsPerBlock int64
	// L1BytesPerIter is the group's contribution to the L1/LSU pipe per
	// innermost iteration: one element per coalesced (or broadcast)
	// access, a full sector per lane otherwise, amortized over register
	// micro-tiles; zero for register-resident groups, with staged
	// (shared) references excluded.
	L1BytesPerIter float64
}

// TrafficInputs summarizes one launch of a mapped nest for
// TrafficModel: the per-block iteration shape plus the per-array group
// summaries in sorted array-name order.
type TrafficInputs struct {
	ElemBytes           int64
	IterPerBlock        int64
	SerialSteps         int64
	Flops               int64
	TimeFuse            int64
	Blocks              int64
	SharedBytesPerBlock int64
	Groups              []GroupTraffic
}

// TrafficModel models the memory hierarchy for one launch given its
// numeric summary. It is a pure function of its inputs — the single
// source of truth shared by ComputeTraffic (per-point simulation) and
// the closed-form plans of internal/symbolic.
// maxStackGroups bounds the per-group transient buffers TrafficModel
// keeps on the stack; kernels with more arrays fall back to the heap.
const maxStackGroups = 16

func TrafficModel(in *TrafficInputs, g *arch.GPU, occ Occupancy) Traffic {
	tr := Traffic{Flops: in.Flops, SerialSteps: in.SerialSteps}
	elemB := in.ElemBytes
	blocks := in.Blocks

	// L1 capture: the L1 budget per block is what the combined L1+shared
	// pool leaves after the shared carveout, divided among resident
	// blocks. Arrays whose per-step tiles fit (greedy, smallest first)
	// hit in L1 and send only compulsory misses to L2.
	carveout := in.SharedBytesPerBlock * occ.BlocksPerSM
	l1PerSM := g.L1SharedBytes - carveout
	if l1PerSM < 0 {
		l1PerSM = 0
	}
	l1PerBlock := l1PerSM / occ.BlocksPerSM

	// Group counts are tiny (one per array), so the transient per-group
	// state lives in stack buffers and the L1 ordering is an insertion
	// sort: this function runs once per point per nest on the sweep hot
	// path, where sort.Slice's closure and three make()s dominate the
	// closed-form evaluator's cost.
	var l1IdxBuf [maxStackGroups]int
	l1Idx := l1IdxBuf[:0]
	if len(in.Groups) > maxStackGroups {
		l1Idx = make([]int, 0, len(in.Groups))
	}
	for i := range in.Groups {
		gr := &in.Groups[i]
		if !gr.Shared && !gr.RegResident {
			l1Idx = append(l1Idx, i)
		}
	}
	for a := 1; a < len(l1Idx); a++ {
		for b := a; b > 0; b-- {
			x, y := &in.Groups[l1Idx[b-1]], &in.Groups[l1Idx[b]]
			if x.FpStepBytes < y.FpStepBytes ||
				(x.FpStepBytes == y.FpStepBytes && x.Array <= y.Array) {
				break
			}
			l1Idx[b-1], l1Idx[b] = l1Idx[b], l1Idx[b-1]
		}
	}
	tr.L1CapturedAll = true
	budget := l1PerBlock
	var cachedBuf [maxStackGroups]bool
	cached := cachedBuf[:]
	if len(in.Groups) > maxStackGroups {
		cached = make([]bool, len(in.Groups))
	} else {
		cached = cached[:len(in.Groups)]
	}
	for _, i := range l1Idx {
		gr := &in.Groups[i]
		if gr.FpStepBytes <= budget {
			cached[i] = true
			budget -= gr.FpStepBytes
		} else {
			tr.L1CapturedAll = false
		}
	}

	l1BytesPerIter := float64(0)
	for i := range in.Groups {
		l1BytesPerIter += in.Groups[i].L1BytesPerIter
	}

	// Per-block traffic, attributed per array as it accrues.
	arrays := make([]ArrayTraffic, len(in.Groups))
	var l2ReadPerBlock, l2WritePerBlock, stagingPerBlock, sharedPerBlock int64
	for i := range in.Groups {
		gr := &in.Groups[i]
		at := &arrays[i]
		at.Array = gr.Array
		switch {
		case gr.Shared:
			at.Class = "shared"
		case gr.RegResident:
			at.Class = "register"
		case cached[i]:
			at.Class = "cached"
		default:
			at.Class = "spilled"
		}
		switch {
		case gr.Shared:
			// Cooperative staging: tile (+halo) per step, coalesced.
			// Bank reads amortize over register micro-tiles.
			staged := gr.FpStepBytes * tr.SerialSteps
			stagingPerBlock += staged
			sharedPerBlock += gr.BankReadsPerBlock + staged
			at.StagingBytes = staged * blocks
			at.SharedBytes = (gr.BankReadsPerBlock + staged) * blocks
		case gr.RegResident:
			l2ReadPerBlock += gr.DistBytes
			l2WritePerBlock += gr.DistBytes
			at.L2ReadBytes = gr.DistBytes * blocks
			at.L2WriteBytes = gr.DistBytes * blocks
		case cached[i]:
			l2ReadPerBlock += gr.DistBytes
			at.L2ReadBytes = gr.DistBytes * blocks
			if gr.Write {
				l2WritePerBlock += gr.DistBytes
				at.L2WriteBytes = gr.DistBytes * blocks
			}
			if gr.UsesSerial {
				tr.LiveBytesPerThread += gr.SerialBytes
				at.LiveBytesPerThread = gr.SerialBytes
			}
		default:
			// L1-spilled array. Re-fetches only happen when the array
			// is actually reused across serial steps (temporal reuse
			// whose distance overflowed the cache): streaming and
			// single-use data is fetched once per line regardless of
			// tile size. The refetch factor grows with how far the
			// per-step tile overshoots the L1 share, bounded by the
			// array's true reuse.
			refetch := 1.0
			if gr.UsesSerial && l1PerBlock > 0 {
				refetch = float64(gr.FpStepBytes) / float64(l1PerBlock)
				if reuse := float64(gr.Accesses*elemB) / float64(gr.DistBytes); refetch > reuse {
					refetch = reuse
				}
				if refetch < 1 {
					refetch = 1
				}
			}
			l2ReadPerBlock += int64(float64(gr.DistBytes) * refetch)
			at.L2ReadBytes = int64(float64(gr.DistBytes)*refetch) * blocks
			if gr.Write {
				l2WritePerBlock += gr.DistBytes
				at.L2WriteBytes = gr.DistBytes * blocks
			}
			if gr.UsesSerial {
				tr.LiveBytesPerThread += gr.SerialBytes
				at.LiveBytesPerThread = gr.SerialBytes
			}
		}
	}

	tr.StagingBytes = stagingPerBlock * blocks
	tr.SharedBytes = sharedPerBlock * blocks
	tr.L2ReadBytes = l2ReadPerBlock * blocks
	tr.L2WriteBytes = l2WritePerBlock * blocks

	// Staging loads transit L2 on architectures without the
	// global->shared bypass (Sec. IV-H); with the bypass they do not
	// occupy L2 sectors (and are invisible to the Fig. 9 counter) but
	// are still served by it on their way to DRAM.
	if !g.BypassL2ForShared {
		tr.L2ReadBytes += tr.StagingBytes
		for i := range arrays {
			arrays[i].L2ReadBytes += arrays[i].StagingBytes
		}
	}
	tr.L2Sectors = tr.L2ReadBytes / g.SectorBytes

	// L2 -> DRAM: compulsory traffic is each array's distinct touched
	// bytes; when the concurrent working set spills L2, a fraction of the
	// L2 request stream re-fetches from DRAM.
	var compulsory, wsPerBlock int64
	for i := range in.Groups {
		compulsory += in.Groups[i].GlobalBytes
		wsPerBlock += in.Groups[i].DistBytes
	}
	tr.L1Bytes = int64(l1BytesPerIter * float64(in.IterPerBlock*blocks*in.TimeFuse))

	ws := wsPerBlock * occ.ActiveBlocks
	inbound := tr.L2ReadBytes + tr.L2WriteBytes + tr.StagingBytes
	tr.DRAMBytes = compulsory
	spill := int64(0)
	if ws > g.L2Bytes && inbound > compulsory {
		missFrac := float64(ws-g.L2Bytes) / float64(ws)
		spill = int64(float64(inbound-compulsory) * missFrac)
		tr.DRAMBytes += spill
	}

	// Per-array DRAM attribution: each array's compulsory bytes, plus the
	// spill term distributed in proportion to how far the array's L2
	// request stream exceeds its compulsory footprint. The last excess
	// holder absorbs the integer-division remainder, so the per-array
	// values sum exactly to tr.DRAMBytes.
	var excessSum int64
	var excessBuf [maxStackGroups]int64
	excess := excessBuf[:]
	if len(in.Groups) > maxStackGroups {
		excess = make([]int64, len(in.Groups))
	} else {
		excess = excess[:len(in.Groups)]
	}
	for i := range in.Groups {
		gr := &in.Groups[i]
		at := &arrays[i]
		at.DRAMBytes = gr.GlobalBytes
		at.L1Bytes = int64(gr.L1BytesPerIter * float64(in.IterPerBlock*blocks*in.TimeFuse))
		if e := at.L2ReadBytes + at.L2WriteBytes + at.StagingBytes - gr.GlobalBytes; e > 0 {
			excess[i] = e
			excessSum += e
		}
	}
	if spill > 0 && excessSum > 0 {
		allocated := int64(0)
		last := -1
		for i := range excess {
			if excess[i] > 0 {
				last = i
			}
		}
		for i, e := range excess {
			if e == 0 {
				continue
			}
			share := int64(float64(spill) * float64(e) / float64(excessSum))
			if i == last {
				share = spill - allocated
			}
			arrays[i].DRAMBytes += share
			allocated += share
		}
	}
	tr.Arrays = arrays
	return tr
}

// ComputeTraffic models the memory hierarchy for one launch of m.
func ComputeTraffic(m *codegen.MappedNest, g *arch.GPU, occ Occupancy) Traffic {
	return TrafficModel(trafficInputs(m, g), g, occ)
}

// trafficInputs reduces a mapped nest to the numeric launch summary
// TrafficModel consumes.
func trafficInputs(m *codegen.MappedNest, g *arch.GPU) *TrafficInputs {
	elemB := m.Precision.Bytes()
	in := &TrafficInputs{
		ElemBytes:           elemB,
		SerialSteps:         1,
		TimeFuse:            1,
		Blocks:              m.TotalBlocks,
		SharedBytesPerBlock: m.SharedBytesPerBlock,
	}

	mapped := make(map[string]bool, len(m.MappedLoops))
	for _, n := range m.MappedLoops {
		mapped[n] = true
	}
	extent := func(name string) int64 {
		return m.Nest.Loops[m.Nest.LoopIndex(name)].Extent(m.Params)
	}

	// Iterations per block and serial staging steps.
	iterPerBlock := int64(1)
	for _, l := range m.Nest.Loops {
		ext := l.Extent(m.Params)
		if mapped[l.Name] {
			iterPerBlock *= m.Tiles[l.Name]
		} else {
			iterPerBlock *= ext
			t := m.Tiles[l.Name]
			in.SerialSteps *= (ext + t - 1) / t
		}
	}
	in.IterPerBlock = iterPerBlock
	perIterFlops := int64(0)
	for _, st := range m.Nest.Body {
		perIterFlops += st.FlopsPerIter
	}
	in.Flops = iterPerBlock * m.TotalBlocks * perIterFlops

	// Overlapped time tiling: one launch executes Fuse fused sweeps with
	// redundant halo compute, while the memory traffic (computed for a
	// single sweep, plus the enlarged halo) is paid once per launch
	// instead of once per step — the inter-step reuse PPCG lacks.
	if m.TimeTiling != nil {
		in.TimeFuse = m.TimeTiling.Fuse
		in.Flops = int64(float64(in.Flops*in.TimeFuse) * m.TimeTiling.OverlapFactor)
	}

	// Group references by array.
	groups := make(map[string]*arrayGroup)
	var order []string
	for _, mr := range m.Refs {
		gr, ok := groups[mr.Ref.Array]
		if !ok {
			gr = &arrayGroup{array: mr.Ref.Array}
			groups[mr.Ref.Array] = gr
			order = append(order, mr.Ref.Array)
		}
		gr.refs = append(gr.refs, mr)
		gr.shared = gr.shared || mr.Shared
		gr.write = gr.write || mr.Write
	}
	sort.Strings(order)

	tileSize := func(it string) int64 { return m.Tiles[it] }
	distSize := func(it string) int64 {
		if mapped[it] {
			return m.Tiles[it]
		}
		return extent(it)
	}
	serialSize := func(it string) int64 {
		if mapped[it] {
			return 1
		}
		return m.Tiles[it]
	}

	in.Groups = make([]GroupTraffic, 0, len(order))
	for _, name := range order {
		gr := groups[name]
		for _, mr := range gr.refs {
			for _, l := range m.Nest.Loops {
				if !mapped[l.Name] && mr.Ref.UsesIter(l.Name) {
					gr.usesSerial = true
				}
			}
		}
		refs := make([]affine.Ref, len(gr.refs))
		for i, mr := range gr.refs {
			refs[i] = mr.Ref
		}
		spans := UnionSpans(refs)
		gt := GroupTraffic{
			Array:       name,
			Shared:      gr.shared,
			Write:       gr.write,
			UsesSerial:  gr.usesSerial,
			RegResident: gr.write && !gr.usesSerial && !gr.shared,
			FpStepBytes: UnionElems(spans, tileSize) * elemB,
			DistBytes:   UnionElems(spans, distSize) * elemB,
			GlobalBytes: UnionElems(spans, extent) * elemB,
			SerialBytes: UnionElems(spans, serialSize) * elemB,
			Accesses:    iterPerBlock * int64(len(gr.refs)),
		}
		if gt.Shared {
			for _, mr := range gr.refs {
				gt.BankReadsPerBlock += iterPerBlock * elemB * in.TimeFuse / m.MicroReuse(mr)
			}
		}
		if !gt.RegResident {
			for _, mr := range gr.refs {
				amort := float64(m.MicroReuse(mr))
				switch {
				case mr.Shared:
					// staged access: accounted as shared-bank traffic
				case mr.Coalesced:
					gt.L1BytesPerIter += float64(elemB) / amort
				default:
					gt.L1BytesPerIter += float64(g.SectorBytes) / amort
				}
			}
		}
		in.Groups = append(in.Groups, gt)
	}
	return in
}
