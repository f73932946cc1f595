// Package verify is the pipeline's independent certifier. It re-decides
// solver results and codegen mappings from first principles — arbitrary-
// precision re-evaluation of every labeled SMT constraint against the
// returned model, a from-scratch re-derivation of the paper's resource
// bounds (warp alignment, register file, L1/shared/L2 capacity) straight
// from the GPU description, and a cross-check of the launch geometry the
// compiler produced — without calling back into the solver or the model
// generator it is checking. A certification failure is a hard error
// carrying the label of the falsified constraint.
//
// The Sec. IV system has exactly two derivations: internal/feas's
// Region on the model side (which the solver lowers) and this package's
// on the certifier side — upperBounds for the tile domains and bounds
// for the per-nest resource constraints, in math/big, shared by
// CertifySelection and CertifyPrune. verify imports neither core nor
// feas.
//
// The point is trust: the branch-and-prune solver, the model generator
// and the mapper are each a few hundred lines of arithmetic where a
// single wrong bound silently yields plausible-but-infeasible tiles.
// The certifier shares none of that code (only the IR and the machine
// description), so a bug must occur identically in two independent
// derivations to go unnoticed.
package verify

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/deps"
	"repro/internal/smt"
)

// Violation is a certification failure: a named check that the result
// provably fails. It is a hard error — a Violation means either the
// solver/mapper produced an infeasible result or the certifier and the
// model disagree about the formulation; both are bugs.
type Violation struct {
	// Label names the falsified check: an SMT constraint label
	// ("register", "shared-capacity", ...), "unlabeled" for anonymous
	// constraints, or a certifier check name ("tile-alignment",
	// "grid-dims", ...).
	Label string
	// Msg states the falsified fact with the concrete values.
	Msg string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("verify: %s: %s", v.Label, v.Msg)
}

func violationf(label, format string, args ...interface{}) error {
	return &Violation{Label: label, Msg: fmt.Sprintf(format, args...)}
}

// SelectionFacts is everything CertifySelection needs about one EATSS
// solve: the inputs (kernel, problem sizes, GPU, model options), the
// outcome (tiles), and optionally the solver's witness (problem + model)
// for constraint-level re-evaluation. It deliberately does not reference
// internal/core types so the certifier stays independent of the code it
// checks (core imports verify, not the other way around).
type SelectionFacts struct {
	Kernel *affine.Kernel
	// Params are the problem sizes the selection was made under (nil
	// uses Kernel.Params, matching the solve path).
	Params map[string]int64
	GPU    *arch.GPU

	// Tiles is the selected tile size per loop name.
	Tiles map[string]int64
	// Witness, when non-nil, is the solved problem and model for exact
	// constraint re-evaluation.
	Witness *smt.Witness

	// Model options, mirroring core.Options.
	SplitFactor      float64
	WarpFraction     float64
	Precision        affine.Precision
	ProblemSizeAware bool
}

func (f SelectionFacts) params() map[string]int64 {
	if f.Params != nil {
		return f.Params
	}
	return f.Kernel.Params
}

func (f SelectionFacts) warpAlignment() int64 {
	wf := f.WarpFraction
	if wf == 0 {
		wf = 1.0
	}
	waf := int64(wf * float64(f.GPU.ThreadsPerWarp))
	if waf < 1 {
		waf = 1
	}
	return waf
}

// CertifySelection certifies one tile selection. It runs three
// independent layers:
//
//  1. Witness replay (when a witness is present): every constraint of
//     the solved problem is re-decided against the model in
//     arbitrary-precision arithmetic (math/big), the model is checked
//     against the declared domains, and the published Tiles are checked
//     to be exactly the model's T_* values.
//  2. Tile-domain re-derivation: warp-alignment divisibility and the
//     [WAF, min(T_P_B, N)] bounds of Sec. IV-B, rebuilt from the GPU
//     description and kernel extents without the solver.
//  3. Resource re-derivation: the per-nest register and L1/shared/L2
//     capacity bounds (Sec. IV-F..IV-J) of bounds, decided at the
//     selected tiles.
//
// The first Violation found is returned; nil means certified.
func CertifySelection(f SelectionFacts) error {
	if f.Kernel == nil || f.GPU == nil {
		return violationf("facts", "kernel and GPU must be set")
	}
	if err := f.checkWitness(); err != nil {
		return err
	}
	if err := f.checkTileDomains(); err != nil {
		return err
	}
	return f.checkResources()
}

// checkWitness replays the solved problem against the model.
func (f SelectionFacts) checkWitness() error {
	w := f.Witness
	if w == nil {
		return nil
	}
	p := w.Problem
	if p == nil {
		return violationf("witness", "witness has no problem")
	}
	if got, want := len(w.Model), p.NumVars(); got != want {
		return violationf("witness", "model has %d values for %d variables", got, want)
	}
	for i := 0; i < p.NumVars(); i++ {
		v := smt.Var(i)
		if !p.InDomain(v, w.Model.Value(v)) {
			return violationf("domain", "model value %s = %d is outside the declared domain",
				p.Name(v), w.Model.Value(v))
		}
	}
	for _, c := range p.Cons() {
		if !c.HoldsBig(w.Model) {
			label := c.Label
			if label == "" {
				label = "unlabeled"
			}
			return violationf(label, "constraint %s is falsified by the model", c.Render(p))
		}
	}
	// The published tiles must be the model, nothing else.
	for name, t := range f.Tiles {
		v, ok := w.Vars["T_"+name]
		if !ok {
			return violationf("witness", "tile %q has no variable T_%s in the witness", name, name)
		}
		if got := w.Model.Value(v); got != t {
			return violationf("witness", "tile %q = %d disagrees with model T_%s = %d", name, t, name, got)
		}
	}
	return nil
}

// upperBounds re-derives the Sec. IV-B per-dimension upper bounds
// (min(T_P_B, N), intersected across nests sharing a loop name — the
// kernel-wide tiles of Sec. IV-M ii).
func (f SelectionFacts) upperBounds() map[string]int64 {
	params := f.params()
	upper := make(map[string]int64)
	for _, n := range f.Kernel.Nests {
		for _, l := range n.Loops {
			hi := f.GPU.ThreadsPerBlock
			if f.ProblemSizeAware {
				if ext := l.Extent(params); ext < hi {
					hi = ext
				}
			}
			if prev, ok := upper[l.Name]; !ok || hi < prev {
				upper[l.Name] = hi
			}
		}
	}
	return upper
}

// checkTileDomains re-derives the Sec. IV-B tile domains.
func (f SelectionFacts) checkTileDomains() error {
	waf := f.warpAlignment()
	upper := f.upperBounds()
	names := make([]string, 0, len(upper))
	for name := range upper {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, ok := f.Tiles[name]
		if !ok {
			return violationf("tile-domain", "loop %q has no selected tile", name)
		}
		if t < waf || t%waf != 0 {
			return violationf("tile-alignment",
				"T_%s = %d is not a positive multiple of the warp-alignment factor %d", name, t, waf)
		}
		if t > upper[name] {
			return violationf("tile-domain",
				"T_%s = %d exceeds the re-derived upper bound %d", name, t, upper[name])
		}
	}
	return nil
}

// checkResources decides every re-derived resource bound at the
// selected tiles.
func (f SelectionFacts) checkResources() error {
	bounds, serial := f.bounds()
	if len(serial) > 0 {
		return violationf("parallelism", "nest %q has no parallel loop", serial[0])
	}
	for _, b := range bounds {
		lhs, missing := b.lhs(f.Tiles)
		if missing != "" {
			return violationf("tile-domain", "loop %q has no selected tile", missing)
		}
		if lhs.Cmp(big.NewInt(b.cap)) > 0 {
			return violationf(b.label, "nest %q: %s %s exceeds %s %d", b.nest, b.lhsName, lhs, b.capName, b.cap)
		}
	}
	return nil
}

// bound is one re-derived per-nest Sec. IV resource constraint: the
// sum over terms of coeff x the product of the named tiles is at most
// cap.
type bound struct {
	label string
	nest  string
	coeff int64
	terms [][]string
	cap   int64
	// lhsName and capName word the comparison in violation messages.
	lhsName, capName string
}

// lhs evaluates the left-hand side at tiles in arbitrary precision.
// missing names a tile the bound reads that tiles leaves unset (the
// value is then nil).
func (b bound) lhs(tiles map[string]int64) (v *big.Int, missing string) {
	v = new(big.Int)
	for _, term := range b.terms {
		p := big.NewInt(b.coeff)
		for _, it := range term {
			t, ok := tiles[it]
			if !ok {
				return nil, it
			}
			p.Mul(p, big.NewInt(t))
		}
		v.Add(v, p)
	}
	return v, ""
}

// bounds is the certifier's one derivation of the Sec. IV resource
// bounds, shared by CertifySelection and CertifyPrune: per nest, from a
// fresh dependence/reuse analysis and the GPU description, in emission
// order — the register file (IV-G/IV-I), the shared capacity, then the
// L1 capacity or, with the whole pool given to shared memory, the per-SM
// L2 share (IV-C/E/H/J). serial lists the nests with no parallel loop to size a
// block from; they get no bounds.
func (f SelectionFacts) bounds() (out []bound, serial []string) {
	g := f.GPU
	elemB := f.Precision.Bytes()
	pool := g.L1SharedBytes / elemB
	shCap := int64(f.SplitFactor * float64(pool))
	for ni := range f.Kernel.Nests {
		nest := &f.Kernel.Nests[ni]
		reuse := deps.AnalyzeReuse(nest)

		// B_size: the tiles of the first <=3 parallel loops (IV-F).
		var parallel []string
		for d, l := range nest.Loops {
			if reuse.Info.Parallel[d] && len(parallel) < 3 {
				parallel = append(parallel, l.Name)
			}
		}
		if len(parallel) == 0 {
			serial = append(serial, nest.Name)
			continue
		}
		// REG_SM = B_size x distinct-line refs x FP_factor <= R_P_S.
		out = append(out, bound{"register", nest.Name, reuse.DistinctLineRefs * f.Precision.Factor(),
			[][]string{parallel}, g.RegsPerSM, "REG_SM", "R_P_S"})

		// Data-tile volumes in elements, split by class; a zero split
		// cache-maps every reference.
		var l1, sh [][]string
		for _, a := range arrayVolumes(nest, reuse) {
			if len(a.iters) == 0 {
				continue // scalar
			}
			if a.l1 || f.SplitFactor == 0 {
				l1 = append(l1, a.iters)
			} else {
				sh = append(sh, a.iters)
			}
		}
		if len(sh) > 0 {
			out = append(out, bound{"shared-capacity", nest.Name, 1, sh, shCap, "shared volume", "shared capacity"})
		}
		if len(l1) > 0 {
			if f.SplitFactor >= 1.0 {
				out = append(out, bound{"l2-share", nest.Name, 1, l1, g.L2Bytes / g.SMCount / elemB,
					"cache-mapped volume", "the per-SM L2 share"})
			} else {
				out = append(out, bound{"l1-capacity", nest.Name, 1, l1, pool - shCap,
					"cache-mapped volume", "L1 capacity"})
			}
		}
	}
	return out, serial
}

// arrayVolume mirrors analysis.ArrayVolume, re-derived here so the
// certifier does not depend on the artifact it is checking.
type arrayVolume struct {
	array string
	iters []string
	l1    bool
}

func arrayVolumes(nest *affine.Nest, reuse *deps.NestReuse) []arrayVolume {
	idx := make(map[string]int)
	var out []arrayVolume
	for _, rr := range reuse.Refs {
		i, ok := idx[rr.Ref.Array]
		if !ok {
			i = len(out)
			idx[rr.Ref.Array] = i
			out = append(out, arrayVolume{array: rr.Ref.Array})
		}
		if rr.Class == deps.MemL1 {
			out[i].l1 = true
		}
	}
	for i := range out {
		for _, l := range nest.Loops {
			used := false
			for _, rr := range reuse.Refs {
				if rr.Ref.Array == out[i].array && rr.Ref.UsesIter(l.Name) {
					used = true
					break
				}
			}
			if used {
				out[i].iters = append(out[i].iters, l.Name)
			}
		}
	}
	return out
}

// CertifyMapping cross-checks the launch geometry of one compiled nest
// against the execution-model limits of the GPU and the mapping's own
// invariants: block/grid dimension products, per-dimension coverage of
// the tile, the shared-memory staging footprint recomputed from the
// reference list, register bounds, and launch count. nil means
// certified.
func CertifyMapping(m *codegen.MappedNest, g *arch.GPU) error {
	name := m.Nest.Name
	dims := len(m.MappedLoops)
	if dims == 0 || dims > 3 {
		return violationf("mapped-loops", "nest %q maps %d loop dimensions (want 1..3)", name, dims)
	}
	if len(m.BlockDims) != dims || len(m.Coarsen) != dims || len(m.GridDims) != dims {
		return violationf("geometry",
			"nest %q: %d mapped loops but %d block / %d coarsen / %d grid dims",
			name, dims, len(m.BlockDims), len(m.Coarsen), len(m.GridDims))
	}

	tpb, blocks := int64(1), int64(1)
	for i := range m.MappedLoops {
		if m.BlockDims[i] < 1 || m.Coarsen[i] < 1 || m.GridDims[i] < 1 {
			return violationf("geometry",
				"nest %q dim %d: non-positive geometry (block %d, coarsen %d, grid %d)",
				name, i, m.BlockDims[i], m.Coarsen[i], m.GridDims[i])
		}
		tpb *= m.BlockDims[i]
		blocks *= m.GridDims[i]
	}
	if tpb != m.ThreadsPerBlock {
		return violationf("threads-per-block",
			"nest %q: ThreadsPerBlock %d != product of BlockDims %d", name, m.ThreadsPerBlock, tpb)
	}
	if tpb > g.ThreadsPerBlock {
		return violationf("threads-per-block",
			"nest %q: block of %d threads exceeds the device limit %d", name, tpb, g.ThreadsPerBlock)
	}
	if blocks != m.TotalBlocks {
		return violationf("grid-dims",
			"nest %q: TotalBlocks %d != product of GridDims %d", name, m.TotalBlocks, blocks)
	}

	for i, ln := range m.MappedLoops {
		tile := m.Tiles[ln]
		li := m.Nest.LoopIndex(ln)
		if li < 0 {
			return violationf("mapped-loops", "nest %q maps unknown loop %q", name, ln)
		}
		ext := m.Nest.Loops[li].Extent(m.Params)
		want := int64(1)
		if tile > 0 {
			want = (ext + tile - 1) / tile
			if want < 1 {
				want = 1
			}
		}
		if m.GridDims[i] != want {
			return violationf("grid-dims",
				"nest %q loop %q: GridDims %d != ceil(extent %d / tile %d) = %d",
				name, ln, m.GridDims[i], ext, tile, want)
		}
		if m.BlockDims[i]*m.Coarsen[i] < tile {
			return violationf("coverage",
				"nest %q loop %q: block %d x coarsen %d covers fewer points than the tile %d",
				name, ln, m.BlockDims[i], m.Coarsen[i], tile)
		}
	}

	// Shared staging footprint, recomputed from the reference list.
	shared := make(map[string]bool)
	for _, mr := range m.Refs {
		if mr.Shared {
			shared[mr.Ref.Array] = true
		}
	}
	footprint := int64(0)
	for a := range shared {
		footprint += m.ArrayStageElems(a) * m.Precision.Bytes()
	}
	if footprint != m.SharedBytesPerBlock {
		return violationf("shared-footprint",
			"nest %q: SharedBytesPerBlock %d != recomputed staging footprint %d",
			name, m.SharedBytesPerBlock, footprint)
	}
	if m.SharedBytesPerBlock > g.SharedPerBlock {
		return violationf("shared-footprint",
			"nest %q: staging %dB exceeds the per-block shared limit %dB",
			name, m.SharedBytesPerBlock, g.SharedPerBlock)
	}

	if m.RegsPerThread < 1 || m.RegsPerThread > g.RegsPerThread {
		return violationf("registers",
			"nest %q: RegsPerThread %d outside [1, %d]", name, m.RegsPerThread, g.RegsPerThread)
	}
	// Register tiling only guarantees the per-thread limit (the extra
	// accumulators are spilled per-thread, not re-budgeted per block),
	// so the per-block bound is checked only on plain PPCG mappings.
	if m.RegTiling == nil && m.RegsPerThread*m.ThreadsPerBlock > g.RegsPerBlock {
		return violationf("registers",
			"nest %q: %d regs/thread x %d threads exceeds the per-block file %d",
			name, m.RegsPerThread, m.ThreadsPerBlock, g.RegsPerBlock)
	}

	if m.Launches < 1 {
		return violationf("launches", "nest %q: launch count %d < 1", name, m.Launches)
	}
	if g.WarpsPerBlock(m.ThreadsPerBlock) > g.MaxWarpsPerSM {
		return violationf("warps",
			"nest %q: %d warps per block exceeds the per-SM warp limit %d",
			name, g.WarpsPerBlock(m.ThreadsPerBlock), g.MaxWarpsPerSM)
	}
	return nil
}

// CertifyKernel certifies every nest of a compiled kernel.
func CertifyKernel(mk *codegen.MappedKernel, g *arch.GPU) error {
	for _, m := range mk.Nests {
		if err := CertifyMapping(m, g); err != nil {
			return err
		}
	}
	return nil
}
