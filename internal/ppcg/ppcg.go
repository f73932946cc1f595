// Package ppcg plays the role of the Polyhedral Parallel Code Generator in
// the paper's pipeline: it supplies the default tile configuration
// (32^d, the baseline every experiment compares against), enumerates the
// exploratory tile spaces of Secs. II and V (hundreds to thousands of tiled
// variants per kernel), and compiles a tile configuration into mapped GPU
// kernels via the codegen package.
package ppcg

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/obs"
)

var (
	mCompiles        = obs.NewCounter("ppcg.compiles")
	mCompileFailures = obs.NewCounter("ppcg.compile_failures")
)

// DefaultTileSize is PPCG's out-of-the-box tile size per loop dimension.
const DefaultTileSize = 32

// DefaultTiles returns the paper's "Def PPCG" configuration: 32^d
// (d = maximal loop depth), one entry per distinct loop name.
func DefaultTiles(k *affine.Kernel) map[string]int64 {
	tiles := make(map[string]int64)
	for _, n := range k.Nests {
		for _, l := range n.Loops {
			tiles[l.Name] = DefaultTileSize
		}
	}
	return tiles
}

// CompileAnalyzed maps a kernel with the given tiles — the "pass tile
// sizes to PPCG to produce CUDA code" step of the paper — from a
// precomputed analysis.Program: the per-nest reuse analyses come from the
// artifact instead of per-compile re-derivation, which is what makes
// sweeping thousands of tile configurations cheap. A nil tiles map
// compiles the default configuration. A nil params map uses the
// Program's resolved params; a non-nil one overrides the problem sizes
// (the reuse analysis is parameter-independent, so any params are valid
// for one artifact).
func CompileAnalyzed(ctx context.Context, prog *analysis.Program, params, tiles map[string]int64, g *arch.GPU, opts codegen.Options) (*codegen.MappedKernel, error) {
	if params == nil {
		params = prog.Params
	}
	analysis.CountReuseHits(len(prog.Nests))
	k := prog.Kernel
	ctx, sp := obs.Start(ctx, "ppcg.compile")
	defer sp.End()
	sp.SetStr("kernel", k.Name)
	sp.SetBool("use_shared", opts.UseShared)
	if tiles == nil {
		tiles = DefaultTiles(k)
	}
	mCompiles.Add(1)
	mk, err := codegen.MapKernelReuse(ctx, k, prog.NestReuses(), params, tiles, g, opts)
	if err != nil {
		mCompileFailures.Add(1)
		sp.SetStr("error", err.Error())
		return nil, fmt.Errorf("ppcg: %w", err)
	}
	return mk, nil
}

// LoopNames returns the distinct loop names of the kernel, sorted.
func LoopNames(k *affine.Kernel) []string {
	seen := make(map[string]bool)
	var names []string
	for _, n := range k.Nests {
		for _, l := range n.Loops {
			if !seen[l.Name] {
				seen[l.Name] = true
				names = append(names, l.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Space enumerates the full cartesian tile space of a kernel over the
// candidate sizes: one configuration per combination of sizes across the
// kernel's distinct loop names. With 15 candidates and a 3-deep kernel
// this yields the paper's 3,375-variant space (Sec. II).
func Space(k *affine.Kernel, sizes []int64) []map[string]int64 {
	names := LoopNames(k)
	var out []map[string]int64
	cur := make(map[string]int64, len(names))
	var rec func(int)
	rec = func(i int) {
		if i == len(names) {
			cp := make(map[string]int64, len(cur))
			for k, v := range cur {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		for _, s := range sizes {
			cur[names[i]] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// PaperSpaceSizes returns the 15 candidate tile sizes that reproduce the
// paper's 3,375-variant (15^3) 2mm space: multiples of 8 and powers of two
// between 4 and 512.
func PaperSpaceSizes() []int64 {
	return []int64{4, 8, 16, 24, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384, 512}
}
