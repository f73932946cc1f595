package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
)

// selectTiles stages k's analysis and solves one formulation.
func selectTiles(k *affine.Kernel, g *arch.GPU, opts Options) (*Selection, error) {
	return SelectTilesAnalyzed(context.Background(), analysis.Analyze(k, nil), g, opts)
}

// explain stages k's analysis and explains sel against it.
func explain(k *affine.Kernel, g *arch.GPU, sel *Selection) ([]ConstraintSlack, string) {
	return ExplainAnalyzed(analysis.Analyze(k, nil), g, sel)
}

// TestPaperGemmExample reproduces the worked matmul example of Sec. IV-A:
// on the GA100 with a 50% L1/shared split, FP64, and warp-alignment factor
// 16 (= 0.5 x 32), the objective Ti*Tj + 2*16*Tj under
//
//	Bsize*3*2 <= 64K,  Ti*Tj + Tk*Tj <= M_L1,  Ti*Tk <= M_SH
//
// has the solution Ti=16, Tj=384, Tk=16 — exactly what the paper reports.
func TestPaperGemmExample(t *testing.T) {
	sel, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"i": 16, "j": 384, "k": 16}
	for name, w := range want {
		if sel.Tiles[name] != w {
			t.Errorf("T_%s = %d, want %d (paper Sec. IV-A)", name, sel.Tiles[name], w)
		}
	}
	if sel.Objective != 16*384+2*16*384 {
		t.Errorf("objective = %d, want %d", sel.Objective, 16*384+2*16*384)
	}
}

func TestGemmModelStructure(t *testing.T) {
	sel, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nests) != 1 {
		t.Fatalf("gemm nests = %d", len(sel.Nests))
	}
	nm := sel.Nests[0]
	if nm.CMALoop != "j" {
		t.Errorf("CMA loop = %q, want j", nm.CMALoop)
	}
	if nm.Refs != 3 {
		t.Errorf("distinct-line refs = %d, want 3 (Sec. IV-G)", nm.Refs)
	}
	// Table II: C, B in L1; A in shared.
	has := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	if !has(nm.L1Arrays, "C") || !has(nm.L1Arrays, "B") {
		t.Errorf("L1 arrays = %v, want C and B", nm.L1Arrays)
	}
	if !has(nm.SharedArrays, "A") {
		t.Errorf("shared arrays = %v, want A", nm.SharedArrays)
	}
	// H weights: only j carries weight in a 3D nest, scaled by WAF.
	if nm.H["j"] != 2*16 {
		t.Errorf("H_j = %d, want 32", nm.H["j"])
	}
	if nm.H["k"] != 0 || nm.H["i"] != 0 {
		t.Errorf("H_i/H_k = %d/%d, want 0/0", nm.H["i"], nm.H["k"])
	}
}

func TestFP32RelaxesCapacity(t *testing.T) {
	opts := DefaultOptions()
	opts.Precision = affine.FP32
	sel32, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sel64, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// FP32 halves the element size (doubling the capacity in iterations)
	// and halves the register factor: the CMA tile must grow.
	if sel32.Tiles["j"] <= sel64.Tiles["j"] {
		t.Errorf("FP32 T_j = %d should exceed FP64 T_j = %d",
			sel32.Tiles["j"], sel64.Tiles["j"])
	}
}

func TestWarpFractionUnsatThenSat(t *testing.T) {
	// conv-2d's 9x9 window cannot host multiple-of-16 tiles: Sec. V-D
	// reports exactly this (configurations missing because "all tile
	// sizes would need to be multiples of 16").
	k := affine.MustLookup("conv-2d")
	opts := DefaultOptions() // warp fraction 0.5 => step 16
	if _, err := selectTiles(k, arch.GA100(), opts); err == nil {
		t.Fatal("conv-2d should be UNSAT at warp fraction 0.5")
	}
	opts.WarpFraction = 0.125 // step 4
	sel, err := selectTiles(k, arch.GA100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"p", "q"} {
		if sel.Tiles[l]%4 != 0 || sel.Tiles[l] > 9 {
			t.Errorf("T_%s = %d: want multiple of 4 within the window", l, sel.Tiles[l])
		}
	}
}

func TestSplitFactorOneUsesL2Bound(t *testing.T) {
	opts := DefaultOptions()
	opts.SplitFactor = 1.0
	// All of L1+shared goes to shared memory; the cache-mapped volumes
	// are bounded by the per-SM L2 share instead (Sec. IV-H). On the
	// Xavier (512KB L2 / 8 SMs) this is a tight bound.
	sel, err := selectTiles(affine.MustLookup("gemm"), arch.Xavier(), opts)
	if err != nil {
		t.Fatal(err)
	}
	l2Elems := arch.Xavier().L2Bytes / 8 / 8 // per SM, FP64
	vol := sel.Tiles["i"]*sel.Tiles["j"] + sel.Tiles["k"]*sel.Tiles["j"]
	if vol > l2Elems {
		t.Errorf("L1-set volume %d exceeds L2 share %d", vol, l2Elems)
	}
}

func TestSecondaryShrinkMinimizesSerialTiles(t *testing.T) {
	// The serial tile T_k does not appear in the objective; the secondary
	// pass must shrink it to the domain minimum (16 at warp fraction
	// 0.5) to cut intra-thread liveness (Sec. IV-G).
	sel, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tiles["k"] != 16 {
		t.Errorf("T_k = %d, want 16 (minimal)", sel.Tiles["k"])
	}
}

func TestMultiNestSharedTiles(t *testing.T) {
	sel, err := selectTiles(affine.MustLookup("2mm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Nests) != 2 {
		t.Fatalf("2mm should contribute 2 nest models, got %d", len(sel.Nests))
	}
	// One tile per loop name, shared across nests.
	if len(sel.Tiles) != 3 {
		t.Fatalf("2mm tiles = %v, want 3 entries (i, j, k)", sel.Tiles)
	}
}

func TestSingleParallel2DPrefersSerialLoop(t *testing.T) {
	// mvt: one parallel loop (i); the objective must favor growing the
	// serial CMA loop j (Sec. IV-K third sub-case).
	sel, err := selectTiles(affine.MustLookup("mvt"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tiles["j"] <= sel.Tiles["i"] {
		t.Errorf("mvt tiles %v: T_j should dominate T_i", sel.Tiles)
	}
}

func TestAllCatalogSolvableWithFallback(t *testing.T) {
	for _, gname := range []string{"ga100", "xavier"} {
		g, _ := arch.ByName(gname)
		for _, name := range affine.Catalog() {
			prog := analysis.Analyze(affine.MustLookup(name), nil)
			sel, _, err := SelectSplit(context.Background(), prog, g, 0.5, affine.FP64)
			if err != nil {
				t.Errorf("%s on %s: unsolvable at every warp fraction: %v", name, gname, err)
				continue
			}
			if sel.SolverCalls < 2 {
				t.Errorf("%s/%s: %d solver calls, want >= 2 (iterative scheme)",
					gname, name, sel.SolverCalls)
			}
			if sel.SolveTime <= 0 {
				t.Errorf("%s/%s: no solve time recorded", gname, name)
			}
		}
	}
}

// TestSelectSplitMatchesSolverFallback pins SelectSplit's static sibling
// skip against the plain fallback that asks the solver at every warp
// fraction: on every catalog kernel, GPU and shared split, both pick the
// same fraction and the same tiles, and every skipped fraction is one
// the solver rejects.
func TestSelectSplitMatchesSolverFallback(t *testing.T) {
	ctx := context.Background()
	for _, g := range []*arch.GPU{arch.GA100(), arch.Xavier()} {
		for _, name := range affine.Catalog() {
			prog := analysis.Analyze(affine.MustLookup(name), nil)
			for _, split := range SharedSplits {
				var want *Selection
				rejected := 0
				for _, wf := range WarpFractions {
					opts := Options{SplitFactor: split, WarpFraction: wf, Precision: affine.FP64, ProblemSizeAware: true}
					if sel, err := SelectTilesAnalyzed(ctx, prog, g, opts); err == nil {
						want = sel
						break
					}
					rejected++
				}
				got, skips, err := SelectSplit(ctx, prog, g, split, affine.FP64)
				if skips > rejected {
					t.Errorf("%s/%s split %.2f: %d static skips, but the solver rejected only %d fractions",
						g.Name, name, split, skips, rejected)
				}
				if want == nil {
					if err == nil {
						t.Errorf("%s/%s split %.2f: SelectSplit found %v, the solver fallback nothing",
							g.Name, name, split, got.Tiles)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s/%s split %.2f: %v", g.Name, name, split, err)
					continue
				}
				if got.Opts != want.Opts || got.Objective != want.Objective ||
					got.SolverCalls != want.SolverCalls || !reflect.DeepEqual(got.Tiles, want.Tiles) {
					t.Errorf("%s/%s split %.2f: SelectSplit %s, solver fallback %s",
						g.Name, name, split, got, want)
				}
			}
		}
	}
}

func TestSelectionString(t *testing.T) {
	sel, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sel.String()
	for _, want := range []string{"gemm", "GA100", "T_i = 16", "T_j = 384", "solver calls"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(sel.Model(), "assert") {
		t.Error("Model dump missing assertions")
	}
}

func TestTilesAreWarpAligned(t *testing.T) {
	for _, wf := range []float64{1.0, 0.5, 0.25, 0.125} {
		opts := DefaultOptions()
		opts.WarpFraction = wf
		step := opts.WarpAlignmentFactor(arch.GA100())
		sel, err := selectTiles(affine.MustLookup("gemm"), arch.GA100(), opts)
		if err != nil {
			t.Fatalf("wf=%.3f: %v", wf, err)
		}
		for name, tile := range sel.Tiles {
			if tile%step != 0 {
				t.Errorf("wf=%.3f: T_%s = %d not a multiple of %d", wf, name, tile, step)
			}
		}
	}
}

func TestExplainGemmBindingConstraint(t *testing.T) {
	k := affine.MustLookup("gemm")
	g := arch.GA100()
	sel, err := selectTiles(k, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slacks, rendered := explain(k, g, sel)
	if len(slacks) == 0 {
		t.Fatal("no constraints explained")
	}
	// The paper's walkthrough: L1 capacity binds exactly —
	// (16+16)*384 = 12288 = M_L1.
	var l1 *ConstraintSlack
	for i := range slacks {
		if slacks[i].Resource == "L1 capacity" {
			l1 = &slacks[i]
		}
	}
	if l1 == nil {
		t.Fatalf("no L1 constraint in %+v", slacks)
	}
	if l1.Used != 12288 || l1.Limit != 12288 || l1.Slack() != 0 || !l1.Binding {
		t.Fatalf("L1 constraint = %+v, want exactly binding at 12288", *l1)
	}
	// Registers must have slack (they are not binding in the example).
	for _, s := range slacks {
		if s.Resource == "registers/SM" && s.Slack() <= 0 {
			t.Fatalf("registers unexpectedly binding: %+v", s)
		}
	}
	if !strings.Contains(rendered, "L1 capacity") || !strings.Contains(rendered, "*") {
		t.Fatalf("rendering incomplete:\n%s", rendered)
	}
}

func TestExplainCoversAllNests(t *testing.T) {
	k := affine.MustLookup("2mm")
	g := arch.GA100()
	sel, err := selectTiles(k, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slacks, _ := explain(k, g, sel)
	nests := map[string]bool{}
	for _, s := range slacks {
		nests[s.Nest] = true
		if s.Used > s.Limit {
			t.Errorf("constraint violated by the selection itself: %+v", s)
		}
	}
	if len(nests) != 2 {
		t.Fatalf("explained nests = %v, want both", nests)
	}
}

// Binding means no warp-aligned increase of any tile the constraint
// reads fits. gemm on GA100 in FP64 at split 0 selects Ti=16, Tj=672,
// Tk=16: the register file still has 1,024 registers free, but
// REG_SM = Ti*Tj*6 grows past 65,536 on a +16 step of either Ti or Tj,
// so the register row is binding.
func TestExplainBindingRaisesEveryTile(t *testing.T) {
	k := affine.MustLookup("gemm")
	g := arch.GA100()
	opts := DefaultOptions()
	opts.SplitFactor = 0
	sel, err := selectTiles(k, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tiles["i"] != 16 || sel.Tiles["j"] != 672 || sel.Tiles["k"] != 16 {
		t.Fatalf("tiles = %v, want i=16 j=672 k=16", sel.Tiles)
	}
	slacks, _ := explain(k, g, sel)
	for _, s := range slacks {
		if s.Resource != "registers/SM" {
			continue
		}
		if s.Used != 64512 || s.Limit != 65536 || !s.Binding {
			t.Fatalf("register row = %+v, want 64512/65536 and binding", s)
		}
		return
	}
	t.Fatalf("no register row in %+v", slacks)
}
