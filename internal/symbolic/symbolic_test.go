package symbolic_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/gpusim"
	"repro/internal/parser"
	"repro/internal/ppcg"
	"repro/internal/symbolic"
)

func TestParseEvaluator(t *testing.T) {
	cases := []struct {
		in   string
		want symbolic.Evaluator
		ok   bool
	}{
		{"", symbolic.EvalSimulate, true},
		{"simulate", symbolic.EvalSimulate, true},
		{"Symbolic", symbolic.EvalSymbolic, true},
		{" auto ", symbolic.EvalSymbolic, true},
		{"z3", 0, false},
	}
	for _, c := range cases {
		got, err := symbolic.ParseEvaluator(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseEvaluator(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, e := range []symbolic.Evaluator{symbolic.EvalSimulate, symbolic.EvalSymbolic} {
		back, err := symbolic.ParseEvaluator(e.String())
		if err != nil || back != e {
			t.Errorf("round trip %v -> %q -> %v, %v", e, e.String(), back, err)
		}
	}
}

// relDiff is the relative difference of two floats (0 when both zero).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) / den
}

// checkSame asserts a symbolic Result reproduces the simulated one:
// integer totals exactly, floating-point totals to round-off.
func checkSame(t *testing.T, label string, sim, sym gpusim.Result) {
	t.Helper()
	const tol = 1e-9
	if sim.Flops != sym.Flops || sim.L2Sectors != sym.L2Sectors || sim.DRAMBytes != sym.DRAMBytes {
		t.Fatalf("%s: integer totals differ: sim{flops %d l2 %d dram %d} sym{flops %d l2 %d dram %d}",
			label, sim.Flops, sim.L2Sectors, sim.DRAMBytes, sym.Flops, sym.L2Sectors, sym.DRAMBytes)
	}
	if relDiff(sim.TimeSec, sym.TimeSec) > tol || relDiff(sim.EnergyJ, sym.EnergyJ) > tol ||
		relDiff(sim.AvgPowerW, sym.AvgPowerW) > tol || relDiff(sim.PPW, sym.PPW) > tol {
		t.Fatalf("%s: float totals differ: sim{t %.17g e %.17g} sym{t %.17g e %.17g}",
			label, sim.TimeSec, sim.EnergyJ, sym.TimeSec, sym.EnergyJ)
	}
	if len(sim.Nests) != len(sym.Nests) {
		t.Fatalf("%s: nest count %d vs %d", label, len(sim.Nests), len(sym.Nests))
	}
	for i := range sim.Nests {
		a, b := &sim.Nests[i], &sym.Nests[i]
		if a.Traffic.DRAMBytes != b.Traffic.DRAMBytes || a.Traffic.L2ReadBytes != b.Traffic.L2ReadBytes ||
			a.Traffic.SharedBytes != b.Traffic.SharedBytes || a.Traffic.L1Bytes != b.Traffic.L1Bytes ||
			a.Traffic.StagingBytes != b.Traffic.StagingBytes ||
			a.Traffic.LiveBytesPerThread != b.Traffic.LiveBytesPerThread {
			t.Fatalf("%s nest %s: traffic differs:\nsim %+v\nsym %+v", label, a.Name, a.Traffic, b.Traffic)
		}
		if a.Occ != b.Occ {
			t.Fatalf("%s nest %s: occupancy differs:\nsim %+v\nsym %+v", label, a.Name, a.Occ, b.Occ)
		}
		if relDiff(a.ClockMHz, b.ClockMHz) > tol || relDiff(a.EnergyJ, b.EnergyJ) > tol {
			t.Fatalf("%s nest %s: clock/energy differ: %.17g/%.17g vs %.17g/%.17g",
				label, a.Name, a.ClockMHz, a.EnergyJ, b.ClockMHz, b.EnergyJ)
		}
		if len(a.Traffic.Arrays) != len(b.Traffic.Arrays) {
			t.Fatalf("%s nest %s: array attribution length differs", label, a.Name)
		}
		for j := range a.Traffic.Arrays {
			if a.Traffic.Arrays[j] != b.Traffic.Arrays[j] {
				t.Fatalf("%s nest %s: array %s attribution differs:\nsim %+v\nsym %+v",
					label, a.Name, a.Traffic.Arrays[j].Array, a.Traffic.Arrays[j], b.Traffic.Arrays[j])
			}
		}
	}
}

// TestPlanParity drives both backends over a tile grid for a slice of
// the catalog on both testbeds, with shared staging on and off, and
// demands identical results — occupancy, traffic, per-array
// attribution, timing, and energy.
func TestPlanParity(t *testing.T) {
	kernels := []string{"gemm", "syrk", "mvt", "jacobi-2d", "doitgen", "mttkrp", "conv-2d"}
	gpus := []*arch.GPU{arch.GA100(), arch.Xavier()}
	tileVals := []int64{1, 7, 32, 200}

	for _, name := range kernels {
		k, err := affine.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		prog := analysis.Analyze(k, nil)
		loops := map[string]bool{}
		for _, na := range prog.Nests {
			for _, l := range na.Nest.Loops {
				loops[l.Name] = true
			}
		}
		var names []string
		for l := range loops {
			names = append(names, l)
		}

		for _, g := range gpus {
			for _, shared := range []bool{false, true} {
				opts := codegen.Options{UseShared: shared, Precision: affine.FP32}
				plan, err := symbolic.Derive(prog, g, symbolic.Config{
					UseShared: shared, Precision: affine.FP32,
				}, nil)
				if err != nil {
					t.Fatalf("%s/%s shared=%t: derive: %v", name, g.Name, shared, err)
				}

				// Sweep a diagonal + a few mixed points over the loop set.
				points := make([]map[string]int64, 0, len(tileVals)+2)
				for _, v := range tileVals {
					pt := map[string]int64{}
					for _, l := range names {
						pt[l] = v
					}
					points = append(points, pt)
				}
				mixed := map[string]int64{}
				for i, l := range names {
					mixed[l] = tileVals[i%len(tileVals)]
				}
				points = append(points, mixed, map[string]int64{})

				for _, tiles := range points {
					mk, errSim := ppcg.CompileAnalyzed(context.Background(), prog, nil, tiles, g, opts)
					symRes, errSym := plan.Eval(tiles)
					if (errSim == nil) != (errSym == nil) {
						t.Fatalf("%s/%s shared=%t tiles=%v: error mismatch: sim=%v sym=%v",
							name, g.Name, shared, tiles, errSim, errSym)
					}
					if errSim != nil {
						if errSim.Error() != errSym.Error() {
							t.Fatalf("%s/%s tiles=%v: error text differs:\nsim %v\nsym %v",
								name, g.Name, tiles, errSim, errSym)
						}
						continue
					}
					simRes := gpusim.Simulate(mk, g)
					label := name + "/" + g.Name
					checkSame(t, label, simRes, symRes)
				}
			}
		}
	}
}

// TestErrorParity pins that mapping-infeasibility errors reproduce the
// compile path's error text exactly (wrapped sentinel included).
func TestErrorParity(t *testing.T) {
	k := affine.MustLookup("gemm")
	prog := analysis.Analyze(k, nil)
	g := arch.GA100()
	plan, err := symbolic.Derive(prog, g, symbolic.Config{Precision: affine.FP32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]int64{"i": -3, "j": 8, "k": 8}
	_, errSim := ppcg.CompileAnalyzed(context.Background(), prog, nil, bad, g,
		codegen.Options{Precision: affine.FP32})
	_, errSym := plan.Eval(bad)
	if errSim == nil || errSym == nil {
		t.Fatalf("want errors, got sim=%v sym=%v", errSim, errSym)
	}
	if errSim.Error() != errSym.Error() {
		t.Fatalf("error text differs:\nsim %v\nsym %v", errSim, errSym)
	}
	if !strings.Contains(errSym.Error(), "negative tile size") {
		t.Fatalf("unexpected error: %v", errSym)
	}
}

// TestDeriveResidual pins that a program outside the exact domain (a
// nest with no parallel loop) fails to derive, which the evaluator seam
// reports as residual fallback.
func TestDeriveResidual(t *testing.T) {
	src := `
kernel seqscan {
  param N = 1024
  array A[N]
  nest scan {
    for i in 1..N {
      S0: A[i] = A[i-1] + A[i]
    }
  }
}
`
	k, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := analysis.Analyze(k, nil)
	if _, err := symbolic.Derive(prog, arch.GA100(), symbolic.Config{Precision: affine.FP32}, nil); err == nil {
		t.Fatal("Derive succeeded on a nest with no parallel loop")
	}
}

// TestEvalConcurrent exercises the scratch pool under parallelism.
func TestEvalConcurrent(t *testing.T) {
	prog := analysis.Analyze(affine.MustLookup("gemm"), nil)
	g := arch.GA100()
	plan, err := symbolic.Derive(prog, g, symbolic.Config{UseShared: true, Precision: affine.FP32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Eval(map[string]int64{"i": 16, "j": 384, "k": 16})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for rep := 0; rep < 50; rep++ {
				got, err := plan.Eval(map[string]int64{"i": 16, "j": 384, "k": 16})
				if err != nil {
					done <- err
					return
				}
				if got.EnergyJ != want.EnergyJ || got.TimeSec != want.TimeSec {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent Eval returned different result" }
