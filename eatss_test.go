package eatss_test

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	eatss "repro"
)

// Integration tests of the public API: the full select -> compile ->
// simulate pipeline as a downstream user would drive it.

// stage analyzes k under params, failing the test on error.
func stage(t testing.TB, k *eatss.AffineKernel, params map[string]int64) *eatss.Program {
	t.Helper()
	prog, err := eatss.Analyze(k, params)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestEndToEndGemm(t *testing.T) {
	k, err := eatss.Kernel("gemm")
	if err != nil {
		t.Fatal(err)
	}
	g := eatss.GA100()
	ctx := context.Background()
	prog := stage(t, k, nil)
	sel, err := prog.SelectTiles(g, eatss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's worked example.
	if sel.Tiles["i"] != 16 || sel.Tiles["j"] != 384 || sel.Tiles["k"] != 16 {
		t.Fatalf("tiles = %v, want paper's (16, 384, 16)", sel.Tiles)
	}
	res, _, err := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		t.Fatal(err)
	}
	if res.PPW <= def.PPW {
		t.Fatalf("EATSS PPW %.2f should beat default %.2f (Fig. 7a)", res.PPW, def.PPW)
	}
}

func TestSelectBestProtocol(t *testing.T) {
	prog := stage(t, eatss.MustKernel("2mm"), nil)
	best, err := prog.SelectBestEval(context.Background(), eatss.GA100(), eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Candidates) == 0 || len(best.Candidates) > len(eatss.SharedSplits) {
		t.Fatalf("candidates = %d", len(best.Candidates))
	}
	for _, c := range best.Candidates {
		if best.Chosen.Result.PPW < c.Result.PPW {
			t.Fatal("chosen candidate is not the PPW maximum")
		}
	}
	if best.SolverCalls < len(best.Candidates)*2 {
		t.Fatalf("solver calls = %d, want >= 2 per candidate", best.SolverCalls)
	}
}

func TestAllKernelsEndToEndBothGPUs(t *testing.T) {
	for _, gname := range []string{"ga100", "xavier"} {
		g, err := eatss.GPUByName(gname)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range eatss.Kernels() {
			k := eatss.MustKernel(name)
			params := k.Params
			if g.Name == "Xavier" {
				if std, err := eatss.StandardParams(name); err == nil {
					params = std
				}
			}
			best, err := stage(t, k, params).SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate)
			if err != nil {
				t.Errorf("%s on %s: %v", name, gname, err)
				continue
			}
			r := best.Chosen.Result
			if r.TimeSec <= 0 || r.EnergyJ <= 0 || r.GFLOPS <= 0 {
				t.Errorf("%s on %s: degenerate result %+v", name, gname, r)
			}
			if r.AvgPowerW > g.TDPWatts*1.01 {
				t.Errorf("%s on %s: power %.1f exceeds TDP", name, gname, r.AvgPowerW)
			}
		}
	}
}

func TestExploreSpaceOrderingAndValidity(t *testing.T) {
	k := eatss.MustKernel("mvt")
	g := eatss.GA100()
	space := eatss.Space(k, []int64{16, 32, 64})
	pts, stats := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64}, eatss.SweepOptions{})
	if len(pts) != 9 {
		t.Fatalf("points = %d, want 9", len(pts))
	}
	if stats.Evaluated != 9 || stats.Skipped != 0 {
		t.Fatalf("stats = %+v, want 9 evaluated / 0 skipped", stats)
	}
	for _, p := range pts {
		if p.Result.GFLOPS <= 0 {
			t.Fatalf("invalid point %v", p.Tiles)
		}
	}
}

func TestCompileProducesCUDA(t *testing.T) {
	k := eatss.MustKernel("gemm")
	mk, err := stage(t, k, nil).CompileCtx(context.Background(), eatss.GA100(), eatss.DefaultTiles(k),
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		t.Fatal(err)
	}
	src := mk.CUDASource()
	if !strings.Contains(src, "__global__") || !strings.Contains(src, "kernel gemm") {
		t.Fatalf("CUDA source incomplete:\n%s", src)
	}
}

func TestGPUByNameErrors(t *testing.T) {
	if _, err := eatss.GPUByName("h100"); err == nil {
		t.Fatal("unknown GPU should error")
	}
}

func TestKernelNotFound(t *testing.T) {
	if _, err := eatss.Kernel("does-not-exist"); err == nil {
		t.Fatal("unknown kernel should error")
	}
}

func TestPaperSpaceIs15PerDim(t *testing.T) {
	k := eatss.MustKernel("gemm")
	if got := len(eatss.PaperSpace(k)); got != 3375 {
		t.Fatalf("paper space = %d, want 15^3", got)
	}
}

func TestKernelListsConsistent(t *testing.T) {
	all := len(eatss.Kernels())
	pb := len(eatss.PolybenchKernels())
	npb := len(eatss.NonPolybenchKernels())
	if pb+npb != all {
		t.Fatalf("polybench %d + non-polybench %d != catalog %d", pb, npb, all)
	}
}

func TestV100Pipeline(t *testing.T) {
	// Generality: the whole pipeline must run on the third (non-paper)
	// platform too.
	k := eatss.MustKernel("gemm")
	g := eatss.V100()
	ctx := context.Background()
	prog := stage(t, k, nil)
	best, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		t.Fatal(err)
	}
	if best.Chosen.Result.PPW <= def.PPW {
		t.Fatalf("V100: EATSS PPW %.2f should beat default %.2f",
			best.Chosen.Result.PPW, def.PPW)
	}
}

func TestLoadGPURoundTrip(t *testing.T) {
	data, err := json.MarshalIndent(eatss.GA100(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/gpu.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := eatss.LoadGPU(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "GA100" {
		t.Fatalf("loaded %q", g.Name)
	}
}

// TestInvalidKernelRejectedOnEveryPath pins validation on the
// package-level helpers: on a kernel Analyze rejects (gemm with its
// parameters cleared, so its arrays reference undeclared sizes),
// SelectTiles returns Analyze's error and ExploreSpaceOpt evaluates
// nothing, counting every configuration as skipped.
func TestInvalidKernelRejectedOnEveryPath(t *testing.T) {
	k := eatss.MustKernel("gemm").Clone()
	k.Params = nil
	g := eatss.GA100()
	_, aerr := eatss.Analyze(k, nil)
	if aerr == nil {
		t.Fatal("Analyze accepted gemm without parameters")
	}
	if _, err := eatss.SelectTiles(k, g, eatss.DefaultOptions()); err == nil || err.Error() != aerr.Error() {
		t.Fatalf("SelectTiles error = %v, want Analyze's %v", err, aerr)
	}
	space := eatss.Space(k, []int64{16, 32})
	pts, stats := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: true, Precision: eatss.FP64}, eatss.SweepOptions{})
	if len(pts) != 0 {
		t.Fatalf("ExploreSpaceOpt returned %d points for an invalid kernel", len(pts))
	}
	if want := (eatss.ExploreStats{Skipped: len(space)}); stats != want {
		t.Fatalf("ExploreSpaceOpt stats = %+v, want %+v", stats, want)
	}
}
