package eatss_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	eatss "repro"
)

// TestDSLKernelFilesEndToEnd parses every shipped .kdsl example, schedules
// it, and runs the full pipeline on the GA100: the files double as user
// documentation and must stay working.
func TestDSLKernelFilesEndToEnd(t *testing.T) {
	files, err := filepath.Glob("testdata/kernels/*.kdsl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("only %d .kdsl files", len(files))
	}
	g := eatss.GA100()
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		k, err := eatss.ParseKernel(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		eatss.Schedule(k)
		prog := stage(t, k, nil)
		best, err := prog.SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r := best.Chosen.Result
		if r.GFLOPS <= 0 || r.EnergyJ <= 0 {
			t.Fatalf("%s: degenerate result %+v", path, r)
		}
		def, _, err := prog.RunCtx(context.Background(), g, eatss.DefaultTiles(k), eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
		if err != nil {
			t.Fatalf("%s: default failed: %v", path, err)
		}
		t.Logf("%s: EATSS %.0f GF (PPW %.2f) vs default %.0f GF (PPW %.2f)",
			filepath.Base(path), r.GFLOPS, r.PPW, def.GFLOPS, def.PPW)
	}
}
