package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestExplainGoldenGemmGA100 pins Explain's rendered constraint-slack
// report for the paper's walkthrough (gemm on the GA100 under
// DefaultOptions). The report is deterministic — constraints are sorted
// by (nest, resource) and carry no timing — so any drift means the
// analysis staging or the slack arithmetic changed.
func TestExplainGoldenGemmGA100(t *testing.T) {
	k := affine.MustLookup("gemm")
	g := arch.GA100()
	sel, err := selectTiles(k, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	slacks, rendered := explain(k, g, sel)
	if len(slacks) == 0 {
		t.Fatal("Explain returned no constraints")
	}

	path := filepath.Join("testdata", "explain_gemm_ga100.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run Golden -update` to create it)", err)
	}
	if rendered != string(want) {
		t.Fatalf("Explain report drifted from golden.\n--- got ---\n%s--- want ---\n%s", rendered, want)
	}
}
