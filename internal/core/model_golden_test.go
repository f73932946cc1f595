package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/parser"
)

// TestModelTextGolden pins the generated formulation as Selection.Model
// renders it: the declarations, the constraints as the flat polynomials
// the solver decides, and the objective, for the paper's walkthrough
// (gemm on the GA100 under DefaultOptions) and a separable DSL kernel of
// two independent nests, whose objective spans both components.
func TestModelTextGolden(t *testing.T) {
	sep, err := parser.Parse(separableSource(128, "copy", "mm"))
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, k := range []*affine.Kernel{affine.MustLookup("gemm"), sep} {
		sel, err := selectTiles(k, arch.GA100(), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		got += "; " + k.Name + "\n" + sel.Model()
	}

	path := filepath.Join("testdata", "model_text.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/core -run ModelText -update` to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("formulation text drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
