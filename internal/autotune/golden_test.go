package autotune

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/affine"
	"repro/internal/arch"
	"repro/internal/ppcg"
	"repro/internal/symbolic"
)

// writeOutcome renders every decision of a tuning run: the ordered
// history (tiles and objective, bit-exact), the best observation and the
// modeled tuning time.
func writeOutcome(b *bytes.Buffer, label string, out Outcome) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(b, "== %s\n", label)
	for i, o := range out.History {
		fmt.Fprintf(b, "%d %s obj=%s\n", i, key(o.Tiles), f(o.Objective))
	}
	fmt.Fprintf(b, "best %s obj=%s time=%s energy=%s ppw=%s\n", key(out.Best.Tiles),
		f(out.Best.Objective), f(out.Best.Result.TimeSec), f(out.Best.Result.EnergyJ), f(out.Best.Result.PPW))
	fmt.Fprintf(b, "tuning_time_sec=%s\n", f(out.TuningTimeSec))
}

// TestTuneOutcomesGolden pins Tune's and HybridTune's decision sequences
// on gemm and 2mm under both evaluation backends with DefaultConfig: any
// change to how the tuners stage, seed or evaluate that moves a single
// decision shows up as a diff. Rerun with UPDATE_GOLDEN=1 after verifying
// an intended change.
func TestTuneOutcomesGolden(t *testing.T) {
	g := arch.GA100()
	spaces := []struct {
		kernel string
		sizes  []int64
	}{
		{"gemm", []int64{8, 16, 32, 64, 128, 256}},
		{"2mm", []int64{8, 16, 32, 64}},
	}
	var buf bytes.Buffer
	for _, sp := range spaces {
		k := affine.MustLookup(sp.kernel)
		space := ppcg.Space(k, sp.sizes)
		for _, eval := range []symbolic.Evaluator{symbolic.EvalSimulate, symbolic.EvalSymbolic} {
			cfg := DefaultConfig()
			cfg.Evaluator = eval
			writeOutcome(&buf, fmt.Sprintf("Tune %s %s", sp.kernel, eval), Tune(k, g, space, cfg))
			writeOutcome(&buf, fmt.Sprintf("HybridTune %s %s", sp.kernel, eval), HybridTune(k, g, space, cfg))
		}
	}
	got := buf.Bytes()

	goldenPath := filepath.Join("testdata", "outcomes.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (rerun with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tuning outcomes drifted from golden (rerun with UPDATE_GOLDEN=1 after verifying).\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
