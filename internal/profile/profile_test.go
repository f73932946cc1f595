package profile_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	eatss "repro"
	"repro/internal/profile"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func runProfiled(t *testing.T, kernel string, g *eatss.GPU, tiles map[string]int64, useShared bool) (*eatss.Result, *profile.Profile) {
	t.Helper()
	k := eatss.MustKernel(kernel)
	if tiles == nil {
		tiles = eatss.DefaultTiles(k)
	}
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := prog.RunCtx(context.Background(), g, tiles, eatss.RunConfig{UseShared: useShared})
	if err != nil {
		t.Fatalf("run %s: %v", kernel, err)
	}
	p, err := eatss.ProfileOf(&res, tiles)
	if err != nil {
		t.Fatalf("profile %s: %v", kernel, err)
	}
	return &res, p
}

// TestConservationAllKernels is the attribution layer's core invariant:
// for every catalog kernel on both of the paper's architectures (and
// with staging both on and off), the profile's per-level components sum
// to the simulator's EnergyJ within 1e-9 relative error, per nest and
// in total, with per-array shares reproducing each level — attribution
// never invents or loses energy.
func TestConservationAllKernels(t *testing.T) {
	arches := []*eatss.GPU{eatss.GA100(), eatss.Xavier()}
	for _, g := range arches {
		for _, name := range eatss.Kernels() {
			for _, useShared := range []bool{false, true} {
				res, p := runProfiled(t, name, g, nil, useShared)
				if err := p.Check(1e-9); err != nil {
					t.Errorf("%s on %s (shared=%t): %v", name, g.Name, useShared, err)
				}
				if p.EnergyJ != res.EnergyJ {
					t.Errorf("%s on %s: profile EnergyJ %g != result %g", name, g.Name, p.EnergyJ, res.EnergyJ)
				}
				if p.TimeSec != res.TimeSec || p.Ramp != res.Ramp {
					t.Errorf("%s on %s: profile time/ramp drifted from result", name, g.Name)
				}
			}
		}
	}
}

// TestTrafficMatchesResult pins the per-level byte totals against the
// simulator's own aggregates.
func TestTrafficMatchesResult(t *testing.T) {
	res, p := runProfiled(t, "gemm", eatss.GA100(), nil, true)
	if p.Bytes.DRAM != res.DRAMBytes {
		t.Fatalf("profile DRAM bytes %d != result %d", p.Bytes.DRAM, res.DRAMBytes)
	}
	var arr profile.LevelBytes
	for _, np := range p.Nests {
		for _, ap := range np.Arrays {
			arr = arr.Add(ap.Bytes)
		}
	}
	if arr.DRAM != p.Bytes.DRAM {
		t.Fatalf("per-array DRAM bytes %d != nest total %d", arr.DRAM, p.Bytes.DRAM)
	}
	if arr.L2 != p.Bytes.L2 {
		t.Fatalf("per-array L2 bytes %d != nest total %d", arr.L2, p.Bytes.L2)
	}
	if arr.Shared != p.Bytes.Shared {
		t.Fatalf("per-array shared bytes %d != nest total %d", arr.Shared, p.Bytes.Shared)
	}
}

// TestGoldenGemmReport pins the rendered attribution report for gemm on
// the GA100 under PPCG default tiles. Values render at 4 significant
// digits — below cross-platform float divergence — so the report is
// deterministic.
func TestGoldenGemmReport(t *testing.T) {
	_, p := runProfiled(t, "gemm", eatss.GA100(), nil, true)
	rendered := p.Render()

	path := filepath.Join("testdata", "gemm_ga100_report.golden")
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
		t.Fatalf("%v (run `go test ./internal/profile -run Golden -update` to create it)", err)
	}
	if rendered != string(want) {
		t.Fatalf("attribution report drifted from golden.\n--- got ---\n%s--- want ---\n%s", rendered, want)
	}
}

// TestDiffBestVsDefault runs the paper's gemm protocol on the GA100 and
// diffs the chosen tiles against the PPCG 32^3 default: the report must
// name a winner and a dominant component, and the per-level deltas must
// sum to the total energy gap.
func TestDiffBestVsDefault(t *testing.T) {
	g := eatss.GA100()
	k := eatss.MustKernel("gemm")
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, err := prog.SelectBestEval(context.Background(), g, eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		t.Fatal(err)
	}
	_, pBest := runProfiled(t, "gemm", g, best.Chosen.Selection.Tiles, best.Chosen.SharedFrac > 0)
	_, pDef := runProfiled(t, "gemm", g, eatss.DefaultTiles(k), false)

	d := eatss.ProfileDiff(pDef, pBest)
	if d.Dominant == "" {
		t.Fatal("diff names no dominant component")
	}
	var deltaSum float64
	for _, ld := range d.Levels {
		deltaSum += ld.Delta
	}
	if diff := deltaSum - d.DeltaJ; diff > 1e-9*abs(d.DeltaJ)+1e-15 || -diff > 1e-9*abs(d.DeltaJ)+1e-15 {
		t.Fatalf("level deltas sum to %g, total delta is %g", deltaSum, d.DeltaJ)
	}
	rendered := d.Render()
	if !strings.Contains(rendered, "dominant") || !strings.Contains(rendered, d.Dominant) {
		t.Fatalf("diff report does not name the dominant component:\n%s", rendered)
	}
	if d.Winner != "A" && d.Winner != "B" && d.Winner != "tie" {
		t.Fatalf("bad winner %q", d.Winner)
	}
	t.Logf("gemm best-vs-default dominant component: %s (%.0f%% of movement)\n%s",
		d.Dominant, 100*d.DominantShare, rendered)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSurfaceExport sweeps a tiny gemm space and checks the exported
// surface: dims, slice geometry, CSV shape, and that every evaluated
// point lands in a slice cell.
func TestSurfaceExport(t *testing.T) {
	g := eatss.GA100()
	k := eatss.MustKernel("gemm")
	space := eatss.Space(k, []int64{16, 32})
	pts, stats := eatss.ExploreSpaceOpt(context.Background(), k, g, space,
		eatss.RunConfig{UseShared: true}, eatss.SweepOptions{})
	if stats.Evaluated == 0 {
		t.Fatal("no points evaluated")
	}
	s := eatss.NewSweepSurface(k.Name, g.Name, pts)
	if len(s.Dims) != 3 {
		t.Fatalf("gemm surface dims = %v, want 3", s.Dims)
	}
	if want := 3; len(s.Slices) != want { // C(3,2) pairs
		t.Fatalf("len(slices) = %d, want %d", len(s.Slices), want)
	}
	for _, sl := range s.Slices {
		filled := 0
		for _, row := range sl.EnergyJ {
			for _, v := range row {
				if v > 0 {
					filled++
				}
			}
		}
		if filled == 0 {
			t.Fatalf("slice %s x %s has no filled cells", sl.X, sl.Y)
		}
	}

	var csvBuf, jsonBuf strings.Builder
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != len(pts)+1 {
		t.Fatalf("CSV has %d lines, want %d points + header", len(lines), len(pts))
	}
	if lines[0] != "i,j,k,time_sec,energy_j,gflops,ppw" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), "\"slices\"") {
		t.Fatal("JSON surface lacks slices")
	}
}

// TestPublishLatest exercises the lock-free publication handoff the
// /profile endpoint reads.
func TestPublishLatest(t *testing.T) {
	_, p := runProfiled(t, "gemm", eatss.GA100(), nil, false)
	profile.Publish(p)
	if got := profile.Latest(); got != p {
		t.Fatal("Latest did not return the published profile")
	}
	s := eatss.NewSweepSurface("gemm", "GA100", nil)
	profile.PublishSurface(s)
	if got := profile.LatestSurface(); got != s {
		t.Fatal("LatestSurface did not return the published surface")
	}
}
