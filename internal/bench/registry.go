package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
)

// CSV is one named data series of an experiment: the file name it is
// exported under and the writer that produces its contents.
type CSV struct {
	Name  string
	Write func(io.Writer) error
}

// Experiment is one artifact of the paper's evaluation. Run regenerates
// it on g and returns the rendered text plus its CSV series in export
// order; an artifact with no CSV series returns none.
type Experiment struct {
	ID   string
	Desc string
	Run  func(g *arch.GPU) (text string, series []CSV)
}

// result is what every figure with a single CSV series provides.
type result interface {
	Render() string
	WriteCSV(io.Writer) error
}

func single(name string, r result) (string, []CSV) {
	return r.Render(), []CSV{{name, r.WriteCSV}}
}

// Experiments is the registry of the paper's evaluation artifacts, in
// presentation order. cmd/benchtables and the root benchmarks iterate it.
var Experiments = []Experiment{
	{"fig1", "gemm power vs problem size", func(g *arch.GPU) (string, []CSV) {
		return single("fig1_power_vs_size.csv", Fig1(g, nil))
	}},
	{"fig2", "2mm/gemm exhaustive tile space (3,375 variants)", func(g *arch.GPU) (string, []CSV) {
		r2, rg := Fig2("2mm", g), Fig2("gemm", g)
		return r2.Render() + rg.Render(), []CSV{
			{"fig2_space_2mm.csv", r2.WriteCSV},
			{"fig2_space_gemm.csv", rg.WriteCSV},
		}
	}},
	{"fig3", "2mm space on both GPUs", func(*arch.GPU) (string, []CSV) {
		return Fig3().Render(), nil
	}},
	{"fig7", "Polybench evaluation (Med/Def/Best PPCG vs EATSS)", func(g *arch.GPU) (string, []CSV) {
		return single("fig7_polybench_"+strings.ToLower(g.Name)+".csv", Fig7(g, nil))
	}},
	{"fig8", "shared-memory split study", func(g *arch.GPU) (string, []CSV) {
		return single("fig8_shared_splits.csv", Fig8(g, nil, nil))
	}},
	{"fig9", "L2 sectors vs power correlation", func(g *arch.GPU) (string, []CSV) {
		return single("fig9_l2_power_correlation.csv", Fig9(g, nil))
	}},
	{"fig10", "non-Polybench kernels with warp fractions", func(g *arch.GPU) (string, []CSV) {
		return single("fig10_nonpolybench.csv", Fig10(g))
	}},
	{"fig11", "non-Polybench space histograms (Freedman-Diaconis)", func(g *arch.GPU) (string, []CSV) {
		return Fig11(g).Render(), nil
	}},
	{"fig12", "input-size sensitivity (Polybench)", func(g *arch.GPU) (string, []CSV) {
		return single("fig12_size_sensitivity.csv", Fig12(g, nil, nil))
	}},
	{"fig13", "input-size sensitivity (non-Polybench)", func(g *arch.GPU) (string, []CSV) {
		return single("fig13_nonpolybench_sensitivity.csv", Fig13(g, nil))
	}},
	{"table4", "cuBLAS / cuDNN comparison", func(*arch.GPU) (string, []CSV) {
		return single("table4_cuxx.csv", Table4())
	}},
	{"fig14", "EATSS vs ytopt autotuner", func(g *arch.GPU) (string, []CSV) {
		return single("fig14_ytopt.csv", Fig14(g, nil))
	}},
	{"secvg", "solver overhead by loop depth", func(g *arch.GPU) (string, []CSV) {
		return single("secvg_solver_overhead.csv", SecVG(g))
	}},
	{"timetile", "extension: overlapped time tiling on stencils", func(g *arch.GPU) (string, []CSV) {
		return single("ext_time_tiling.csv", TimeTilingStudy(g, nil, nil))
	}},
	{"regtile", "extension: register micro-tiles on BLAS3", func(g *arch.GPU) (string, []CSV) {
		return RegTileStudy(g, nil, nil).Render(), nil
	}},
	{"precision", "Sec. IV-I precision adaptation study", func(g *arch.GPU) (string, []CSV) {
		return PrecisionStudy(g, nil).Render(), nil
	}},
	{"ablation", "design-choice ablations", func(g *arch.GPU) (string, []CSV) {
		return AblateObjective(g, nil).Render() +
			AblateMemorySplit(g, nil).Render() +
			AblateWarpFraction(g).Render() +
			AblateFPFactor(g).Render(), nil
	}},
}

// Select returns the registry entries named by ids, in registry order;
// no ids selects every entry. An id that names no entry is an error,
// and the error lists every such id.
func Select(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return Experiments, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	var out []Experiment
	for _, e := range Experiments {
		if want[e.ID] {
			out = append(out, e)
			delete(want, e.ID)
		}
	}
	var unknown []string
	for _, id := range ids {
		if want[id] {
			unknown = append(unknown, fmt.Sprintf("%q", id))
			delete(want, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
