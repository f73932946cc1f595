package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

// TestRegistry pins the registry's ids and, for GA100, the CSV file
// names every entry exports, in registry order: the export's file set.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete registry entry %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}

	g := arch.GA100()
	var names []string
	for _, e := range Experiments {
		text, series := e.Run(g)
		if strings.TrimSpace(text) == "" {
			t.Fatalf("%s rendered no text", e.ID)
		}
		for _, s := range series {
			names = append(names, s.Name)
		}
	}
	want := []string{
		"fig1_power_vs_size.csv",
		"fig2_space_2mm.csv",
		"fig2_space_gemm.csv",
		"fig7_polybench_ga100.csv",
		"fig8_shared_splits.csv",
		"fig9_l2_power_correlation.csv",
		"fig10_nonpolybench.csv",
		"fig12_size_sensitivity.csv",
		"fig13_nonpolybench_sensitivity.csv",
		"table4_cuxx.csv",
		"fig14_ytopt.csv",
		"secvg_solver_overhead.csv",
		"ext_time_tiling.csv",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("GA100 CSV files:\n got %q\nwant %q", names, want)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select(nil)
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(nil) = %d entries, %v; want all %d", len(all), err, len(Experiments))
	}

	got, err := Select([]string{"fig7", "fig1", "fig7"})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range got {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, []string{"fig1", "fig7"}) {
		t.Fatalf("Select(fig7,fig1,fig7) = %q, want [fig1 fig7] in registry order", ids)
	}

	_, err = Select([]string{"fig7", "fig99", "", "fig99", "table5"})
	if err == nil {
		t.Fatal("Select accepted unknown ids")
	}
	if msg := err.Error(); msg != `unknown experiment "fig99", "", "table5"` {
		t.Fatalf("Select error %q does not name every unknown id once", msg)
	}
}
