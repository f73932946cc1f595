package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesBench keeps BENCHMARK.json and this command in
// step: every workload and metric it lists is one the command runs and
// emits, and every one the command emits is listed.
func TestBenchmarkJSONMatchesBench(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, cmd/bench runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in cmd/bench", i, w.Name, workloads[i].name)
		}
		if w.Why == "" {
			t.Errorf("workload %q gives no reason", w.Name)
		}
	}

	if n := len(bj.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, cmd/bench emits %d", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		if i < len(endToEnd) && (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in cmd/bench", i, m, endToEnd[i])
		}
		if m.Bound < 0.10 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside [0.10, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, maxBound)
		}
	}

	if n := len(bj.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, cmd/bench emits %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		if i < len(perLayer) && (metricDef{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in cmd/bench", i, m, perLayer[i])
		}
	}

	if len(bj.Paths) != 1 || bj.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", bj.RunSeconds)
	}
}
