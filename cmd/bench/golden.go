package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"sort"
	"strings"
)

// goldenJSON is the reference answer for every pooled input, written by
// -write-golden. Inputs come from fixed, finite pools, so one file covers
// every seed.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// golden is the reference answer set. Each section maps an input's key to
// its expected outcome.
type golden struct {
	// Walkthrough is the paper's gemm/GA100 selection under the default
	// options, also checked against the values printed in the paper.
	Walkthrough selectOut `json:"walkthrough"`
	// Select holds select-catalog's chosen candidates, Wide select-wide's
	// selections.
	Select map[string]selectOut `json:"select"`
	Wide   map[string]selectOut `json:"wide"`
	// Sweep holds each (kernel, GPU, mode) sweep's counts and argmax.
	Sweep map[string]sweepOut `json:"sweep"`
	// WarpFrac is, per "kernel|gpu" (catalog names and DSL sources), the
	// coarsest warp fraction whose formulation at the default 50% split is
	// satisfiable. serve-mixed sends solve requests at it, so they are not
	// expected to fail.
	WarpFrac map[string]float64 `json:"warpfrac"`
	// Serve holds each distinct serve request's status and tiles.
	Serve map[string]serveOut `json:"serve"`
}

// selectOut is one selection's outcome: the tiles, objective and (for
// the full protocol) the chosen candidate's PPW, or the class of the
// error the pipeline is expected to return.
type selectOut struct {
	Tiles     map[string]int64 `json:"tiles,omitempty"`
	Objective int64            `json:"objective,omitempty"`
	PPW       float64          `json:"ppw,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// sweepOut is one sweep's point counts and its argmax-PPW configuration.
type sweepOut struct {
	Evaluated int              `json:"evaluated"`
	Skipped   int              `json:"skipped"`
	Pruned    int              `json:"pruned"`
	Residual  int              `json:"residual"`
	Argmax    map[string]int64 `json:"argmax"`
	PPW       float64          `json:"ppw"`
}

// serveOut is one request's HTTP status and the tiles its answer names
// (none for lint and for rejected requests).
type serveOut struct {
	Status int              `json:"status"`
	Tiles  map[string]int64 `json:"tiles,omitempty"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return &g, nil
}

// equal reports whether two selection outcomes match exactly: PPW is
// compared bit for bit, since the pipeline is deterministic.
func (a selectOut) equal(b selectOut) bool {
	return maps.Equal(a.Tiles, b.Tiles) && a.Objective == b.Objective &&
		math.Float64bits(a.PPW) == math.Float64bits(b.PPW) && a.Error == b.Error
}

func (a sweepOut) equal(b sweepOut) bool {
	return a.Evaluated == b.Evaluated && a.Skipped == b.Skipped && a.Pruned == b.Pruned &&
		a.Residual == b.Residual && maps.Equal(a.Argmax, b.Argmax) &&
		math.Float64bits(a.PPW) == math.Float64bits(b.PPW)
}

func (a serveOut) equal(b serveOut) bool {
	return a.Status == b.Status && maps.Equal(a.Tiles, b.Tiles)
}

// write stores g with one entry per line, keys sorted, so a changed
// answer shows as a one-line diff.
func (g *golden) write(path string) error {
	var b strings.Builder
	b.WriteString("{\n")
	line := func(key string, v any, last bool) error {
		jk, _ := json.Marshal(key)
		jv, err := json.Marshal(v)
		if err != nil {
			return err
		}
		sep := ","
		if last {
			sep = ""
		}
		fmt.Fprintf(&b, "%s: %s%s\n", jk, jv, sep)
		return nil
	}
	section := func(name string, m map[string]any, last bool) error {
		fmt.Fprintf(&b, "%q: {\n", name)
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if err := line(k, m[k], i == len(keys)-1); err != nil {
				return err
			}
		}
		b.WriteString("}")
		if !last {
			b.WriteString(",")
		}
		b.WriteString("\n")
		return nil
	}
	if err := line("walkthrough", g.Walkthrough, false); err != nil {
		return err
	}
	sections := []struct {
		name string
		m    map[string]any
	}{
		{"select", anyMap(g.Select)},
		{"wide", anyMap(g.Wide)},
		{"sweep", anyMap(g.Sweep)},
		{"warpfrac", anyMap(g.WarpFrac)},
		{"serve", anyMap(g.Serve)},
	}
	for i, s := range sections {
		if err := section(s.name, s.m, i == len(sections)-1); err != nil {
			return err
		}
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func anyMap[V any](m map[string]V) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
