package deps

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/affine"
	"repro/internal/parser"
)

// The reuse analysis compares references and expressions structurally,
// without rendering or subtracting them. The oracles below are the
// rendering/subtracting forms it replaced; every test here checks that
// both decide the same on every nest of the catalog, the shipped DSL
// kernels, random kernels and hand-made edge cases.

// oracleParamsEqual builds the difference, as paramsEqual's contract says.
func oracleParamsEqual(a, b affine.Expr) bool { return len(a.Sub(b).Params) == 0 }

// oracleLineKey keys a reference by its array and rendered subscripts,
// with the fastest-varying constant dropped.
func oracleLineKey(r affine.Ref) string {
	key := r.Array
	for i, s := range r.Subscripts {
		e := s
		if i == len(r.Subscripts)-1 {
			e = e.AddConst(-e.Const)
		}
		key += "|" + e.String()
	}
	return key
}

func oracleDistinctLineRefs(refs []RefReuse) int64 {
	type group struct{ minC, maxC int64 }
	groups := make(map[string]*group)
	count := int64(0)
	for _, rr := range refs {
		k := oracleLineKey(rr.Ref)
		c := int64(0)
		if len(rr.Ref.Subscripts) > 0 {
			c = rr.Ref.FastestVarying().Const
		}
		g, ok := groups[k]
		if !ok {
			groups[k] = &group{minC: c, maxC: c}
			count++
			continue
		}
		lo, hi := min(g.minC, c), max(g.maxC, c)
		if hi-lo < cacheLineMergeDist {
			g.minC, g.maxC = lo, hi
		} else {
			count++
		}
	}
	return count
}

// oracleHRaw counts stride-1 iterators over UniqueArrayRefs.
func oracleHRaw(refs []RefReuse) map[string]int64 {
	h := make(map[string]int64)
	for _, rr := range UniqueArrayRefs(refs) {
		for _, it := range rr.Ref.Stride1Iters() {
			h[it]++
		}
	}
	return h
}

// oracleDistanceVector is distanceVector over sorted iterator-name
// slices.
func oracleDistanceVector(n *affine.Nest, src, dst affine.Ref) ([]Component, bool) {
	comps := make([]Component, n.Depth())
	pinned := make(map[string]int64)
	starred := make(map[string]bool)
	mark := func(lists ...[]string) {
		for _, l := range lists {
			for _, it := range l {
				starred[it] = true
			}
		}
	}
	for p := 0; p < len(src.Subscripts) && p < len(dst.Subscripts); p++ {
		es, ed := src.Subscripts[p], dst.Subscripts[p]
		sIters, dIters := es.IterNames(), ed.IterNames()
		switch {
		case len(sIters) == 1 && len(dIters) == 1 && sIters[0] == dIters[0] &&
			es.IterCoeff(sIters[0]) == ed.IterCoeff(dIters[0]):
			it := sIters[0]
			c := es.IterCoeff(it)
			diff := ed.Const - es.Const
			if !oracleParamsEqual(es, ed) {
				mark(sIters, dIters)
				continue
			}
			if diff%c != 0 {
				return nil, false
			}
			dist := diff / c
			if prev, ok := pinned[it]; ok && prev != dist {
				return nil, false
			}
			pinned[it] = dist
		case len(sIters) == 0 && len(dIters) == 0:
			if es.Const != ed.Const || !oracleParamsEqual(es, ed) {
				return nil, false
			}
		default:
			mark(sIters, dIters)
		}
	}
	for d := range comps {
		name := n.Loops[d].Name
		switch {
		case starred[name]:
			comps[d] = Component{Kind: Star}
		case src.UsesIter(name) || dst.UsesIter(name):
			if dist, ok := pinned[name]; ok {
				comps[d] = Component{Kind: Pinned, Dist: dist}
			} else {
				comps[d] = Component{Kind: Star}
			}
		default:
			comps[d] = Component{Kind: Star}
		}
	}
	return comps, true
}

// oracleNests gathers every nest the oracles run over.
func oracleNests(t *testing.T) []*affine.Nest {
	t.Helper()
	var kernels []*affine.Kernel
	for _, name := range affine.Catalog() {
		kernels = append(kernels, affine.MustLookup(name))
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "kernels", "*.kdsl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no DSL kernels found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		k, err := parser.ParseNamed(string(src), f)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, k)
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		kernels = append(kernels, affine.RandomKernel(r))
	}
	var nests []*affine.Nest
	for _, k := range kernels {
		for i := range k.Nests {
			nests = append(nests, &k.Nests[i])
		}
	}
	return append(nests, edgeNest())
}

// edgeNest holds references the generators do not produce: offsets
// spread past a cache line and back, scalar references, parametric and
// multi-iterator subscripts, strided and negative coefficients, and
// explicit zero coefficients.
func edgeNest() *affine.Nest {
	i, j, N := affine.NewIter("i"), affine.NewIter("j"), affine.NewParam("N")
	zeroI := affine.Expr{Iters: map[string]int64{"j": 1, "i": 0}}
	zeroP := affine.Expr{Iters: map[string]int64{"i": 1}, Params: map[string]int64{"M": 0}}
	ref := func(a string, w bool, subs ...affine.Expr) affine.Ref {
		return affine.Ref{Array: a, Subscripts: subs, Write: w}
	}
	return &affine.Nest{
		Name:  "edge",
		Loops: []affine.Loop{{Name: "i", Upper: N}, {Name: "j", Upper: N}},
		Body: []affine.Statement{
			{Name: "S0", Refs: []affine.Ref{
				ref("A", true, i, j),
				ref("A", false, i, j.AddConst(7)),
				ref("A", false, i, j.AddConst(-3)),
				ref("A", false, i, j.AddConst(12)),
				ref("A", false, i.AddConst(1), j),
				ref("A", false, zeroP, zeroI),
				ref("A", false, i, j.Scale(-1)),
				ref("A", false, i, j.Scale(2)),
				ref("A", false, i.Add(j), j),
				ref("A", false, N.AddConst(-1), j),
				ref("A", false, i.Add(N), j.Add(N)),
			}},
			{Name: "S1", Reduction: true, Refs: []affine.Ref{
				ref("s", true),
				ref("s", false),
				ref("B", false, j, i),
				ref("B", true, j, i),
				ref("B", false, affine.NewConst(3), i),
				ref("B", false, affine.NewConst(4), i),
			}},
		},
	}
}

func TestDistinctLineRefsMatchesRenderedKeys(t *testing.T) {
	for _, n := range oracleNests(t) {
		nr := AnalyzeReuse(n)
		if want := oracleDistinctLineRefs(nr.Refs); nr.DistinctLineRefs != want {
			t.Fatalf("nest %s: DistinctLineRefs = %d, rendered keys give %d", n.Name, nr.DistinctLineRefs, want)
		}
		if want := oracleHRaw(nr.Refs); !reflect.DeepEqual(nr.HRaw, want) {
			t.Fatalf("nest %s: HRaw = %v, UniqueArrayRefs gives %v", n.Name, nr.HRaw, want)
		}
		for _, rr := range nr.Refs {
			wantL1 := nr.CMALoop != "" && rr.Ref.HasStride1(nr.CMALoop) || rr.Ref.Write
			if (rr.Class == MemL1) != wantL1 {
				t.Fatalf("nest %s: %s classified %v", n.Name, rr.Ref, rr.Class)
			}
		}
	}
}

func TestDistanceVectorMatchesOracle(t *testing.T) {
	for _, n := range oracleNests(t) {
		refs := n.Refs()
		for _, a := range refs {
			for _, b := range refs {
				gc, gok := distanceVector(n, a, b)
				wc, wok := oracleDistanceVector(n, a, b)
				if gok != wok || !reflect.DeepEqual(gc, wc) {
					t.Fatalf("nest %s: distanceVector(%s, %s) = %v %v, oracle %v %v", n.Name, a, b, gc, gok, wc, wok)
				}
			}
		}
	}
}

func TestParamsEqualMatchesSub(t *testing.T) {
	exprs := []affine.Expr{
		{},
		affine.NewParam("N"),
		affine.NewParam("N").AddConst(3),
		affine.NewParam("N").Scale(2),
		affine.NewParam("M"),
		affine.NewParam("N").Add(affine.NewParam("M")),
		affine.NewIter("i").Add(affine.NewParam("N")),
		{Params: map[string]int64{"N": 0}},
		{Params: map[string]int64{"N": 1, "M": 0}},
		{Params: map[string]int64{}},
	}
	for _, a := range exprs {
		for _, b := range exprs {
			if got, want := paramsEqual(a, b), oracleParamsEqual(a, b); got != want {
				t.Errorf("paramsEqual(%v, %v) = %v, Sub gives %v", a.Params, b.Params, got, want)
			}
		}
	}
}
