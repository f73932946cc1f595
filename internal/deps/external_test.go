package deps_test

// Soundness of the fast parallelism classification on inputs built
// outside this package — random kernels and scheduled nests — checked
// against the exact oracle (exact_oracle_test.go), which exists only in
// this package's tests.

import (
	"math/rand"
	"testing"

	"repro/internal/affine"
	"repro/internal/deps"
	"repro/internal/sched"
)

// Randomly generated (but valid) kernels, the pipeline fuzz test's
// seeds, on a shrunken instance.
func TestRandomKernelsParallelismSound(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		k := affine.RandomKernel(rand.New(rand.NewSource(seed)))
		small := map[string]int64{}
		for p := range k.Params {
			small[p] = 8
		}
		for ni := range k.Nests {
			if v, err := deps.VerifyParallelism(&k.Nests[ni], small); err != nil {
				t.Fatalf("seed %d nest %d: oracle error: %v", seed, ni, err)
			} else if len(v) > 0 {
				t.Fatalf("seed %d nest %d: unsound parallelism: %v", seed, ni, v)
			}
		}
	}
}

// Scheduling the catalog must keep every nest's parallelism
// classification sound under small sizes.
func TestScheduledCatalogParallelismSound(t *testing.T) {
	for _, name := range affine.Catalog() {
		cp := affine.MustLookup(name).Clone()
		sched.ScheduleKernel(cp)
		params := map[string]int64{}
		for pn, v := range cp.Params {
			if v > 12 {
				v = 12
			}
			params[pn] = v
		}
		for ni := range cp.Nests {
			n := &cp.Nests[ni]
			if v, err := deps.VerifyParallelism(n, params); err != nil || len(v) > 0 {
				t.Errorf("%s nest %s: post-schedule soundness: %v %v", name, n.Name, v, err)
			}
		}
	}
}

// A distance-(1, -1) dependence forbids interchanging the loops; a
// scheduled nest must keep no parallel-classified loop that carries it.
func TestScheduledBackwardDependenceSound(t *testing.T) {
	i, j := affine.NewIter("i"), affine.NewIter("j")
	n := &affine.Nest{
		Name: "skew",
		Loops: []affine.Loop{
			{Name: "i", Upper: affine.NewConst(64)},
			{Name: "j", Lower: affine.NewConst(1), Upper: affine.NewConst(63)},
		},
		Body: []affine.Statement{{
			Name: "S",
			Refs: []affine.Ref{
				{Array: "A", Subscripts: []affine.Expr{i, j}, Write: true},
				{Array: "A", Subscripts: []affine.Expr{i.AddConst(-1), j.AddConst(1)}},
			},
		}},
	}
	plan := sched.ScheduleNest(n)
	if v, err := deps.VerifyParallelism(n, nil); err != nil || len(v) > 0 {
		t.Fatalf("illegal reordering applied: plan=%+v violations=%v err=%v", plan, v, err)
	}
}
