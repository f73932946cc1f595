package sched

import (
	"context"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/parser"
)

// permutedGemm is gemm written with the reduction loop outermost — the
// adversarial input order the scheduler must normalize.
const permutedGemm = `
kernel gemm_kji {
  param NI = 4000, NJ = 4000, NK = 4000
  array C[NI][NJ], A[NI][NK], B[NK][NJ]
  nest matmul {
    for k in 0..NK
    for i in 0..NI
    for j in 0..NJ {
      S0: C[i][j] += A[i][k] * B[k][j]
    }
  }
}
`

func TestScheduleNormalizesPermutedGemm(t *testing.T) {
	k, err := parser.Parse(permutedGemm)
	if err != nil {
		t.Fatal(err)
	}
	plans := ScheduleKernel(k)
	if len(plans) != 1 || !plans[0].Changed {
		t.Fatalf("plans = %+v, want a changed permutation", plans)
	}
	order := loopNames(&k.Nests[0])
	// Parallel loops out, CMA loop (j) last in the parallel band, serial
	// k innermost.
	if order[0] != "i" || order[1] != "j" || order[2] != "k" {
		t.Fatalf("order = %v, want [i j k]", order)
	}
	// After scheduling, EATSS must find the paper's solution on the
	// formerly-permuted kernel.
	sel, err := core.SelectTilesAnalyzed(context.Background(), analysis.Analyze(k, nil), arch.GA100(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tiles["i"] != 16 || sel.Tiles["j"] != 384 || sel.Tiles["k"] != 16 {
		t.Fatalf("EATSS on scheduled gemm = %v, want (16, 384, 16)", sel.Tiles)
	}
}

func TestScheduleCatalogSoundAndCanonical(t *testing.T) {
	// Scheduling the catalog must (a) keep every nest's parallelism
	// classification sound (verified with the exact oracle) and (b)
	// produce the canonical shape: no serial loop before a parallel one
	// whenever the permutation was applied. Most catalog nests are
	// already canonical; the single-parallel-loop reductions (atax's
	// second nest, bicg) legally interchange — reductions commute.
	for _, name := range affine.Catalog() {
		cp := affine.MustLookup(name).Clone()
		plans := ScheduleKernel(cp)
		for ni := range cp.Nests {
			n := &cp.Nests[ni]
			info := deps.AnalyzeNest(n)
			if plans[ni].Changed {
				// Canonical: parallel band is a prefix.
				seenSerial := false
				for d := range n.Loops {
					if !info.Parallel[d] {
						seenSerial = true
					} else if seenSerial {
						t.Errorf("%s nest %s: parallel loop after serial in %v",
							name, n.Name, plans[ni].Order)
					}
				}
			}
			// Soundness under small sizes.
			params := map[string]int64{}
			for pn, v := range cp.Params {
				if v > 12 {
					v = 12
				}
				params[pn] = v
			}
			if v, err := deps.VerifyParallelism(n, params); err != nil || len(v) > 0 {
				t.Errorf("%s nest %s: post-schedule soundness: %v %v", name, n.Name, v, err)
			}
		}
	}
}

func TestScheduleRejectsBackwardDependence(t *testing.T) {
	// S: A[i][j] = A[i-1][j+1]: distance (1, -1). Swapping i and j
	// would make the first nonzero component negative — illegal — so
	// the loops must stay put even though j is the CMA loop... here
	// both loops are serialized by the star-free dependence; build it
	// directly to control the components.
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
	orig := loopNames(n)
	plan := ScheduleNest(n)
	after := loopNames(n)
	for idx := range orig {
		if orig[idx] != after[idx] {
			// If the order changed, it must still be legal: verify with
			// the exact oracle that no parallel-classified loop carries.
			if v, err := deps.VerifyParallelism(n, nil); err != nil || len(v) > 0 {
				t.Fatalf("illegal reordering applied: plan=%+v violations=%v err=%v", plan, v, err)
			}
		}
	}
}

func TestScheduleMovesSerialCMAInward(t *testing.T) {
	// mvt-like nest written serial-first: for j (serial) / for i
	// (parallel): x[i] += A[i][j]*y[j]. Canonical order: i then j.
	src := `
kernel mv_ji {
  param N = 4000
  array A[N][N], x[N], y[N]
  nest mv {
    for j in 0..N
    for i in 0..N {
      S: x[i] += A[i][j] * y[j]
    }
  }
}
`
	k, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plans := ScheduleKernel(k)
	order := loopNames(&k.Nests[0])
	if order[0] != "i" || order[1] != "j" {
		t.Fatalf("order = %v (plan %+v), want [i j]", order, plans[0])
	}
	info := deps.AnalyzeNest(&k.Nests[0])
	if !info.Parallel[0] || info.Parallel[1] {
		t.Fatalf("after scheduling: Parallel = %v, want [true false]", info.Parallel)
	}
}
