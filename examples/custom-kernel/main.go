// custom-kernel demonstrates the full library surface on a kernel that is
// NOT in the built-in catalog:
//
//  1. define the kernel in the affine DSL (here written with a
//     deliberately GPU-hostile loop order),
//  2. normalize the loop order with the scheduler,
//  3. run EATSS to select energy-aware tiles,
//  4. compare against the PPCG default,
//  5. stack the beyond-paper extensions (register micro-tiles) on top.
//
// Run with:
//
//	go run ./examples/custom-kernel
package main

import (
	"context"
	"fmt"
	"log"

	eatss "repro"
)

// A blocked Gram-matrix kernel (G = X^T X), written reduction-outermost —
// the order a naive port might use.
const src = `
kernel gram {
  param N = 2048, D = 512
  array X[D][N], G[N][N]
  nest gram {
    for d in 0..D
    for i in 0..N
    for j in 0..N {
      S0: G[i][j] += X[d][i] * X[d][j]
    }
  }
}
`

func main() {
	k, err := eatss.ParseKernel(src)
	if err != nil {
		log.Fatal(err)
	}
	g := eatss.GA100()

	// 2. Normalize the loop order (the scheduler moves the parallel i/j
	//    band outward and the d reduction inward, when legal).
	for _, plan := range eatss.Schedule(k) {
		fmt.Printf("schedule %s: order %v (changed=%v)\n", plan.Nest, plan.Order, plan.Changed)
	}

	// 3. EATSS tile selection with the paper's full protocol, on the
	//    staged (analyzed once) scheduled kernel.
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	best, err := prog.SelectBestEval(ctx, g, eatss.FP64, eatss.EvalSimulate)
	if err != nil {
		log.Fatal(err)
	}
	sel := best.Chosen
	fmt.Printf("\nEATSS: split=%.2f tiles=%v (%d solver calls)\n",
		sel.SharedFrac, sel.Selection.Tiles, best.SolverCalls)

	// 4. Compare against the PPCG default.
	def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-22s %10s %9s %8s\n", "configuration", "GFLOP/s", "power(W)", "PPW")
	fmt.Printf("%-22s %10.1f %9.1f %8.2f\n", "default PPCG (32^d)", def.GFLOPS, def.AvgPowerW, def.PPW)
	fmt.Printf("%-22s %10.1f %9.1f %8.2f\n", "EATSS", sel.Result.GFLOPS, sel.Result.AvgPowerW, sel.Result.PPW)

	// 5. Stack register micro-tiles on the EATSS configuration.
	for _, r := range []int64{2, 4} {
		res, _, err := prog.RunCtx(ctx, g, sel.Selection.Tiles, eatss.RunConfig{
			UseShared: sel.SharedFrac > 0, Precision: eatss.FP64, RegTile: r,
		})
		if err != nil {
			continue
		}
		fmt.Printf("%-22s %10.1f %9.1f %8.2f\n",
			fmt.Sprintf("EATSS + regtile r=%d", r), res.GFLOPS, res.AvgPowerW, res.PPW)
	}

	fmt.Printf("\nEATSS vs default: %.2fx PPW; see the regtile rows for the headroom vendor-style\n", sel.Result.PPW/def.PPW)
	fmt.Println("micro-tiling adds on top of energy-aware tile selection.")
}
