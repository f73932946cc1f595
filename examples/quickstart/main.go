// Quickstart: select energy-aware tile sizes for one kernel and compare
// them against PPCG's default configuration on the simulated GA100.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	eatss "repro"
)

func main() {
	// 1. Pick a kernel from the built-in catalog (Polybench gemm, with
	//    the EXTRALARGE dataset the paper uses on the GA100).
	k, err := eatss.Kernel("gemm")
	if err != nil {
		log.Fatal(err)
	}
	g := eatss.GA100()

	// 2. Stage the kernel: Analyze computes the tile-independent
	//    dependence/reuse analysis once; every step below reuses it.
	prog, err := eatss.Analyze(k, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run the EATSS model generator + solver (Sec. IV of the paper).
	//    DefaultOptions reproduce the paper's walkthrough: 50% of the
	//    combined L1+shared pool to shared memory, warp-alignment 16,
	//    double precision.
	sel, err := prog.SelectTiles(g, eatss.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("EATSS selection (expect Ti=16, Tj=384, Tk=16 — the paper's result):")
	fmt.Print(sel.String())

	// 4. Compile (PPCG-style mapping) and simulate the configuration.
	ctx := context.Background()
	res, _, err := prog.RunCtx(ctx, g, sel.Tiles, eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Compare against the default 32^d tiling.
	def, _, err := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), eatss.RunConfig{UseShared: true, Precision: eatss.FP64})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-16s %12s %10s %10s %8s\n", "configuration", "GFLOP/s", "power (W)", "energy (J)", "PPW")
	fmt.Printf("%-16s %12.1f %10.1f %10.2f %8.2f\n", "EATSS", res.GFLOPS, res.AvgPowerW, res.EnergyJ, res.PPW)
	fmt.Printf("%-16s %12.1f %10.1f %10.2f %8.2f\n", "default PPCG", def.GFLOPS, def.AvgPowerW, def.EnergyJ, def.PPW)
	fmt.Printf("\nEATSS vs default: %.2fx performance, %.2fx performance-per-Watt, %.2fx energy\n",
		res.GFLOPS/def.GFLOPS, res.PPW/def.PPW, res.EnergyJ/def.EnergyJ)
}
