package eatss_test

import (
	"context"
	"fmt"

	eatss "repro"
)

// ExampleSelectTiles reproduces the paper's worked matmul example
// (Sec. IV-A): on the GA100 with a 50% shared-memory split and
// warp-alignment 16, the solver returns Ti=16, Tj=384, Tk=16.
func ExampleSelectTiles() {
	k, _ := eatss.Kernel("gemm")
	sel, _ := eatss.SelectTiles(k, eatss.GA100(), eatss.DefaultOptions())
	fmt.Printf("Ti=%d Tj=%d Tk=%d\n", sel.Tiles["i"], sel.Tiles["j"], sel.Tiles["k"])
	// Output: Ti=16 Tj=384 Tk=16
}

// ExampleParseKernel defines a custom kernel in the DSL and selects tiles
// for it — the Sec. IV-M "model generator as a library" use case.
func ExampleParseKernel() {
	src := `
kernel axpy2d {
  param N = 4096
  array Y[N][N], X[N][N]
  nest axpy {
    for i in 0..N
    for j in 0..N {
      S: Y[i][j] = Y[i][j] + X[i][j] @flops(2)
    }
  }
}`
	k, err := eatss.ParseKernel(src)
	if err != nil {
		fmt.Println(err)
		return
	}
	eatss.Schedule(k)
	fmt.Println(k.Name, k.MaxDepth())
	// Output: axpy2d 2
}

// ExampleDefaultTiles shows the PPCG baseline every experiment compares
// against.
func ExampleDefaultTiles() {
	k, _ := eatss.Kernel("gemm")
	tiles := eatss.DefaultTiles(k)
	fmt.Println(tiles["i"], tiles["j"], tiles["k"])
	// Output: 32 32 32
}

// ExampleProgram_RunCtx stages gemm once, compiles and simulates two
// configurations through the Program, and prints whether EATSS's choice
// beats the default on performance-per-Watt.
func ExampleProgram_RunCtx() {
	k, _ := eatss.Kernel("gemm")
	g := eatss.GA100()
	ctx := context.Background()
	prog, _ := eatss.Analyze(k, nil)
	sel, _ := prog.SelectTiles(g, eatss.DefaultOptions())
	cfg := eatss.RunConfig{UseShared: true, Precision: eatss.FP64}
	ours, _, _ := prog.RunCtx(ctx, g, sel.Tiles, cfg)
	def, _, _ := prog.RunCtx(ctx, g, eatss.DefaultTiles(k), cfg)
	fmt.Println(ours.PPW > def.PPW)
	// Output: true
}
