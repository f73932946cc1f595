package eatss

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// wideKernel writes a separable DSL kernel: n 2-D copy nests
// C_n[i][j] = A_n[i][j] over N x N arrays, sharing no loop, so the
// formulation is a sum over n independent tile-variable groups.
func wideKernel(n, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel wide%d_%d {\n  param N = %d\n  array", n, size, size)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " A%d[N][N], C%d[N][N]", i, i)
	}
	b.WriteString("\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  nest n%[1]d {\n    for i%[1]d in 0..N\n    for j%[1]d in 0..N {\n      S%[1]d: C%[1]d[i%[1]d][j%[1]d] = A%[1]d[i%[1]d][j%[1]d]\n    }\n  }\n", i)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestSeparableKernelsSelectFast guards the component-split solve: a
// kernel of n independent nests costs n small searches, not one search
// over the product of their spaces (which runs for more than 20 s at
// n = 4). Each selection must finish in well under 100 ms, tile every
// loop, and pass independent certification.
func TestSeparableKernelsSelectFast(t *testing.T) {
	for _, n := range []int{4, 6} {
		k, err := ParseKernel(wideKernel(n, 512))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Analyze(k, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		sel, err := p.SelectTiles(GA100(), DefaultOptions())
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("n=%d: selection took %v, want < 100ms", n, elapsed)
		}
		if len(sel.Tiles) != 2*n {
			t.Errorf("n=%d: %d tiles, want %d", n, len(sel.Tiles), 2*n)
		}
		if err := Certify(k, GA100(), sel); err != nil {
			t.Errorf("n=%d: certification: %v", n, err)
		}
	}
}
