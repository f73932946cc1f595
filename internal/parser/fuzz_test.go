package parser_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/parser"
)

// FuzzParse asserts the robustness contract of the front end: Parse never
// panics, and whenever it succeeds the kernel passes validation and
// round-trips through Write.
func FuzzParse(f *testing.F) {
	f.Add(gemmSrc)
	f.Add("kernel k { param N = 8 array A[N] nest n { for i in 0..N { S: A[i] = A[i] } } }")
	f.Add("kernel k { param N = 8 array A[N][N] nest n { for i in 0..N for j in 0..N { S: A[i][j] += A[i][j] } } }")
	f.Add("kernel k {")
	f.Add("")
	f.Add("kernel 2mm { param N = 4 }")
	f.Add("kernel k { param N = 8 array A[2*N+1] nest n { for i in 0..N { S: A[2*i+1] = A[0] } } }")
	f.Add("# only a comment")
	f.Add(parser.Write(affine.MustLookup("heat-3d")))
	f.Add(strings.Repeat("kernel ", 50))
	for _, w := range []struct{ n, size int }{{2, 128}, {2, 256}, {2, 512}, {3, 128}, {3, 256}} {
		f.Add(wideSource(w.n, w.size))
	}

	f.Fuzz(func(t *testing.T, src string) {
		k, err := parser.Parse(src) // must not panic
		if err != nil {
			return
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("Parse returned an invalid kernel: %v", err)
		}
		// Successful parses must round-trip.
		back, err := parser.Parse(parser.Write(k))
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, parser.Write(k))
		}
		if back.Name != k.Name || len(back.Nests) != len(k.Nests) {
			t.Fatal("round trip changed kernel structure")
		}
	})
}

// wideSource writes the select-wide benchmark's separable DSL kernel: n
// nests C_k[i_k][j_k] = A_k[i_k][j_k] over N x N arrays, sharing no loop.
func wideSource(n, size int) string {
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
