package parser_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/parser"
)

const gemmSrc = `
# classic matrix multiply
kernel gemm {
  param NI = 4000, NJ = 4000, NK = 4000
  array C[NI][NJ], A[NI][NK], B[NK][NJ]
  nest matmul {
    for i in 0..NI
    for j in 0..NJ
    for k in 0..NK {
      S0: C[i][j] += A[i][k] * B[k][j]
    }
  }
}
`

func TestParseGemm(t *testing.T) {
	k, err := parser.Parse(gemmSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "gemm" || len(k.Nests) != 1 || len(k.Arrays) != 3 {
		t.Fatalf("structure: %+v", k)
	}
	if k.Params["NI"] != 4000 {
		t.Fatalf("params: %v", k.Params)
	}
	n := k.Nests[0]
	if n.Depth() != 3 {
		t.Fatalf("depth = %d", n.Depth())
	}
	st := n.Body[0]
	if !st.Reduction {
		t.Fatal("+= should mark a reduction")
	}
	// C write + C read (implicit) + A + B.
	if len(st.Refs) != 4 {
		t.Fatalf("refs = %d, want 4", len(st.Refs))
	}
	// Default flop count: the accumulate + the multiply.
	if st.FlopsPerIter != 2 {
		t.Fatalf("flops = %d, want 2", st.FlopsPerIter)
	}
}

func TestParsedGemmMatchesBuiltin(t *testing.T) {
	parsed, err := parser.Parse(gemmSrc)
	if err != nil {
		t.Fatal(err)
	}
	builtin := affine.MustLookup("gemm")
	// Same flop count and footprint as the builder-defined kernel.
	if parsed.Flops(parsed.Params) != builtin.Flops(builtin.Params) {
		t.Fatal("flops differ from builtin gemm")
	}
	if parsed.FootprintBytes(parsed.Params, affine.FP64) != builtin.FootprintBytes(builtin.Params, affine.FP64) {
		t.Fatal("footprint differs from builtin gemm")
	}
	// EATSS must produce the paper's solution from the parsed kernel too.
	sel, err := core.SelectTilesAnalyzed(context.Background(), analysis.Analyze(parsed, nil), arch.GA100(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tiles["i"] != 16 || sel.Tiles["j"] != 384 || sel.Tiles["k"] != 16 {
		t.Fatalf("EATSS on parsed gemm = %v, want (16, 384, 16)", sel.Tiles)
	}
}

func TestParseStencilWithOffsetsAndRepeat(t *testing.T) {
	src := `
kernel jac {
  param N = 1000, T = 10
  array A[N], B[N]
  repeat T nest update {
    for i in 1..N-1 {
      S0: B[i] = A[i-1] + A[i] + A[i+1] @flops(3)
    }
  }
  repeat T nest copy {
    for i in 1..N-1 {
      S1: A[i] = B[i]
    }
  }
}
`
	k, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Nests) != 2 {
		t.Fatalf("nests = %d", len(k.Nests))
	}
	if got := k.Nests[0].RepeatCount(k.Params); got != 10 {
		t.Fatalf("repeat = %d, want 10", got)
	}
	// Loop bounds 1..N-1.
	l := k.Nests[0].Loops[0]
	if l.Lower.Const != 1 || l.Upper.Eval(nil, k.Params) != 999 {
		t.Fatalf("bounds: %v..%v", l.Lower, l.Upper)
	}
	// Offsets parsed into subscripts.
	refs := k.Nests[0].Body[0].Refs
	var sawMinus bool
	for _, r := range refs {
		if !r.Write && r.Subscripts[0].Const == -1 {
			sawMinus = true
		}
	}
	if !sawMinus {
		t.Fatal("A[i-1] subscript lost")
	}
	if k.Nests[0].Body[0].FlopsPerIter != 3 {
		t.Fatal("@flops override ignored")
	}
	// Dependence analysis sees the space loop as parallel.
	info := deps.AnalyzeNest(&k.Nests[0])
	if !info.Parallel[0] {
		t.Fatal("stencil space loop should be parallel")
	}
}

func TestParseCoefficientsAndParams(t *testing.T) {
	src := `
kernel strided {
  param N = 64
  array A[2*N+1], B[N]
  nest n {
    for i in 0..N {
      S: A[2*i+1] = B[i]
    }
  }
}
`
	k, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := k.Array("A")
	if a.Dims[0].Eval(nil, k.Params) != 129 {
		t.Fatalf("dim expr = %v", a.Dims[0])
	}
	sub := k.Nests[0].Body[0].Refs[0].Subscripts[0]
	if sub.IterCoeff("i") != 2 || sub.Const != 1 {
		t.Fatalf("subscript = %v, want 2*i+1", sub)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"nest x {}", `expected "kernel"`},
		{"kernel k { param N = }", "expected number"},
		{"kernel k { array A }", "no dimensions"},
		{"kernel k { param N = 4 array A[N] nest n { for i in 0..N { } } }", "no statements"},
		{"kernel k { param N = 4 array A[N] nest n { S: A[0] = A[0] } }", "no loops"},
		{"kernel k { param N = 4 array A[N] nest n { for i in 0..M { S: A[i] = A[i] } } }", "unknown name"},
		{"kernel k { param N = 4, N = 5 }", "declared twice"},
		{"kernel k { param N = 4 array A[N] nest n { for i in 0..N for i in 0..N { S: A[i] = A[i] } } }", "reused"},
		{"kernel k { param N = 4 array A[Q] }", `unknown parameter "Q"`},
		{"kernel k { param N = 4 array A[N] repeat Z nest n { for i in 0..N { S: A[i] = A[i] } } }", "not a declared parameter"},
	}
	for _, c := range cases {
		_, err := parser.Parse(c.src)
		if err == nil {
			t.Errorf("parser.Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("parser.Parse(%q) error = %q, want substring %q", c.src, err, c.want)
		}
	}
}

// TestLexErrorOutranksParseError pins the error precedence of the
// on-demand lexer: a lex error anywhere in the source is reported, even
// when the parser failed earlier or would have succeeded, exactly as if
// the whole input had been tokenized before parsing.
func TestLexErrorOutranksParseError(t *testing.T) {
	valid := "kernel k { param N = 4 array A[N] nest n { for i in 0..N { S: A[i] = A[i] } } }"
	cases := []struct{ src, want string }{
		{valid + " $", "kernel DSL:1:81: unexpected character '$'"},
		{"kernel k { param N = }\n\n  x . y", "kernel DSL:3:5: unexpected '.'"},
		{"nest x {} $ !", "kernel DSL:1:11: unexpected character '$'"},
		{"kernel k { param N = 4 array A[Q] } ?", "kernel DSL:1:37: unexpected character '?'"},
		{"kernel k { param N = }", `kernel DSL:1:22: expected number, found "}"`},
	}
	for _, c := range cases {
		_, err := parser.Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("parser.Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	src := "kernel k {\n  param N = \n}"
	_, err := parser.Parse(src)
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*parser.Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 2 && perr.Line != 3 {
		t.Fatalf("error line = %d, want 2 or 3", perr.Line)
	}
}

// TestParseNamedStampsFile pins that ParseNamed renders errors as
// "file:line:col: message" so diagnostics point at the source file.
func TestParseNamedStampsFile(t *testing.T) {
	src := "kernel k {\n  param N = \n}"
	_, err := parser.ParseNamed(src, "bad.kdsl")
	if err == nil {
		t.Fatal("expected error")
	}
	// The offending token is the closing brace: line 2 or 3 depending on
	// where the lexer anchors it, but always file-prefixed.
	if !strings.HasPrefix(err.Error(), "bad.kdsl:") {
		t.Fatalf("error = %q, want bad.kdsl:<line>:<col>: prefix", err)
	}
	// Anonymous parses keep the generic prefix.
	_, err = parser.Parse(src)
	if err == nil || !strings.HasPrefix(err.Error(), "kernel DSL:") {
		t.Fatalf("anonymous error = %v, want kernel DSL:<line>:<col>: prefix", err)
	}
}

// TestParsedIRCarriesPositions pins that the parser threads source
// positions onto every IR node class — arrays, nests, loops, statements
// and references — so lint diagnostics can point into the DSL source.
func TestParsedIRCarriesPositions(t *testing.T) {
	k, err := parser.Parse(gemmSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range k.Arrays {
		if !a.Pos.IsValid() {
			t.Errorf("array %s has no position", a.Name)
		}
	}
	for _, n := range k.Nests {
		if !n.Pos.IsValid() {
			t.Errorf("nest %s has no position", n.Name)
		}
		for _, l := range n.Loops {
			if !l.Pos.IsValid() {
				t.Errorf("loop %s has no position", l.Name)
			}
		}
		for _, s := range n.Body {
			if !s.Pos.IsValid() {
				t.Errorf("statement %s has no position", s.Name)
			}
			for _, r := range s.Refs {
				if !r.Pos.IsValid() {
					t.Errorf("ref %s has no position", r.String())
				}
			}
		}
	}
	// Builder-constructed kernels carry the zero position by design.
	if affine.MustLookup("gemm").Nests[0].Pos.IsValid() {
		t.Error("builder kernel unexpectedly carries a source position")
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// line comment
kernel k { # hash comment
  param N = 8
  array A[N]
  nest n {
    for i in 0..N {
      S: A[i] = A[i] // trailing
    }
  }
}
`
	if _, err := parser.Parse(src); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripCatalog: every builtin kernel survives Write -> Parse with
// identical analysis-relevant structure.
func TestRoundTripCatalog(t *testing.T) {
	for _, name := range affine.Catalog() {
		orig := affine.MustLookup(name)
		src := parser.Write(orig)
		back, err := parser.Parse(src)
		if err != nil {
			t.Errorf("%s: reparse failed: %v\n%s", name, err, src)
			continue
		}
		if back.Name != orig.Name {
			t.Errorf("%s: name %q", name, back.Name)
		}
		if back.Flops(back.Params) != orig.Flops(orig.Params) {
			t.Errorf("%s: flops changed in round trip", name)
		}
		if back.FootprintBytes(back.Params, affine.FP64) != orig.FootprintBytes(orig.Params, affine.FP64) {
			t.Errorf("%s: footprint changed in round trip", name)
		}
		if back.MaxDepth() != orig.MaxDepth() {
			t.Errorf("%s: depth changed in round trip", name)
		}
		// Parallel-loop structure must survive (it drives the model).
		if len(orig.Nests) != len(back.Nests) {
			t.Errorf("%s: nest count changed", name)
			continue
		}
		for i := range orig.Nests {
			op := deps.AnalyzeNest(&orig.Nests[i]).NumParallel()
			bp := deps.AnalyzeNest(&back.Nests[i]).NumParallel()
			if op != bp {
				t.Errorf("%s nest %d: parallel loops %d -> %d", name, i, op, bp)
			}
		}
	}
}
