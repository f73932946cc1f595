package bench

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median sorted its input in place")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %g, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %g, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Fatal("zero-variance input should give r=0")
	}
	if Pearson([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("mismatched lengths should give r=0")
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	type pair struct{ Xs, Ys []float64 }
	gen := func(r *rand.Rand) pair {
		n := 3 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			ys[i] = r.NormFloat64()*5 + 0.3*xs[i]
		}
		return pair{xs, ys}
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := gen(r)
		a := Pearson(p.Xs, p.Ys)
		b := Pearson(p.Ys, p.Xs)
		if math.Abs(a-b) > 1e-9 {
			return false
		}
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median lies within [min, max] and at least half the
// samples are <= it.
func TestMedianProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		le := 0
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			if x <= m {
				le++
			}
		}
		return m >= lo && m <= hi && 2*le >= len(xs)
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(vals []reflect.Value, r *rand.Rand) {
		n := r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		vals[0] = reflect.ValueOf(xs)
	}}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFreedmanDiaconisBins(t *testing.T) {
	// Uniform data over [0,1): FD width = 2*0.5/n^(1/3).
	n := 1000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n)
	}
	bins := FreedmanDiaconisBins(xs)
	if bins < 5 || bins > 20 {
		t.Fatalf("FD bins = %d for uniform(0,1) n=1000, want ~10", bins)
	}
	if FreedmanDiaconisBins([]float64{1}) != 1 {
		t.Fatal("single sample should give 1 bin")
	}
	if FreedmanDiaconisBins([]float64{2, 2, 2, 2}) != 1 {
		t.Fatal("constant data should give 1 bin")
	}
}

func TestHistogram2D(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ys := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram2D(xs, ys)
	total := 0
	for _, row := range h.Counts {
		for _, c := range row {
			total += c
		}
	}
	if total != len(xs) {
		t.Fatalf("histogram holds %d samples, want %d", total, len(xs))
	}
	if h.XMin != 0 || h.XMax != 9 {
		t.Fatalf("x range [%g, %g]", h.XMin, h.XMax)
	}
}

func TestIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := IQR(xs)
	if got < 3 || got > 4 {
		t.Fatalf("IQR = %g, want ~3.5", got)
	}
	if IQR([]float64{1, 2}) != 0 {
		t.Fatal("tiny samples should give IQR 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "a", "b")
	tab.AddRow("x", 1.5)
	tab.AddRow("yy", 12345.678)
	s := tab.String()
	for _, want := range []string{"demo", "a", "yy", "12346", "1.50"} {
		if !contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCSVWriters(t *testing.T) {
	g := arch.GA100()
	var buf strings.Builder

	f1 := Fig1(g, []int64{1000, 2000})
	if err := f1.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "n,const_static_w") {
		t.Fatalf("fig1 csv header wrong:\n%s", buf.String())
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n")
	if lines != 2 {
		t.Fatalf("fig1 csv rows = %d, want 2", lines)
	}

	buf.Reset()
	f9 := Fig9(g, []string{"mvt"})
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mvt,") {
		t.Fatalf("fig9 csv missing data:\n%s", buf.String())
	}
}
