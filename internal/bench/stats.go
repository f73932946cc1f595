// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Sec. V). Each figXX.go / table.go file
// implements one experiment: it builds the workload, sweeps the parameter
// space, runs the pipeline, and renders the same rows/series the paper
// reports. This file provides the statistics the paper uses: medians,
// Pearson correlation (Fig. 9), and Freedman–Diaconis histogram binning
// (Fig. 11).
package bench

import (
	"math"
	"sort"
)

// Median returns the median of xs (the paper's Med-PPCG reference points).
// It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired
// samples (Fig. 9 reports r = 0.85 for 2mm and 0.75 for gemm). It returns
// 0 when either variance vanishes or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// IQR returns the interquartile range of xs.
func IQR(xs []float64) float64 {
	if len(xs) < 4 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return q(0.75) - q(0.25)
}

// FreedmanDiaconisBins returns the histogram bin count for xs using the
// Freedman–Diaconis rule (bin width 2*IQR/n^(1/3)), the estimator the
// paper uses for Fig. 11's 2-D histograms. Falls back to Sturges' rule
// when the IQR degenerates; always returns at least 1.
func FreedmanDiaconisBins(xs []float64) int {
	n := len(xs)
	if n < 2 {
		return 1
	}
	iqr := IQR(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	span := hi - lo
	if span <= 0 {
		return 1
	}
	width := 2 * iqr / math.Cbrt(float64(n))
	if width <= 0 {
		return int(math.Ceil(math.Log2(float64(n)))) + 1
	}
	bins := int(math.Ceil(span / width))
	if bins < 1 {
		bins = 1
	}
	return bins
}

// Histogram2D bins paired samples into a FD-sized grid and returns the
// counts as rows (y) by columns (x), with the axis ranges.
type Histogram2D struct {
	Counts     [][]int
	XMin, XMax float64
	YMin, YMax float64
}

// NewHistogram2D builds the Fig. 11-style 2-D histogram.
func NewHistogram2D(xs, ys []float64) *Histogram2D {
	nx := FreedmanDiaconisBins(xs)
	ny := FreedmanDiaconisBins(ys)
	h := &Histogram2D{Counts: make([][]int, ny)}
	for i := range h.Counts {
		h.Counts[i] = make([]int, nx)
	}
	if len(xs) == 0 {
		return h
	}
	h.XMin, h.XMax = minMax(xs)
	h.YMin, h.YMax = minMax(ys)
	for i := range xs {
		xi := binIndex(xs[i], h.XMin, h.XMax, nx)
		yi := binIndex(ys[i], h.YMin, h.YMax, ny)
		h.Counts[yi][xi]++
	}
	return h
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func binIndex(v, lo, hi float64, n int) int {
	if hi <= lo {
		return 0
	}
	i := int(float64(n) * (v - lo) / (hi - lo))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}
