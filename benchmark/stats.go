package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by the rule Python's
// statistics.quantiles uses by default (exclusive: position q·(n+1), linear
// interpolation, clamped to the ends), so the spreads this tool prints match
// the ones the acceptance check computes. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1 // zero-based
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// byClass groups values by their class.
func byClass(classes []string, vals []float64) map[string][]float64 {
	by := map[string][]float64{}
	for i, c := range classes {
		by[c] = append(by[c], vals[i])
	}
	return by
}

// classSummaries describes each class's samples.
func classSummaries(classes []string, vals []float64) map[string]summary {
	out := map[string]summary{}
	for c, v := range byClass(classes, vals) {
		out[c] = summarize(v)
	}
	return out
}

// medianOfClasses is the median across classes of each class's median. Ops
// of different classes (kernels, programs) differ several-fold in cost, so a
// plain median over all ops would sit on the boundary between two classes
// and jump with their mix; this one moves only when a class itself moves.
func medianOfClasses(classes []string, vals []float64) float64 {
	var meds []float64
	for _, v := range byClass(classes, vals) {
		meds = append(meds, median(v))
	}
	return median(meds)
}

// summary describes a sample set in the output document.
type summary struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{N: len(xs), P25: quantile(xs, 0.25), P50: median(xs), P75: quantile(xs, 0.75)}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}
