package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it; below that a single outlier decides the figure.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted and whether the
// sample supports it: at least minBeyond samples must rank above it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// latencies collects per-op latencies of one class.
type latencies []time.Duration

// sorted returns the samples in unit, ascending.
func (l latencies) sorted(unit time.Duration) []float64 {
	out := make([]float64, len(l))
	for i, d := range l {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
