package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place. It returns 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

// median returns the median of xs (the mean of the two middle values for
// an even count) without modifying xs.
func median(xs []float64) float64 {
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

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// histogram pools host-time samples across rounds in log-spaced buckets
// 0.1% wide, so a run's percentiles cover every operation it timed in a
// fixed footprint that does not grow with the run (the live-heap metric
// is measured while it is allocated).
type histogram struct {
	counts []uint64
	n      uint64
}

const histGrowth = 1.001

func newHistogram() *histogram {
	// 1 ns .. ~100 s.
	return &histogram{counts: make([]uint64, int(math.Log(1e11)/math.Log(histGrowth))+1)}
}

func (h *histogram) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(float64(ns)) / math.Log(histGrowth))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

// quantile returns the nearest-rank q-quantile, interpolated
// geometrically inside its bucket by the rank's position among the
// bucket's samples.
func (h *histogram) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return math.Pow(histGrowth, float64(i)+frac)
	}
	return 0
}
