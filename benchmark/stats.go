package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample; an empty sample yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p/100 * n), computed so that 99.9% of 10,000 is 9,990
// and not, by a rounding error in the last bit, 9,991.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// median returns the median of xs (mean of the middle two for an even
// count) without reordering the caller's slice; empty yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// supportedLadder is the percentiles a report may quote, ascending.
var supportedLadder = []float64{50, 90, 99, 99.9, 99.99}

// supportedPercentile returns the highest percentile of the ladder that
// still has at least ten samples beyond it in a sample of n, and how many
// samples lie beyond it; with fewer than twenty samples it is the median.
func supportedPercentile(n int) (p float64, beyond int) {
	p = supportedLadder[0]
	for _, c := range supportedLadder {
		if n-rankOf(c, n) >= 10 {
			p = c
		}
	}
	return p, n - rankOf(p, n)
}

// sliceSummary is a latency distribution cut into slices: each percentile
// is taken inside a slice and the median across slices is reported, so
// one slow slice (a GC burst, a noisy neighbour) cannot own the tail.
type sliceSummary struct {
	N     int     // samples over all slices
	P50   float64 // median across slices of the per-slice median
	P90   float64
	P99   float64
	PMax  float64 // the same, at the highest supported percentile
	PMaxP float64 // which percentile PMax is
	// PMaxBeyond is how many samples of the smallest slice lie beyond
	// PMaxP (the "rank" printed next to the diagnostic).
	PMaxBeyond int
}

// summarize sorts each non-empty slice in place and summarizes them; the
// supported percentile is chosen from the smallest slice so that every
// slice can carry it.
func summarize(slices [][]float64) sliceSummary {
	var s sliceSummary
	smallest := 0
	var used [][]float64
	for _, sl := range slices {
		if len(sl) == 0 {
			continue
		}
		sort.Float64s(sl)
		used = append(used, sl)
		s.N += len(sl)
		if smallest == 0 || len(sl) < smallest {
			smallest = len(sl)
		}
	}
	if len(used) == 0 {
		s.P50, s.P90, s.P99, s.PMax = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.PMaxP, s.PMaxBeyond = supportedPercentile(smallest)
	at := func(p float64) float64 {
		per := make([]float64, len(used))
		for i, sl := range used {
			per[i] = percentile(sl, p)
		}
		return median(per)
	}
	s.P50, s.P90, s.P99, s.PMax = at(50), at(90), at(99), at(s.PMaxP)
	return s
}

// mergeSlices joins two sliced samples slice by slice: slice i of the
// result holds the samples of both inputs' slice i.
func mergeSlices(a, b [][]float64) [][]float64 {
	out := make([][]float64, max(len(a), len(b)))
	for i := range out {
		if i < len(a) {
			out[i] = append(out[i], a[i]...)
		}
		if i < len(b) {
			out[i] = append(out[i], b[i]...)
		}
	}
	return out
}

// quartileSpread is the driver's repeatability measure: the distance
// between the first and third quartile (exclusive method, as Python's
// statistics.quantiles(values, n=4)) as a share of the median.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Position k*(n+1)/4, 1-based, linearly interpolated and clamped.
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
