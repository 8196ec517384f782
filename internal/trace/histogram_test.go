package trace

import (
	"testing"
	"time"
)

// TestHistogramPercentileNearestRank pins the nearest-rank rule: the
// p-th percentile is the ceil(p*n)-th smallest sample, reported as its
// bucket's upper bound. The fractional ranks are the cases a floor
// gets wrong: {1, 100, 100} µs has p50 at rank 2 (100 µs, bucket bound
// 128), not rank 1.
func TestHistogramPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		samplesUs []int
		p         float64
		want      uint64
	}{
		{[]int{1, 100, 100}, 0.50, 128},           // rank ceil(1.5) = 2
		{[]int{1, 100, 100}, 0.34, 128},           // rank ceil(1.02) = 2
		{[]int{1, 100, 100}, 0.33, 2},             // rank ceil(0.99) = 1
		{[]int{1, 1, 1, 1000}, 0.95, 1024},        // rank ceil(3.8) = 4
		{[]int{1, 1, 1, 1000}, 0.75, 2},           // rank 3, exact
		{append(repeat(3, 98), 5000), 0.99, 8192}, // rank ceil(98.01) = 99
		{[]int{7}, 0.01, 8},                       // rank ceil(0.01) = 1
	} {
		var h Histogram
		for _, us := range tc.samplesUs {
			h.Observe(time.Duration(us) * time.Microsecond)
		}
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("samples %v: p%g = %d µs, want %d", tc.samplesUs, tc.p*100, got, tc.want)
		}
	}
}

// repeat returns n copies of us.
func repeat(us, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = us
	}
	return out
}
