package main

import (
	"math"
	"testing"
)

func seq(from, to int) []float64 {
	out := make([]float64, 0, to-from+1)
	for v := from; v <= to; v++ {
		out = append(out, float64(v))
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(1, 100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must yield NaN")
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("odd: got %g", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty must yield NaN")
	}
}

// The highest supported percentile is the highest with at least ten
// samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{5, 50, 2}, {19, 50, 9}, {20, 50, 10}, {99, 50, 49}, {100, 90, 10}, {127, 90, 12},
		{999, 90, 99}, {1000, 99, 10}, {10_000, 99.9, 10}, {100_000, 99.99, 10}, {1_000_000, 99.99, 100},
	} {
		p, beyond := supportedPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("supportedPercentile(%d) = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
		if c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
		}
	}
}

// Percentiles are taken per slice and the median across slices is
// reported: one slow slice must not own the tail.
func TestSummarizeMedianOfSlices(t *testing.T) {
	slow := seq(1001, 1100) // a slice that ran 1000 µs late throughout
	slices := [][]float64{seq(1, 100), slow, seq(1, 100), nil, {20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	s := summarize(slices)
	if s.N != 320 {
		t.Errorf("sample count %d, want 320 (empty slices are skipped)", s.N)
	}
	// Per-slice medians: 50, 1050, 50, 10 (of the 20-sample slice) -> median 50.
	if s.P50 != 50 {
		t.Errorf("P50 = %g, want 50", s.P50)
	}
	// Per-slice p99: 99, 1099, 99, 20 -> median 99.
	if s.P99 != 99 {
		t.Errorf("P99 = %g, want 99", s.P99)
	}
	// The smallest slice has 20 samples: only the median is supported.
	if s.PMaxP != 50 || s.PMaxBeyond != 10 || s.PMax != s.P50 {
		t.Errorf("pmax: p%g beyond %d value %g", s.PMaxP, s.PMaxBeyond, s.PMax)
	}
	big := summarize([][]float64{seq(1, 1000), seq(1, 1000), seq(1, 2000)})
	if big.PMaxP != 99 || big.PMax != 990 || big.P90 != 900 {
		t.Errorf("big: p%g = %g, p90 = %g", big.PMaxP, big.PMax, big.P90)
	}
	empty := summarize([][]float64{nil, {}})
	if empty.N != 0 || !math.IsNaN(empty.P50) {
		t.Errorf("empty: %+v", empty)
	}
}

// Write latency is inserts and deletes together, per time slice: with
// three fast inserts to one slow delete the median is an insert's, not a
// value between the two kinds' medians.
func TestMergeSlicesKeepsKindsInTheirSlice(t *testing.T) {
	inserts := [][]float64{{10, 11, 12}, {10, 11, 12}, {13, 14, 15}}
	deletes := [][]float64{{100}, {101}}
	merged := mergeSlices(inserts, deletes)
	if len(merged) != 3 || len(merged[0]) != 4 || len(merged[2]) != 3 {
		t.Fatalf("merged = %v", merged)
	}
	if s := summarize(merged); s.N != 11 || s.P50 != 11 {
		t.Errorf("write p50 = %g over %d samples, want 11 (an insert's) over 11", s.P50, s.N)
	}
	if len(inserts[0]) != 3 || len(deletes[0]) != 1 {
		t.Error("mergeSlices changed its inputs")
	}
}

// quartileSpread follows Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(seq(1, 10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("1..10: got %g, want 1", got)
	}
	// quantiles([10, 12, 11, 13, 10.5], n=4) == [10.25, 11.0, 12.5]
	if got, want := quartileSpread([]float64{10, 12, 11, 13, 10.5}), 2.25/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("five values: got %g, want %g", got, want)
	}
	if quartileSpread([]float64{3}) != 0 || quartileSpread([]float64{4, 4, 4, 4}) != 0 {
		t.Error("constant or single samples have no spread")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "count_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		name   string
		d      metricDef
		a, b   []float64
		status string
	}{
		{"same", lower, steady(100), steady(100), "ok"},
		{"slower within bound", lower, steady(100), steady(108), "ok"},
		{"slower beyond bound", lower, steady(100), steady(115), "worse"},
		{"faster", lower, steady(100), steady(50), "ok"},
		{"throughput drop", higher, steady(1000), steady(850), "worse"},
		{"throughput gain", higher, steady(1000), steady(2000), "ok"},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 130}, steady(100), "unresolved"},
	} {
		if v := judge(c.d, c.a, c.b); v.status != c.status {
			t.Errorf("%s: %s (worse by %.3f, spread %.3f)", c.name, v.status, v.worse, v.spread)
		}
	}
}
