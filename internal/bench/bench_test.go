package bench

import (
	"strings"
	"testing"

	"adaptiveindex/internal/baseline"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/workload"
)

// fakeIndex lets tests script exact per-query costs.
type fakeIndex struct {
	name  string
	costs []uint64
	i     int
	c     cost.Counters
}

func (f *fakeIndex) Name() string { return f.name }

func (f *fakeIndex) Count(column.Range) int {
	if f.i < len(f.costs) {
		f.c.Comparisons += f.costs[f.i]
	}
	f.i++
	return 1
}

func (f *fakeIndex) Cost() cost.Counters { return f.c }

func queriesOfLen(n int) []column.Range {
	qs := make([]column.Range, n)
	for i := range qs {
		qs[i] = column.NewRange(column.Value(i), column.Value(i+1))
	}
	return qs
}

func TestRunRecordsPerQueryDeltas(t *testing.T) {
	f := &fakeIndex{name: "fake", costs: []uint64{100, 50, 10, 10}}
	s := Run(f, queriesOfLen(4))
	if s.IndexName != "fake" || len(s.Stats) != 4 {
		t.Fatalf("series shape wrong: %+v", s)
	}
	want := []uint64{100, 50, 10, 10}
	got := s.PerQueryTotals()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("per-query totals = %v, want %v", got, want)
		}
	}
	cum := s.CumulativeTotals()
	if cum[3] != 170 {
		t.Fatalf("cumulative = %v", cum)
	}
	if s.TotalWork().Total() != 170 {
		t.Fatalf("total work = %d", s.TotalWork().Total())
	}
	if s.FirstQueryCost() != 100 {
		t.Fatalf("first query = %d", s.FirstQueryCost())
	}
}

func TestConvergenceMetric(t *testing.T) {
	f := &fakeIndex{costs: []uint64{100, 80, 30, 5, 5, 5}}
	s := Run(f, queriesOfLen(6))
	if got := s.Convergence(10); got != 3 {
		t.Fatalf("Convergence(10) = %d, want 3", got)
	}
	if got := s.Convergence(1000); got != 0 {
		t.Fatalf("Convergence(1000) = %d, want 0", got)
	}
	if got := s.Convergence(1); got != -1 {
		t.Fatalf("Convergence(1) = %d, want -1 (never)", got)
	}
	var empty Series
	if empty.FirstQueryCost() != 0 {
		t.Fatal("empty series first-query cost must be 0")
	}
}

func TestBreakEven(t *testing.T) {
	// a is expensive early, cheap later; b pays a lot up front.
	a := Run(&fakeIndex{costs: []uint64{50, 40, 5, 5, 5, 5}}, queriesOfLen(6))
	b := Run(&fakeIndex{costs: []uint64{200, 1, 1, 1, 1, 1}}, queriesOfLen(6))
	// Cumulative a: 50 90 95 100 105 110; b: 200 201 202 203 204 205.
	if got := a.BreakEven(b); got != 0 {
		t.Fatalf("a.BreakEven(b) = %d, want 0", got)
	}
	if got := b.BreakEven(a); got != -1 {
		t.Fatalf("b.BreakEven(a) = %d, want -1", got)
	}
	// Crossing case.
	c := Run(&fakeIndex{costs: []uint64{300, 1, 1, 1, 1, 1}}, queriesOfLen(6))
	d := Run(&fakeIndex{costs: []uint64{50, 50, 50, 50, 50, 60}}, queriesOfLen(6))
	// Cumulative c: 300..305; d: 50 100 150 200 250 310. c <= d from i=5.
	if got := c.BreakEven(d); got != 5 {
		t.Fatalf("c.BreakEven(d) = %d, want 5", got)
	}
}

func TestMaxAndTail(t *testing.T) {
	s := Run(&fakeIndex{costs: []uint64{5, 500, 10, 10, 10, 10, 10, 10, 10, 10}}, queriesOfLen(10))
	m, at := s.MaxQueryCost()
	if m != 500 || at != 1 {
		t.Fatalf("max = %d at %d", m, at)
	}
	if got := s.TailAverage(4); got != 10 {
		t.Fatalf("tail average = %d", got)
	}
	if got := s.TailAverage(0); got == 0 {
		t.Fatalf("tail average with zero window = %d", got)
	}
	var empty Series
	if empty.TailAverage(5) != 0 {
		t.Fatal("empty tail average must be 0")
	}
}

func TestSummarizeAndFormatTable(t *testing.T) {
	s := Run(&fakeIndex{name: "alpha", costs: []uint64{100, 10, 10}}, queriesOfLen(3))
	s2 := Run(&fakeIndex{name: "beta", costs: []uint64{10, 10, 10}}, queriesOfLen(3))
	rows := []Summary{s.Summarize(20), s2.Summarize(20)}
	out := FormatTable("experiment", rows)
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if !strings.Contains(out, "first-query") {
		t.Fatalf("table missing header:\n%s", out)
	}
	// beta has less total work, so it must be listed first.
	if strings.Index(out, "beta") > strings.Index(out, "alpha") {
		t.Fatalf("rows not sorted by total work:\n%s", out)
	}
	neverRow := Summary{IndexName: "gamma", Convergence: -1}
	if !strings.Contains(FormatTable("t", []Summary{neverRow}), "never") {
		t.Fatal("non-converging rows must print 'never'")
	}
}

func TestFormatCurve(t *testing.T) {
	s := Run(&fakeIndex{name: "alpha", costs: []uint64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}, queriesOfLen(10))
	out := FormatCurve(s, 5)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || len(lines) > 7 {
		t.Fatalf("unexpected number of curve lines: %d\n%s", len(lines), out)
	}
	full := FormatCurve(s, 0)
	if len(strings.Split(strings.TrimSpace(full), "\n")) != 11 {
		t.Fatalf("full curve wrong:\n%s", full)
	}
}

// Integration: the harness applied to real indexes reproduces the
// headline cracking-vs-scan-vs-full-index shape on a small input.
func TestHarnessWithRealIndexes(t *testing.T) {
	vals := workload.DataUniform(1, 50000, 1000000)
	queries := workload.Queries(workload.NewUniform(2, 0, 1000000, 0.01), 300)

	crack := core.NewCrackerColumn(vals, core.DefaultOptions())
	scan := baseline.NewFullScan(vals)
	full := baseline.NewFullSortIndex(vals, false)

	sCrack := RunNamed(crack, "uniform", queries)
	sScan := RunNamed(scan, "uniform", queries)
	sFull := RunNamed(full, "uniform", queries)

	// Results must agree across access paths.
	for i := range queries {
		if sCrack.Stats[i].Result != sScan.Stats[i].Result || sFull.Stats[i].Result != sScan.Stats[i].Result {
			t.Fatalf("query %d: result mismatch crack=%d scan=%d full=%d",
				i, sCrack.Stats[i].Result, sScan.Stats[i].Result, sFull.Stats[i].Result)
		}
	}
	// Shape claims.
	if sCrack.FirstQueryCost() >= sFull.FirstQueryCost() {
		t.Fatalf("cracking's first query (%d) must be cheaper than building the full index (%d)",
			sCrack.FirstQueryCost(), sFull.FirstQueryCost())
	}
	if sCrack.TailAverage(30) >= sScan.TailAverage(30)/10 {
		t.Fatalf("cracking must converge to much cheaper queries than scanning: %d vs %d",
			sCrack.TailAverage(30), sScan.TailAverage(30))
	}
	if sCrack.TotalWork().Total() >= sScan.TotalWork().Total() {
		t.Fatal("cracking must beat scanning in total work over 300 queries")
	}
}
