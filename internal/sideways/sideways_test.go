package sideways

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptiveindex/internal/column"
)

// table is a small multi-column test fixture.
type table struct {
	a, b, c, d []column.Value
}

func makeTable(rng *rand.Rand, n, domain int) *table {
	t := &table{
		a: make([]column.Value, n),
		b: make([]column.Value, n),
		c: make([]column.Value, n),
		d: make([]column.Value, n),
	}
	for i := 0; i < n; i++ {
		t.a[i] = column.Value(rng.Intn(domain))
		t.b[i] = column.Value(rng.Intn(domain))
		t.c[i] = column.Value(rng.Intn(1000))
		t.d[i] = column.Value(i)
	}
	return t
}

func (t *table) tails() map[string][]column.Value {
	return map[string][]column.Value{"b": t.b, "c": t.c, "d": t.d}
}

// oracle computes the expected rows and projected values for a
// predicate on A.
func (t *table) oracle(r column.Range, attr string) (column.IDList, map[column.RowID]column.Value) {
	var tail []column.Value
	switch attr {
	case "a":
		tail = t.a
	case "b":
		tail = t.b
	case "c":
		tail = t.c
	case "d":
		tail = t.d
	}
	rows := column.IDList{}
	vals := make(map[column.RowID]column.Value)
	for i, v := range t.a {
		if r.Contains(v) {
			rows = append(rows, column.RowID(i))
			vals[column.RowID(i)] = tail[i]
		}
	}
	return rows, vals
}

func newSet(t *testing.T, tab *table, opts Options) *MapSet {
	t.Helper()
	ms, err := NewMapSet("a", tab.a, tab.tails(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func checkProjection(t *testing.T, tab *table, r column.Range, attr string, proj Projection) {
	t.Helper()
	wantRows, wantVals := tab.oracle(r, attr)
	if !proj.Rows.Equal(wantRows) {
		t.Fatalf("attr %s range %s: got %d rows want %d", attr, r, len(proj.Rows), len(wantRows))
	}
	if len(proj.Values) != len(proj.Rows) {
		t.Fatalf("attr %s: %d values for %d rows", attr, len(proj.Values), len(proj.Rows))
	}
	for i, row := range proj.Rows {
		if proj.Values[i] != wantVals[row] {
			t.Fatalf("attr %s row %d: value %d want %d", attr, row, proj.Values[i], wantVals[row])
		}
	}
}

func TestSelectProjectMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := makeTable(rng, 3000, 500)
	ms := newSet(t, tab, DefaultOptions())
	attrs := []string{"b", "c", "d"}
	for q := 0; q < 200; q++ {
		lo := column.Value(rng.Intn(520) - 10)
		r := column.NewRange(lo, lo+column.Value(rng.Intn(80)))
		attr := attrs[rng.Intn(len(attrs))]
		proj, err := ms.SelectProject(r, attr)
		if err != nil {
			t.Fatal(err)
		}
		checkProjection(t, tab, r, attr, proj)
		if q%40 == 0 {
			if err := ms.Validate(); err != nil {
				t.Fatalf("query %d: %v", q, err)
			}
		}
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSelectProjectHeadAttribute projects the selection attribute
// itself: no dedicated map exists for the head, so the set must answer
// from the head values any map carries, interleaved with ordinary tail
// projections that crack the maps between calls.
func TestSelectProjectHeadAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := makeTable(rng, 2000, 400)
	ms := newSet(t, tab, DefaultOptions())
	attrs := []string{"a", "b", "a", "c", "a", "d"}
	for q := 0; q < 120; q++ {
		lo := column.Value(rng.Intn(420) - 10)
		r := column.NewRange(lo, lo+column.Value(rng.Intn(60)))
		attr := attrs[q%len(attrs)]
		proj, err := ms.SelectProject(r, attr)
		if err != nil {
			t.Fatalf("attr %s: %v", attr, err)
		}
		checkProjection(t, tab, r, attr, proj)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	// Multi-projection including the head stays positionally aligned.
	rows, values, err := ms.SelectProjectMulti(column.NewRange(50, 90), []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if values["a"][i] != tab.a[row] || values["b"][i] != tab.b[row] {
			t.Fatalf("row %d misaligned head/tail projection", row)
		}
	}
}

func TestSelectProjectSpecialRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := makeTable(rng, 500, 100)
	ms := newSet(t, tab, DefaultOptions())
	for _, r := range []column.Range{
		{},
		column.Point(50),
		column.AtLeast(90),
		column.LessThan(10),
		column.NewRange(40, 40),
		column.ClosedRange(-10, 300),
	} {
		proj, err := ms.SelectProject(r, "b")
		if err != nil {
			t.Fatal(err)
		}
		checkProjection(t, tab, r, "b", proj)
	}
}

func TestPartialMaterialization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := makeTable(rng, 1000, 200)
	ms := newSet(t, tab, DefaultOptions())
	if len(ms.MaterializedMaps()) != 0 {
		t.Fatal("no maps may exist before any query")
	}
	if _, err := ms.SelectProject(column.NewRange(10, 20), "b"); err != nil {
		t.Fatal(err)
	}
	if got := ms.MaterializedMaps(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("materialised maps = %v", got)
	}
	// Only the attributes actually queried get maps.
	if _, err := ms.SelectProject(column.NewRange(10, 20), "d"); err != nil {
		t.Fatal(err)
	}
	if got := ms.MaterializedMaps(); len(got) != 2 {
		t.Fatalf("materialised maps = %v", got)
	}
}

func TestMapBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tab := makeTable(rng, 200, 50)
	ms := newSet(t, tab, Options{MaxMaps: 1})
	if _, err := ms.SelectProject(column.NewRange(1, 10), "b"); err != nil {
		t.Fatal(err)
	}
	_, err := ms.SelectProject(column.NewRange(1, 10), "c")
	if !errors.Is(err, ErrMapBudgetExceeded) {
		t.Fatalf("expected ErrMapBudgetExceeded, got %v", err)
	}
	// The already materialised map keeps working.
	if _, err := ms.SelectProject(column.NewRange(5, 15), "b"); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := makeTable(rng, 100, 50)
	ms := newSet(t, tab, DefaultOptions())
	if _, err := ms.SelectProject(column.NewRange(1, 10), "nope"); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("expected ErrUnknownAttribute, got %v", err)
	}
}

func TestMismatchedColumnLengths(t *testing.T) {
	_, err := NewMapSet("a", []column.Value{1, 2, 3}, map[string][]column.Value{"b": {1, 2}}, DefaultOptions())
	if err == nil {
		t.Fatal("expected an error for mismatched column lengths")
	}
}

func TestSelectProjectMultiAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := makeTable(rng, 2000, 300)
	ms := newSet(t, tab, DefaultOptions())
	// Warm up the maps with different query histories so alignment has
	// real work to do: map b sees some queries, map c others.
	for q := 0; q < 20; q++ {
		lo := column.Value(rng.Intn(300))
		if _, err := ms.SelectProject(column.NewRange(lo, lo+15), "b"); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 20; q++ {
		lo := column.Value(rng.Intn(300))
		if _, err := ms.SelectProject(column.NewRange(lo, lo+25), "c"); err != nil {
			t.Fatal(err)
		}
	}
	// Now a multi-attribute query must return positionally aligned
	// projections.
	for q := 0; q < 30; q++ {
		lo := column.Value(rng.Intn(300))
		r := column.NewRange(lo, lo+40)
		rows, values, err := ms.SelectProjectMulti(r, []string{"b", "c", "d"})
		if err != nil {
			t.Fatal(err)
		}
		wantRows, wantB := tab.oracle(r, "b")
		_, wantC := tab.oracle(r, "c")
		_, wantD := tab.oracle(r, "d")
		if !rows.Equal(wantRows) {
			t.Fatalf("query %s: wrong row set", r)
		}
		for i, row := range rows {
			if values["b"][i] != wantB[row] || values["c"][i] != wantC[row] || values["d"][i] != wantD[row] {
				t.Fatalf("query %s: misaligned projection at position %d (row %d)", r, i, row)
			}
		}
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := makeTable(rng, 800, 100)
	ms := newSet(t, tab, DefaultOptions())
	r := column.NewRange(20, 60)
	rows, err := ms.SelectRows(r)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, _ := tab.oracle(r, "b")
	if !rows.Equal(wantRows) {
		t.Fatalf("got %d rows want %d", len(rows), len(wantRows))
	}
}

func TestAlignmentCatchesUpLazily(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := makeTable(rng, 1000, 200)
	ms := newSet(t, tab, DefaultOptions())
	// Build history on map b only.
	for q := 0; q < 10; q++ {
		lo := column.Value(rng.Intn(200))
		if _, err := ms.SelectProject(column.NewRange(lo, lo+10), "b"); err != nil {
			t.Fatal(err)
		}
	}
	historyBefore := ms.HistoryLen()
	if historyBefore == 0 {
		t.Fatal("history must have accumulated")
	}
	// Map c materialises now and must catch up with that history before
	// answering, then produce correct results.
	r := column.NewRange(50, 90)
	proj, err := ms.SelectProject(r, "c")
	if err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tab, r, "c", proj)
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceMakesProjectionCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := makeTable(rng, 100000, 1000000)
	ms := newSet(t, tab, DefaultOptions())
	r := column.NewRange(10000, 30000)
	before := ms.Cost().Total()
	if _, err := ms.SelectProject(r, "b"); err != nil {
		t.Fatal(err)
	}
	first := ms.Cost().Total() - before

	before = ms.Cost().Total()
	if _, err := ms.SelectProject(r, "b"); err != nil {
		t.Fatal(err)
	}
	repeat := ms.Cost().Total() - before
	if repeat*3 > first {
		t.Fatalf("repeat select-project should be much cheaper: first %d, repeat %d", first, repeat)
	}
}

// Property: on arbitrary small tables and query sequences, sideways
// cracking returns exactly the oracle projection.
func TestQuickOracleEquivalence(t *testing.T) {
	f := func(rawA, rawB []int16, seq []uint8) bool {
		n := len(rawA)
		if len(rawB) < n {
			n = len(rawB)
		}
		a := make([]column.Value, n)
		b := make([]column.Value, n)
		for i := 0; i < n; i++ {
			a[i] = column.Value(rawA[i] % 64)
			b[i] = column.Value(rawB[i])
		}
		ms, err := NewMapSet("a", a, map[string][]column.Value{"b": b}, DefaultOptions())
		if err != nil {
			return false
		}
		tab := &table{a: a, b: b, c: make([]column.Value, n), d: make([]column.Value, n)}
		for _, q := range seq {
			lo := column.Value(int(q%64) - 32)
			r := column.NewRange(lo, lo+9)
			proj, err := ms.SelectProject(r, "b")
			if err != nil {
				return false
			}
			wantRows, wantVals := tab.oracle(r, "b")
			if !proj.Rows.Equal(wantRows) {
				return false
			}
			for i, row := range proj.Rows {
				if proj.Values[i] != wantVals[row] {
					return false
				}
			}
			if ms.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestNumPiecesDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := makeTable(rng, 3000, 500)
	ms := newSet(t, tab, DefaultOptions())
	for q := 0; q < 40; q++ {
		lo := column.Value(rng.Intn(500))
		if _, _, err := ms.SelectProjectMulti(column.NewRange(lo, lo+25), []string{"b", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	if ms.NumPieces() < 4 {
		t.Fatalf("replay cracked too little to measure: %d pieces", ms.NumPieces())
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ms.NumPieces() }); allocs != 0 {
		t.Fatalf("NumPieces allocates %.0f times per call", allocs)
	}
}
