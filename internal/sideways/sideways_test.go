package sideways

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
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

// An empty answer is an empty, non-nil slice (JSON [], not null), also
// from a map set over no rows.
func TestEmptyResultsAreNotNil(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 300} {
		ms := newSet(t, makeTable(rng, n, 100), DefaultOptions())
		for _, r := range []column.Range{column.NewRange(40, 40), column.LessThan(-5), column.AtLeast(1000)} {
			proj, err := ms.SelectProject(r, "b")
			if err != nil {
				t.Fatal(err)
			}
			rows, values, err := ms.SelectProjectMulti(r, []string{"c", "a"})
			if err != nil {
				t.Fatal(err)
			}
			sel, err := ms.SelectRows(r)
			if err != nil {
				t.Fatal(err)
			}
			for name, empty := range map[string]bool{
				"SelectProject rows":      proj.Rows != nil && len(proj.Rows) == 0,
				"SelectProject values":    proj.Values != nil && len(proj.Values) == 0,
				"SelectProjectMulti rows": rows != nil && len(rows) == 0,
				"SelectProjectMulti c":    values["c"] != nil && len(values["c"]) == 0,
				"SelectProjectMulti a":    values["a"] != nil && len(values["a"]) == 0,
				"SelectRows":              sel != nil && len(sel) == 0,
			} {
				if !empty {
					t.Errorf("n=%d range %s: %s is not an empty non-nil slice", n, r, name)
				}
			}
		}
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

// refEntry is one aligned triple of the entry-wise cracker map the
// columnar layout replaced.
type refEntry struct {
	Head, Tail column.Value
	Row        column.RowID
}

// refCrackMap is the entry-wise crack kernel the columnar one replaced,
// kept as the reference: it partitions entries[lo:hi) around b and
// charges one comparison and one value touched per head inspected and
// one swap per exchange.
func refCrackMap(entries []refEntry, lo, hi int, b crackeridx.Bound, c *cost.Counters) int {
	leftOf := func(v column.Value) bool {
		c.Comparisons++
		c.ValuesTouched++
		if b.Inclusive {
			return v <= b.Value
		}
		return v < b.Value
	}
	i, j := lo, hi-1
	for i <= j {
		for i <= j && leftOf(entries[i].Head) {
			i++
		}
		for i <= j && !leftOf(entries[j].Head) {
			j--
		}
		if i < j {
			entries[i], entries[j] = entries[j], entries[i]
			c.Swaps++
			i++
			j--
		}
	}
	return i
}

// refMap and refSet are the entry-wise map set with the full crack
// history: every map, however late, replays the whole history from the
// base order. They are the reference the columnar maps, the sibling
// copy and the bounded history are held to.
type refMap struct {
	attr    string
	entries []refEntry
	idx     *crackeridx.Index
	aligned int
}

type refSet struct {
	head    []column.Value
	tails   map[string][]column.Value
	rows    []column.RowID
	maps    []*refMap
	history []crackeridx.Bound
	c       cost.Counters
}

func (rs *refSet) mapFor(attr string) *refMap {
	for _, m := range rs.maps {
		if m.attr == attr {
			return m
		}
	}
	m := &refMap{attr: attr, idx: crackeridx.New(), entries: make([]refEntry, len(rs.head))}
	for i := range rs.head {
		row := column.RowID(i)
		if rs.rows != nil {
			row = rs.rows[i]
		}
		m.entries[i] = refEntry{Head: rs.head[i], Tail: rs.tails[attr][i], Row: row}
	}
	rs.c.ValuesTouched += uint64(2 * len(rs.head))
	rs.c.TuplesCopied += uint64(len(rs.head))
	rs.maps = append(rs.maps, m)
	return m
}

func (rs *refSet) crack(m *refMap, b crackeridx.Bound) int {
	piece, _, exact := m.idx.PieceFor(b, len(m.entries))
	if exact {
		return piece.Start
	}
	pos := refCrackMap(m.entries, piece.Start, piece.End, b, &rs.c)
	m.idx.Insert(b, pos)
	return pos
}

// interval answers predicate r on attr's map (the first map for the
// head attribute "a") and returns the map and the qualifying interval.
func (rs *refSet) interval(r column.Range, attr string) (*refMap, int, int) {
	if attr == "a" {
		attr = rs.maps[0].attr
	}
	m := rs.mapFor(attr)
	if r.Empty() {
		return m, 0, 0
	}
	for ; m.aligned < len(rs.history); m.aligned++ {
		rs.crack(m, rs.history[m.aligned])
	}
	start, end := 0, len(m.entries)
	var bounds []crackeridx.Bound
	if r.HasLow {
		b := core.LowerBound(r)
		start, bounds = rs.crack(m, b), append(bounds, b)
	}
	if r.HasHigh {
		b := core.UpperBound(r)
		end, bounds = rs.crack(m, b), append(bounds, b)
	}
	end = max(end, start)
	for _, b := range bounds {
		if !slices.Contains(rs.history, b) {
			rs.history = append(rs.history, b)
		}
	}
	m.aligned = len(rs.history)
	return m, start, end
}

// sameMaps requires every map of ms to hold exactly the physical order
// of the reference's map for the same attribute.
func sameMaps(t *testing.T, ms *MapSet, rs *refSet) {
	t.Helper()
	if len(ms.maps) != len(rs.maps) {
		t.Fatalf("%d maps, reference has %d", len(ms.maps), len(rs.maps))
	}
	for i, m := range ms.maps {
		ref := rs.maps[i]
		if m.attr != ref.attr {
			t.Fatalf("map %d is %q, reference %q", i, m.attr, ref.attr)
		}
		for p, e := range ref.entries {
			if m.heads[p] != e.Head || m.tails[p] != e.Tail || m.rows[p] != e.Row {
				t.Fatalf("map %q position %d: (%d,%d,%d), reference (%d,%d,%d)",
					m.attr, p, m.heads[p], m.tails[p], m.rows[p], e.Head, e.Tail, e.Row)
			}
		}
		if !slices.Equal(m.idx.Boundaries(), ref.idx.Boundaries()) {
			t.Fatalf("map %q: index differs from the reference", m.attr)
		}
	}
}

// extremeTable is a fixture whose heads include both ends of the value
// domain, so bounds at MinInt64 and MaxInt64 split real data.
func extremeTable(rng *rand.Rand, n int) (head []column.Value, tails map[string][]column.Value) {
	head = make([]column.Value, n)
	tails = map[string][]column.Value{"b": make([]column.Value, n), "c": make([]column.Value, n), "d": make([]column.Value, n)}
	for i := range head {
		switch rng.Intn(10) {
		case 0:
			head[i] = math.MinInt64
		case 1:
			head[i] = math.MaxInt64
		default:
			head[i] = column.Value(rng.Intn(200) - 100)
		}
		for _, tail := range tails {
			tail[i] = rng.Int63()
		}
	}
	return head, tails
}

// randomRange draws a predicate over the fixture's domain, a quarter of
// them with an end at MinInt64 or MaxInt64 (inclusive or exclusive) or
// one-sided.
func randomRange(rng *rand.Rand) column.Range {
	lo := column.Value(rng.Intn(220) - 110)
	r := column.Range{Low: lo, High: lo + column.Value(rng.Intn(60)), HasLow: true, HasHigh: true,
		IncLow: rng.Intn(2) == 0, IncHigh: rng.Intn(2) == 0}
	switch rng.Intn(8) {
	case 0:
		r.Low = math.MinInt64
	case 1:
		r.High = math.MaxInt64
	case 2:
		r.HasLow = false
	case 3:
		r.HasHigh = false
	}
	return r
}

// TestCrackKernelMatchesEntryWise holds the columnar crack kernel to
// the entry-wise reference on random pieces and bounds, including
// inclusive and exclusive bounds at both ends of the value domain:
// identical physical order, split position and counters.
func TestCrackKernelMatchesEntryWise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		head, tails := extremeTable(rng, n)
		m := &crackerMap{heads: slices.Clone(head), tails: slices.Clone(tails["b"]), rows: make([]column.RowID, n)}
		ref := make([]refEntry, n)
		for i := range ref {
			m.rows[i] = column.RowID(rng.Uint32())
			ref[i] = refEntry{Head: head[i], Tail: tails["b"][i], Row: m.rows[i]}
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		b := crackeridx.Bound{Value: column.Value(rng.Intn(220) - 110), Inclusive: rng.Intn(2) == 0}
		switch rng.Intn(4) {
		case 0:
			b.Value = math.MinInt64
		case 1:
			b.Value = math.MaxInt64
		}
		var want cost.Counters
		wantPos := refCrackMap(ref, lo, hi, b, &want)
		if pos := m.crack(lo, hi, b); pos != wantPos {
			t.Fatalf("trial %d, bound %s on [%d,%d): split %d, reference %d", trial, b, lo, hi, pos, wantPos)
		}
		if m.cracked != want {
			t.Fatalf("trial %d, bound %s: counters %+v, reference %+v", trial, b, m.cracked, want)
		}
		for i, e := range ref {
			if m.heads[i] != e.Head || m.tails[i] != e.Tail || m.rows[i] != e.Row {
				t.Fatalf("trial %d, bound %s: position %d differs from the reference", trial, b, i)
			}
		}
	}
}

// TestMapSetMatchesEntryWiseReplay runs random select, count and
// multi-attribute streams through the columnar set and the entry-wise
// full-history reference, over the plain and the explicit-rows
// constructor. Maps materialise late (copied from a sibling, against
// the reference's full replay), so physical order, index, positions,
// history length and every counter must agree after every query, while
// the columnar set keeps only the history some map has not applied.
func TestMapSetMatchesEntryWiseReplay(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		head, tails := extremeTable(rng, n)
		rs := &refSet{head: head, tails: tails}
		var ms *MapSet
		var err error
		if seed%2 == 0 {
			// A written table: live tuples under sparse, shuffled row
			// identifiers.
			rows := make([]column.RowID, n)
			for i, p := range rng.Perm(3 * n)[:n] {
				rows[i] = column.RowID(p)
			}
			rs.rows = rows
			ms, err = NewMapSetRows("a", head, tails, rows, DefaultOptions())
		} else {
			ms, err = NewMapSet("a", head, tails, DefaultOptions())
		}
		if err != nil {
			t.Fatal(err)
		}
		// "b" first: the head attribute is answered from the first map.
		attrs := []string{"b", "b", "b", "a", "c", "d"}
		for q := 0; q < 300; q++ {
			r := randomRange(rng)
			attr := attrs[0]
			if q >= 20 {
				attr = attrs[rng.Intn(len(attrs))]
			}
			switch kind := rng.Intn(4); {
			case kind == 0 && q > 0:
				_, start, end := rs.interval(r, "a")
				got, err := ms.CountRows(r)
				if err != nil {
					t.Fatal(err)
				}
				if got != end-start {
					t.Fatalf("seed %d query %d %s: count %d, reference %d", seed, q, r, got, end-start)
				}
			case kind == 1 && q >= 20:
				multi := []string{"c", "b", "d"}
				rows, values, err := ms.SelectProjectMulti(r, multi)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range multi {
					m, start, end := rs.interval(r, a)
					rs.c.TuplesCopied += uint64(end - start)
					rs.c.ValuesTouched += uint64(end - start)
					if len(rows) != end-start || len(values[a]) != end-start {
						t.Fatalf("seed %d query %d %s: multi %q has %d rows, reference %d", seed, q, r, a, len(values[a]), end-start)
					}
					for p := start; p < end; p++ {
						if rows[p-start] != m.entries[p].Row || values[a][p-start] != m.entries[p].Tail {
							t.Fatalf("seed %d query %d %s: multi %q position %d differs", seed, q, r, a, p)
						}
					}
				}
			default:
				proj, err := ms.SelectProject(r, attr)
				if err != nil {
					t.Fatal(err)
				}
				m, start, end := rs.interval(r, attr)
				rs.c.TuplesCopied += uint64(end - start)
				rs.c.ValuesTouched += uint64(end - start)
				if len(proj.Rows) != end-start {
					t.Fatalf("seed %d query %d %s: %d rows, reference %d", seed, q, r, len(proj.Rows), end-start)
				}
				for p := start; p < end; p++ {
					want := m.entries[p].Tail
					if attr == "a" {
						want = m.entries[p].Head
					}
					if proj.Rows[p-start] != m.entries[p].Row || proj.Values[p-start] != want {
						t.Fatalf("seed %d query %d %s: %q position %d differs", seed, q, r, attr, p)
					}
				}
			}
			if ms.Cost() != rs.c {
				t.Fatalf("seed %d query %d: counters %+v, reference %+v", seed, q, ms.Cost(), rs.c)
			}
			if ms.HistoryLen() != len(rs.history) {
				t.Fatalf("seed %d query %d: history %d, reference %d", seed, q, ms.HistoryLen(), len(rs.history))
			}
			sameMaps(t, ms, rs)
		}
		// Every map is aligned after a multi-attribute query over all of
		// them: nothing is left to retain.
		if _, _, err := ms.SelectProjectMulti(column.NewRange(-5, 5), []string{"b", "c", "d"}); err != nil {
			t.Fatal(err)
		}
		if ms.RetainedHistory() != 0 {
			t.Fatalf("seed %d: %d history entries retained with every map aligned", seed, ms.RetainedHistory())
		}
		if err := ms.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLateMapCopyEqualsReplay materialises a map after a long history on
// a sibling: the copy must equal a map built by replaying the whole
// history from the base order, and be charged what that replay costs.
func TestLateMapCopyEqualsReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	head, tails := extremeTable(rng, 4000)
	ms, err := NewMapSet("a", head, tails, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs := &refSet{head: head, tails: tails}
	for q := 0; q < 200; q++ {
		r := randomRange(rng)
		if _, err := ms.SelectProject(r, "b"); err != nil {
			t.Fatal(err)
		}
		_, start, end := rs.interval(r, "b")
		rs.c.TuplesCopied += uint64(end - start)
		rs.c.ValuesTouched += uint64(end - start)
	}
	if ms.RetainedHistory() != 0 {
		t.Fatalf("one map, yet %d history entries retained", ms.RetainedHistory())
	}
	before, refBefore := ms.Cost(), rs.c
	r := column.NewRange(-20, 20)
	if _, err := ms.SelectProject(r, "c"); err != nil {
		t.Fatal(err)
	}
	_, start, end := rs.interval(r, "c")
	rs.c.TuplesCopied += uint64(end - start)
	rs.c.ValuesTouched += uint64(end - start)
	sameMaps(t, ms, rs)
	if got, want := ms.Cost().Sub(before), rs.c.Sub(refBefore); got != want {
		t.Fatalf("late map charged %+v, full replay %+v", got, want)
	}
}

// TestDumpRestoreKeepsRetainedSuffix dumps a set whose second map lags
// behind: the dump carries only the suffix that map has not applied,
// Aligned relative to it, and the restored set answers like the
// original.
func TestDumpRestoreKeepsRetainedSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tab := makeTable(rng, 2000, 300)
	ms := newSet(t, tab, DefaultOptions())
	for q := 0; q < 10; q++ {
		lo := column.Value(rng.Intn(300))
		if _, _, err := ms.SelectProjectMulti(column.NewRange(lo, lo+20), []string{"b", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 15; q++ {
		lo := column.Value(rng.Intn(300))
		if _, err := ms.SelectProject(column.NewRange(lo, lo+20), "b"); err != nil {
			t.Fatal(err)
		}
	}
	d := ms.Dump()
	if len(d.History) != ms.RetainedHistory() || len(d.History) == 0 || len(d.History) >= ms.HistoryLen() {
		t.Fatalf("dump carries %d history entries; set retains %d of %d", len(d.History), ms.RetainedHistory(), ms.HistoryLen())
	}
	if d.Maps[0].Aligned != len(d.History) || d.Maps[1].Aligned != 0 {
		t.Fatalf("dumped alignment %d/%d, want %d/0", d.Maps[0].Aligned, d.Maps[1].Aligned, len(d.History))
	}
	restored, err := RestoreMapSet("a", tab.a, tab.tails(), DefaultOptions(), d)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 20; q++ {
		lo := column.Value(rng.Intn(300))
		r := column.NewRange(lo, lo+30)
		for _, attr := range []string{"c", "b", "d"} {
			proj, err := restored.SelectProject(r, attr)
			if err != nil {
				t.Fatal(err)
			}
			checkProjection(t, tab, r, attr, proj)
		}
	}
	if restored.RetainedHistory() != 0 {
		t.Fatalf("restored set retains %d entries with every map aligned", restored.RetainedHistory())
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
}
