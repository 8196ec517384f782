package main

import (
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
)

// testTable is a small random table and the naive answers over it.
type testTable struct {
	c0, c1 []column.Value
	domain int
}

func newTestTable(rows, domain int, seed int64) *testTable {
	rng := rand.New(rand.NewSource(seed))
	t := &testTable{domain: domain}
	for i := 0; i < rows; i++ {
		t.c0 = append(t.c0, column.Value(rng.Intn(domain)))
		t.c1 = append(t.c1, column.Value(rng.Intn(1000)))
	}
	return t
}

// reply is the correct select+project answer to [lo, hi), in an order
// unlike storage order (results come back in cracked order).
func (t *testTable) reply(lo, hi int64) (rows column.IDList, c1 []column.Value) {
	for i := len(t.c0) - 1; i >= 0; i-- {
		if t.c0[i] >= lo && t.c0[i] < hi {
			rows = append(rows, column.RowID(i))
			c1 = append(c1, t.c1[i])
		}
	}
	return rows, c1
}

func TestOracleMatchesNaiveScan(t *testing.T) {
	tbl := newTestTable(5000, 800, 1)
	o := newOracle(tbl.c0, tbl.c1, tbl.domain)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		lo := int64(rng.Intn(tbl.domain+40) - 20)
		hi := lo + int64(rng.Intn(100)) - 5
		rows, c1 := tbl.reply(lo, hi)
		var sumC1, sumRow int64
		for j, r := range rows {
			sumC1 += c1[j]
			sumRow += int64(r)
		}
		n, gotC1, gotRow := o.answer(lo, hi)
		if int(n) != len(rows) || gotC1 != sumC1 || gotRow != sumRow {
			t.Fatalf("[%d,%d): oracle %d/%d/%d, scan %d/%d/%d", lo, hi, n, gotC1, gotRow, len(rows), sumC1, sumRow)
		}
	}
}

// A correct reply passes; every way of corrupting it is counted as a
// failed answer.
func TestCorruptedReplyCountsAsFailed(t *testing.T) {
	tbl := newTestTable(5000, 800, 3)
	m := newModel(newOracle(tbl.c0, tbl.c1, tbl.domain), nil)
	sel := op{kind: opSelect, lo: 100, hi: 140}
	cnt := op{kind: opCount, lo: 100, hi: 140}
	rows, c1 := tbl.reply(sel.lo, sel.hi)
	if len(rows) < 10 {
		t.Fatalf("test range too empty: %d rows", len(rows))
	}
	digestOf := func(count int, rows column.IDList, c1 []column.Value) digest {
		var d digest
		d.digestReply(count, rows, c1, len(tbl.c0))
		return d
	}
	good := digestOf(len(rows), rows, c1)
	goodCount := digestOf(len(rows), nil, nil)
	if !m.check(sel, &good) || !m.check(cnt, &goodCount) {
		t.Fatal("correct replies rejected")
	}

	clone := func() (column.IDList, []column.Value) {
		return append(column.IDList(nil), rows...), append([]column.Value(nil), c1...)
	}
	corrupt := map[string]digest{}
	r, c := clone()
	c[3]++
	corrupt["one projected value off by one"] = digestOf(len(r), r, c)
	r, c = clone()
	r[5] = (r[5] + 1) % column.RowID(len(tbl.c0))
	corrupt["one row id replaced"] = digestOf(len(r), r, c)
	r, c = clone()
	corrupt["last row dropped"] = digestOf(len(r)-1, r[:len(r)-1], c[:len(c)-1])
	r, c = clone()
	corrupt["a row duplicated"] = digestOf(len(r)+1, append(r, r[0]), append(c, c[0]))
	r, c = clone()
	corrupt["count field disagrees with the rows"] = digestOf(len(r)+1, r, c)
	r, c = clone()
	corrupt["projection shorter than the rows"] = digestOf(len(r), r, c[:len(c)-1])
	r, c = clone()
	r[0] = column.RowID(len(tbl.c0) + 7)
	corrupt["a row that was never inserted"] = digestOf(len(r), r, c)
	failed := good
	failed.failed = true
	corrupt["the call failed"] = failed
	for name, d := range corrupt {
		d := d
		if m.check(sel, &d) {
			t.Errorf("%s: accepted", name)
		}
	}
	wrongCount := digestOf(len(rows)+1, nil, nil)
	if m.check(cnt, &wrongCount) {
		t.Error("count off by one: accepted")
	}

	// Through verify, which is what a run counts failures with: three
	// replies, one of them corrupted, one failed write.
	streams := []opStream{{ops: []op{sel, cnt, sel, {kind: opInsert}}}}
	recs := [][]digest{{good, goodCount, corrupt["one projected value off by one"], {failed: true}}}
	if got := m.verify(streams, recs); got != 2 {
		t.Errorf("verify counted %d failed answers, want 2", got)
	}
}

// While a write is in flight its rows may or may not be visible; once it
// is acked they must be, and once a delete is acked they must not.
func TestModelVisibilityWindows(t *testing.T) {
	tbl := newTestTable(2000, 500, 4)
	base := len(tbl.c0)
	ins := []insRecord{
		// Inserted over [100, 200] and never deleted.
		{c0: 120, c1: 7, row: column.RowID(base), insStart: 100, insAck: 200, delStart: never, delAck: never},
		// Inserted over [100, 200], deleted over [500, 600].
		{c0: 125, c1: 9, row: column.RowID(base + 1), insStart: 100, insAck: 200, delStart: 500, delAck: 600},
	}
	m := newModel(newOracle(tbl.c0, tbl.c1, tbl.domain), ins)
	sel := op{kind: opSelect, lo: 100, hi: 140}
	rows, c1 := tbl.reply(sel.lo, sel.hi)
	with := func(t0, t1 int64, extra ...int) digest {
		r, c := append(column.IDList(nil), rows...), append([]column.Value(nil), c1...)
		for _, i := range extra {
			r, c = append(r, ins[i].row), append(c, ins[i].c1)
		}
		d := digest{t0: t0, t1: t1}
		d.digestReply(len(r), r, c, base)
		return d
	}
	for _, c := range []struct {
		name string
		d    digest
		ok   bool
	}{
		{"before the insert: neither", with(10, 50), true},
		{"before the insert: a row from the future", with(10, 50, 0), false},
		{"during the insert: neither", with(150, 160), true},
		{"during the insert: both", with(150, 160, 0, 1), true},
		{"during the insert: one", with(150, 160, 1), true},
		{"after the ack: both", with(300, 310, 0, 1), true},
		{"after the ack: one missing", with(300, 310, 0), false},
		{"during the delete: with the row", with(520, 530, 0, 1), true},
		{"during the delete: without it", with(520, 530, 0), true},
		{"after the delete: without it", with(700, 710, 0), true},
		{"after the delete: still there", with(700, 710, 0, 1), false},
		{"after the delete: survivor missing", with(700, 710), false},
	} {
		d := c.d
		if got := m.check(sel, &d); got != c.ok {
			t.Errorf("%s: accepted=%v, want %v", c.name, got, c.ok)
		}
	}
	cnt := op{kind: opCount, lo: 100, hi: 140}
	for extra, ok := range map[int]bool{0: false, 1: false, 2: true, 3: false} {
		d := digest{t0: 300, t1: 310, count: int32(len(rows) + extra)}
		if got := m.check(cnt, &d); got != ok {
			t.Errorf("count with %d inserted rows after the ack: accepted=%v", extra, got)
		}
	}
}
