package main

import (
	"math"
	"sort"

	"adaptiveindex/internal/column"
)

// oracle answers any range read over the base table in O(1). The domain
// is the dense integer range [0, len-1), so instead of a sorted copy with
// binary search it keeps prefix sums indexed by value: entry v covers the
// rows with c0 < v. A reply is compared on its count, the sum of its
// projected c1 values and the sum of its row ids, which pins the exact
// row set without caring about the (cracked, arbitrary) result order.
type oracle struct {
	count  []int32
	sumC1  []int64
	sumRow []int64
}

// newOracle builds the prefix sums over the first len(c0) base rows.
func newOracle(c0, c1 []column.Value, domain int) *oracle {
	o := &oracle{
		count:  make([]int32, domain+1),
		sumC1:  make([]int64, domain+1),
		sumRow: make([]int64, domain+1),
	}
	for row, v := range c0 {
		o.count[v+1]++
		o.sumC1[v+1] += c1[row]
		o.sumRow[v+1] += int64(row)
	}
	for v := 1; v <= domain; v++ {
		o.count[v] += o.count[v-1]
		o.sumC1[v] += o.sumC1[v-1]
		o.sumRow[v] += o.sumRow[v-1]
	}
	return o
}

// answer returns the count, Σc1 and Σrow of base rows with lo <= c0 < hi.
func (o *oracle) answer(lo, hi int64) (count int32, sumC1, sumRow int64) {
	top := int64(len(o.count) - 1)
	clamp := func(v int64) int64 { return min(max(v, 0), top) }
	lo, hi = clamp(lo), clamp(hi)
	if hi <= lo {
		return 0, 0, 0
	}
	return o.count[hi] - o.count[lo], o.sumC1[hi] - o.sumC1[lo], o.sumRow[hi] - o.sumRow[lo]
}

// digest is what the caller keeps of one reply: enough to check it after
// the timed section without holding the rows. Rows below baseRows are
// base rows; the rest were inserted during the run and are summed apart,
// because only the base part has one exact answer while writes are in
// flight. The i-th digest of a caller belongs to op i (modulo the pool).
type digest struct {
	count           int32 // the reply's own count field
	baseN, insN     int32
	bytes           int32 // response bytes (served) or 8 per value (embedded)
	baseC1, baseRow int64
	insC1, insRow   int64
	t0, t1          int64 // ns since the timed section began
	// failed: the call returned an error or was refused; malformed: rows
	// and projection disagree in length.
	failed, malformed bool
}

// digestReply folds one reply into d. A count reply has no rows.
func (d *digest) digestReply(count int, rows column.IDList, c1 []column.Value, baseRows int) {
	d.count = int32(count)
	if len(rows) != len(c1) {
		d.malformed = true
		return
	}
	for i, row := range rows {
		if int(row) < baseRows {
			d.baseN++
			d.baseC1 += c1[i]
			d.baseRow += int64(row)
		} else {
			d.insN++
			d.insC1 += c1[i]
			d.insRow += int64(row)
		}
	}
}

// insRecord is one inserted row of the model table with the client-side
// interval of the write that added it and, if any, of the one that
// deleted it (ns since the timed section began).
type insRecord struct {
	c0, c1           int64
	row              column.RowID
	insStart, insAck int64
	delStart, delAck int64
}

const never = math.MaxInt64

// model is the table mixed_served should hold: base rows plus acked
// inserts minus acked deletes (deletes only ever target inserted rows, so
// the base part stays exact).
type model struct {
	base *oracle
	ins  []insRecord // sorted by c0
}

func newModel(base *oracle, ins []insRecord) *model {
	sort.Slice(ins, func(i, j int) bool { return ins[i].c0 < ins[j].c0 })
	return &model{base: base, ins: ins}
}

// check reports whether a reply to read o issued over [d.t0, d.t1] is
// consistent with the model. An inserted row must be visible when its
// insert was acked before the read began and no delete had started by the
// time it ended; it may be visible when its insert started before the
// read ended and no delete was acked before it began. With no write in
// flight the two sets coincide and the check is exact.
func (m *model) check(o op, d *digest) bool {
	if d.failed || d.malformed {
		return false
	}
	lo, hi, ins := o.lo, o.hi, m.ins
	wantN, wantC1, wantRow := m.base.answer(lo, hi)
	var mustN, mayN int32
	var mustC1, mustRow int64
	from := sort.Search(len(ins), func(i int) bool { return ins[i].c0 >= lo })
	for _, r := range ins[from:] {
		if r.c0 >= hi {
			break
		}
		if r.insStart < d.t1 && r.delAck > d.t0 {
			mayN++
		}
		if r.insAck < d.t0 && r.delStart > d.t1 {
			mustN++
			mustC1 += r.c1
			mustRow += int64(r.row)
		}
	}
	if o.kind == opCount {
		got := d.count - wantN
		return got >= mustN && got <= mayN
	}
	if d.count != d.baseN+d.insN || d.baseN != wantN || d.baseC1 != wantC1 || d.baseRow != wantRow {
		return false
	}
	if d.insN < mustN || d.insN > mayN {
		return false
	}
	if mustN == mayN {
		return d.insC1 == mustC1 && d.insRow == mustRow
	}
	return true
}

// verify counts the recorded replies the model rejects.
func (m *model) verify(streams []opStream, recs [][]digest) (failed int) {
	for s, list := range recs {
		for i := range list {
			d := &list[i]
			o := streams[s].ops[i%len(streams[s].ops)]
			if !o.kind.isRead() {
				if d.failed {
					failed++
				}
			} else if !m.check(o, d) {
				failed++
			}
		}
	}
	return failed
}
