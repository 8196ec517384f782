// Ripple insertion and deletion for cracker columns.
//
// "Updating a cracked database" (Idreos, Kersten, Manegold, SIGMOD
// 2007) keeps updates adaptive as well: pending insertions and
// deletions are buffered next to the cracker column and merged into it
// on demand, while queries run. The low-level mechanism that makes a
// single merge cheap is the ripple: because every piece of a cracked
// column is internally unordered, making room for (or closing the gap
// left by) one tuple only requires moving one tuple per affected piece
// — the first or last tuple of each piece hops to the piece's other
// end — instead of shifting everything. MergeBatch applies the same
// idea to a whole batch at once: every piece moves once, by its net
// shift, rotating at most that many tuples. The methods in this file
// implement these mechanisms; the merge policies that decide when to
// call them live in package updates.

package core

import (
	"cmp"
	"fmt"
	"slices"

	"adaptiveindex/internal/column"
)

// chargeScan charges the comparisons the linear boundary scan of the
// original ripple made to find the first boundary a value lies left of:
// one per boundary up to and including the k-th, or all of them when
// the value lies right of every boundary. Ripples now find k by binary
// search; the analytic charge keeps the cost counters unchanged.
func (cc *CrackerColumn) chargeScan(ci, k int) {
	if ci < len(cc.index.Chunks()) {
		k++
	}
	cc.c.Comparisons += uint64(k)
}

// RippleInsert inserts the pair into the cracker column, placing it in
// the piece its value belongs to and rippling one tuple per subsequent
// piece to keep every piece contiguous. All cracker-index invariants
// are preserved. Only the receiving piece is marked changed: every
// later piece keeps its tuples, merely rotated.
func (cc *CrackerColumn) RippleInsert(p column.Pair) {
	n := len(cc.pairs)
	ix := cc.index
	ci, j, k := ix.FirstLeftOf(p.Val)
	cc.chargeScan(ci, k)
	cc.pairs = append(cc.pairs, column.Pair{})
	hole := n
	// Ripple backwards: every piece that starts at a boundary position
	// after the insertion point donates its first tuple to its own end.
	// Boundaries sharing a position (zero-length pieces) and boundaries
	// at the column end move nothing. The final hole is the insertion
	// point: the position of boundary (ci, j), or the column end when
	// the value belongs after every boundary.
	chunks := ix.Chunks()
	for x := len(chunks) - 1; x >= ci; x-- {
		c := chunks[x]
		lo := 0
		if x == ci {
			lo = j
		}
		for y := c.Len() - 1; y >= lo; y-- {
			pos := c.Pos(y)
			if pos >= n {
				continue
			}
			if pos != hole {
				cc.pairs[hole] = cc.pairs[pos]
				cc.c.Swaps++
			}
			hole = pos
		}
	}
	cc.pairs[hole] = p
	cc.c.TuplesCopied++
	cc.c.ValuesTouched++
	cc.version++
	ix.MarkPieceBefore(ci, j)
	// Only the boundaries the new value lies to the left of move one
	// slot up; boundaries that merely share the insertion position but
	// order before the value's piece stay put.
	ix.ShiftFrom(ci, j, 1)
}

// RippleDelete removes the tuple with the given row identifier, whose
// value must be val, from the cracker column, rippling one tuple per
// subsequent piece to close the gap. It returns ErrNotFound if no such
// tuple exists in the piece val belongs to.
func (cc *CrackerColumn) RippleDelete(row column.RowID, val column.Value) error {
	n := len(cc.pairs)
	if n == 0 {
		return fmt.Errorf("%w: row %d value %d", ErrNotFound, row, val)
	}
	ix := cc.index
	ci, j, k := ix.FirstLeftOf(val)
	cc.chargeScan(ci, k)
	chunks := ix.Chunks()
	start, end := ix.PosBefore(ci, j), n
	if ci < len(chunks) {
		end = chunks[ci].Pos(j)
	}
	pos := -1
	for i := start; i < end; i++ {
		cc.c.ValuesTouched++
		if cc.pairs[i].Row == row && cc.pairs[i].Val == val {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("%w: row %d value %d", ErrNotFound, row, val)
	}
	// Close the gap inside the piece with its own last tuple, then let
	// every subsequent piece donate its last tuple to the piece before
	// it: the pieces after [start, end) end at the distinct boundary
	// positions in (end, n), and the last one at n.
	hole := end - 1
	if pos != hole {
		cc.pairs[pos] = cc.pairs[hole]
		cc.c.Swaps++
	}
	prev := end
	for x := ci; x < len(chunks); x++ {
		c := chunks[x]
		y := 0
		if x == ci {
			y = j
		}
		for ; y < c.Len(); y++ {
			p := c.Pos(y)
			if p <= prev || p >= n {
				continue
			}
			if p-1 != hole {
				cc.pairs[hole] = cc.pairs[p-1]
				cc.c.Swaps++
			}
			hole, prev = p-1, p
		}
	}
	if end < n && n-1 != hole {
		cc.pairs[hole] = cc.pairs[n-1]
		cc.c.Swaps++
	}
	cc.pairs = cc.pairs[:n-1]
	cc.version++
	ix.MarkPieceBefore(ci, j)
	// Every boundary at or after the end of the emptied slot's piece
	// moves one slot down.
	ix.ShiftFrom(ci, j, -1)
	return nil
}

// sweepPiece is one piece of a MergeBatch plan: its span before the
// merge, the net shift of its start, the rows it receives, the range of
// its deleted positions in the plan's position buffer, and the cursor
// of the boundary that ends it (the end cursor for the last piece).
type sweepPiece struct {
	start, end   int
	shift, next  int
	ins          column.Pairs
	delLo, delHi int
	ci, j        int
}

// MergeBatch merges a batch of insertions and deletions into the
// column in one pass over the pieces, where single ripples would pass
// over every later piece once per row. Each row goes to the piece
// RippleInsert or RippleDelete would put it in or take it from; every
// piece then moves once, by its net shift, rotating at most that many
// tuples, and only pieces that gained or lost rows are marked changed.
// Pieces move right to left through runs of right shifts and left to
// right otherwise, so no piece is overwritten before it has moved. ins
// and del are reordered. Every deletion must name a tuple of the
// column; otherwise MergeBatch returns ErrNotFound and changes nothing.
// The work is charged to the cost counters like the ripples' (the
// updates layer re-attributes it to MergeWork).
func (cc *CrackerColumn) MergeBatch(ins, del column.Pairs) error {
	if len(ins)+len(del) == 0 {
		return nil
	}
	byValue := func(a, b column.Pair) int {
		return cmp.Or(cmp.Compare(a.Val, b.Val), cmp.Compare(a.Row, b.Row))
	}
	slices.SortFunc(ins, byValue)
	slices.SortFunc(del, byValue)
	minVal := ins
	if len(ins) == 0 || (len(del) > 0 && del[0].Val < ins[0].Val) {
		minVal = del
	}

	// Plan: walk the pieces from the first one a row belongs to.
	ix := cc.index
	chunks := ix.Chunks()
	n := len(cc.pairs)
	ci, j, k0 := ix.FirstLeftOf(minVal[0].Val)
	start := ix.PosBefore(ci, j)
	plan, found := cc.sweep[:0], cc.sweepPos[:0]
	xi, xd, shift := 0, 0, 0
	for {
		tail := ci == len(chunks)
		end := n
		if !tail {
			end = chunks[ci].Pos(j)
		}
		insLo, delLo := xi, xd
		for xi < len(ins) && (tail || chunks[ci].Bound(j).IsLeft(ins[xi].Val)) {
			xi++
		}
		for xd < len(del) && (tail || chunks[ci].Bound(j).IsLeft(del[xd].Val)) {
			xd++
		}
		cc.c.Comparisons += uint64(xi - insLo + xd - delLo + 1)
		at := len(found)
		found = cc.findDeleted(found, del[delLo:xd], start, end)
		if len(found)-at != xd-delLo {
			cc.sweep, cc.sweepPos = plan, found
			return fmt.Errorf("%w: %d of %d deletions in piece [%d,%d)", ErrNotFound, xd-delLo-(len(found)-at), xd-delLo, start, end)
		}
		next := shift + (xi - insLo) - (xd - delLo)
		plan = append(plan, sweepPiece{start: start, end: end, shift: shift, next: next,
			ins: ins[insLo:xi], delLo: at, delHi: len(found), ci: ci, j: j})
		shift = next
		if tail || (xi == len(ins) && xd == len(del) && shift == 0) {
			break
		}
		start = end
		if j++; j == chunks[ci].Len() {
			ci, j = ci+1, 0
		}
	}
	cc.sweep, cc.sweepPos = plan, found

	// Execute: a piece whose end shifts right must wait for its right
	// neighbour, so runs joined by right shifts go right to left.
	if shift > 0 {
		cc.pairs = append(cc.pairs, make(column.Pairs, shift)...)
	}
	runStart := 0
	for i := range plan {
		if i+1 < len(plan) && plan[i].next > 0 {
			continue
		}
		for r := i; r >= runStart; r-- {
			cc.sweepMove(&plan[r], found)
		}
		runStart = i + 1
	}
	cc.pairs = cc.pairs[:n+shift]

	ix.Remap(func(rank, pos int) int {
		if i := rank - k0; i >= 0 && i < len(plan) {
			return pos + plan[i].next
		}
		return pos
	})
	for i := range plan {
		if p := &plan[i]; len(p.ins) > 0 || p.delHi > p.delLo {
			ix.MarkPieceBefore(p.ci, p.j)
		}
	}
	cc.version++
	return nil
}

// findDeleted appends to found the ascending positions in [start, end)
// of the tuples named by want, stopping once all are found.
func (cc *CrackerColumn) findDeleted(found []int, want column.Pairs, start, end int) []int {
	if len(want) == 0 {
		return found
	}
	var set map[column.Pair]bool
	if len(want) > 8 {
		set = make(map[column.Pair]bool, len(want))
		for _, p := range want {
			set[p] = true
		}
	}
	left := len(want)
	for i := start; i < end && left > 0; i++ {
		cc.c.ValuesTouched++
		pr := cc.pairs[i]
		hit := set[pr]
		if set == nil {
			hit = slices.Contains(want, pr)
		}
		if hit {
			found = append(found, i)
			left--
		}
	}
	return found
}

// sweepMove carries out one plan piece: it closes the holes of its
// deleted tuples with its own last tuples, moves the remaining tuples
// by the piece's shift (rotating at most |shift| of them) and appends
// the rows it receives.
func (cc *CrackerColumn) sweepMove(p *sweepPiece, found []int) {
	pairs := cc.pairs
	end := p.end
	for x := p.delHi - 1; x >= p.delLo; x-- {
		end--
		if pos := found[x]; pos != end {
			pairs[pos] = pairs[end]
			cc.c.Swaps++
		}
	}
	length, d := end-p.start, p.shift
	switch {
	case d > 0:
		k := min(d, length)
		copy(pairs[p.start+length+d-k:], pairs[p.start:p.start+k])
		cc.c.Swaps += uint64(k)
	case d < 0:
		k := min(-d, length)
		copy(pairs[p.start+d:], pairs[p.start+length-k:p.start+length])
		cc.c.Swaps += uint64(k)
	}
	copy(pairs[p.start+d+length:], p.ins)
	cc.c.TuplesCopied += uint64(len(p.ins))
	cc.c.ValuesTouched += uint64(len(p.ins))
}
