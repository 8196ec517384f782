// Immutable piece-catalog snapshots of a cracker column.
//
// Epoch-pinned reads (internal/engine's epoch manager) need a view of
// a cracked column that never moves underneath a reader: the live
// CrackerColumn reorganises itself on every query, so concurrent
// readers must instead pin a ColSnapshot — a copy-on-crack list of the
// column's pieces taken between reorganisations. Pieces whose span was
// untouched since the previous snapshot are shared structurally with
// it (the copied slice is immutable once published), so steady-state
// publication cost is proportional to the data that actually moved,
// not the column size.

package core

import (
	"sort"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
)

// SnapPiece is one piece of a column snapshot: an immutable copy of
// the (value, rowid) pairs that occupied positions [Start, End) of the
// cracker column at snapshot time, plus the piece's bounding pivots
// from the cracker index. The Pairs slice never aliases the live
// column and must not be mutated after the snapshot is published.
type SnapPiece struct {
	Start, End int
	Pairs      column.Pairs
	Lower      crackeridx.Bound
	Upper      crackeridx.Bound
	HasLower   bool
	HasUpper   bool
}

// ColSnapshot is an immutable piece-catalog view of a cracker column.
// Any number of goroutines may Select/Count against it concurrently;
// it is never mutated after Snapshot returns it.
type ColSnapshot struct {
	// Pieces lists the column's pieces in position order; their spans
	// tile [0, Len) exactly.
	Pieces []SnapPiece
	// Len is the column length at snapshot time.
	Len int
	// Version is the column's reorganisation version at snapshot time.
	Version uint64
}

// Snapshot captures the column's current piece catalog. prev, when
// non-nil, must be the snapshot returned by the most recent Snapshot
// call on this column: pieces whose (Start, End) span is unchanged and
// was not dirtied since then reuse prev's already-copied slices
// instead of copying again. Snapshot deliberately charges nothing to
// the cost counters — publication is bookkeeping, not query work — so
// taking snapshots never perturbs the deterministic counter stream.
func (cc *CrackerColumn) Snapshot(prev *ColSnapshot) *ColSnapshot {
	n := len(cc.pairs)
	pieces := cc.index.Pieces(n)
	snap := &ColSnapshot{Pieces: make([]SnapPiece, len(pieces)), Len: n, Version: cc.version}
	var reuse map[[2]int]*SnapPiece
	if prev != nil {
		reuse = make(map[[2]int]*SnapPiece, len(prev.Pieces))
		for i := range prev.Pieces {
			p := &prev.Pieces[i]
			reuse[[2]int{p.Start, p.End}] = p
		}
	}
	dirtyLo, dirtyHi := cc.dirtyLo, cc.dirtyHi
	for i, p := range pieces {
		sp := SnapPiece{
			Start: p.Start, End: p.End,
			Lower: p.Lower, Upper: p.Upper,
			HasLower: p.HasLower, HasUpper: p.HasUpper,
		}
		overlapsDirty := dirtyHi > dirtyLo && p.Start < dirtyHi && dirtyLo < p.End
		if old, ok := reuse[[2]int{p.Start, p.End}]; ok && !overlapsDirty {
			sp.Pairs = old.Pairs
		} else {
			cp := make(column.Pairs, p.End-p.Start)
			copy(cp, cc.pairs[p.Start:p.End])
			sp.Pairs = cp
		}
		snap.Pieces[i] = sp
	}
	cc.dirtyLo, cc.dirtyHi = 0, 0
	return snap
}

// classify places one piece relative to a non-empty range predicate:
// -1 when no piece value can qualify, +1 when every piece value
// qualifies, 0 when the piece straddles a range bound and must be
// filtered value by value.
func classifyPiece(p *SnapPiece, r column.Range) int {
	if r.HasLow {
		lowB := lowerBoundOf(r)
		// All piece values left of Upper; Upper <= lowB means all are
		// left of the range's lower bound too — nothing qualifies.
		if p.HasUpper && p.Upper.Compare(lowB) <= 0 {
			return -1
		}
	}
	if r.HasHigh {
		highB := upperBoundOf(r)
		// No piece value is left of Lower; highB <= Lower means no
		// value is left of the range's upper bound — nothing qualifies.
		if p.HasLower && highB.Compare(p.Lower) <= 0 {
			return -1
		}
	}
	lowOK := !r.HasLow || (p.HasLower && lowerBoundOf(r).Compare(p.Lower) <= 0)
	highOK := !r.HasHigh || (p.HasUpper && p.Upper.Compare(upperBoundOf(r)) <= 0)
	if lowOK && highOK {
		return 1
	}
	return 0
}

// span returns the pieces [lo, hi) that classifyPiece does not reject
// for the non-empty predicate r, by binary search. Pieces' Upper and
// Lower bounds increase strictly in position order, so the pieces
// wholly left of r's lower bound form a prefix and those wholly right
// of its upper bound a suffix. A read then costs O(log P) plus the
// pieces it actually returns.
func (s *ColSnapshot) span(r column.Range) (lo, hi int) {
	lo, hi = 0, len(s.Pieces)
	if r.HasLow {
		lowB := lowerBoundOf(r)
		lo = sort.Search(hi, func(i int) bool {
			p := &s.Pieces[i]
			return !p.HasUpper || p.Upper.Compare(lowB) > 0
		})
	}
	if r.HasHigh {
		highB := upperBoundOf(r)
		hi = sort.Search(hi, func(i int) bool {
			p := &s.Pieces[i]
			return p.HasLower && highB.Compare(p.Lower) <= 0
		})
	}
	return lo, hi
}

// Count answers the range predicate against the snapshot: the number
// of qualifying tuples, plus whether the read crossed a piece boundary
// the live column has not cracked yet (a crack intent the caller
// should hand to the reorganiser). Work is recorded in c, which is the
// reader's own counter set — snapshot reads never touch the engine's
// deterministic counters.
func (s *ColSnapshot) Count(r column.Range, c *cost.Counters) (count int, needsReorg bool) {
	if r.Empty() {
		return 0, false
	}
	lo, hi := s.span(r)
	for i := lo; i < hi; i++ {
		p := &s.Pieces[i]
		switch classifyPiece(p, r) {
		case 1:
			count += len(p.Pairs)
		case 0:
			needsReorg = true
			for _, pr := range p.Pairs {
				c.ValuesTouched++
				c.Comparisons++
				if r.Contains(pr.Val) {
					count++
				}
			}
		}
	}
	return count, needsReorg
}

// Select answers the range predicate against the snapshot: the row
// identifiers of qualifying tuples in snapshot position order, plus
// the same crack-intent signal as Count. The returned IDList is
// freshly allocated and never aliases snapshot storage.
func (s *ColSnapshot) Select(r column.Range, c *cost.Counters) (rows column.IDList, needsReorg bool) {
	if r.Empty() {
		return nil, false
	}
	lo, hi := s.span(r)
	for i := lo; i < hi; i++ {
		p := &s.Pieces[i]
		switch classifyPiece(p, r) {
		case 1:
			at := len(rows)
			rows = append(rows, make(column.IDList, len(p.Pairs))...)
			MaterializeRows(rows[at:], p.Pairs)
			c.TuplesCopied += uint64(len(p.Pairs))
		case 0:
			needsReorg = true
			for _, pr := range p.Pairs {
				c.ValuesTouched++
				c.Comparisons++
				if r.Contains(pr.Val) {
					rows = append(rows, pr.Row)
					c.TuplesCopied++
				}
			}
		}
	}
	return rows, needsReorg
}
