// Immutable piece-catalog snapshots of a cracker column.
//
// Epoch-pinned reads (internal/engine's epoch manager) need a view of
// a cracked column that never moves underneath a reader: the live
// CrackerColumn reorganises itself on every query, so concurrent
// readers must instead pin a ColSnapshot — a copy of the column's
// pieces taken between reorganisations. A snapshot mirrors the cracker
// index's chunks: one immutable piece array per index chunk, shared by
// pointer with the previous snapshot while the chunk is unchanged, and
// inside a changed chunk each piece's copied tuples are reused while
// its bounds are unchanged and nothing marked its tuples changed. A
// ripple or a batched merge only rotates the pieces it passes through
// and marks the piece that gained or lost a row; a crack always adds a
// new bound. So republishing costs what changed, not the column size.

package core

import (
	"sort"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
)

// SnapPiece is one non-empty piece of a column snapshot: an immutable
// copy of the piece's (value, rowid) pairs plus its bounding pivots
// from the cracker index. The copy never aliases the live column; its
// order is the column's order when it was copied, which later ripples
// may have rotated since. It must not be mutated once published.
type SnapPiece struct {
	Pairs    column.Pairs
	Lower    crackeridx.Bound
	Upper    crackeridx.Bound
	HasLower bool
	HasUpper bool
}

// snapChunk holds the non-empty pieces of one cracker-index chunk (src)
// in position order; the snapshot's first snapChunk holds the piece
// before the first boundary and has no src.
type snapChunk struct {
	src    *crackeridx.Chunk
	pieces []SnapPiece
}

// ColSnapshot is an immutable piece-catalog view of a cracker column.
// Any number of goroutines may Select/Count against it concurrently;
// it is never mutated after Snapshot returns it.
type ColSnapshot struct {
	chunks []*snapChunk
	// first[i] is the number of pieces in chunks[:i]; its last entry is
	// the snapshot's piece count.
	first []int
	// Len is the column length at snapshot time.
	Len int
	// Version is the column's reorganisation version at snapshot time.
	Version uint64
}

// NumPieces returns the number of pieces in the snapshot.
func (s *ColSnapshot) NumPieces() int { return s.first[len(s.chunks)] }

// chunkOf returns the index of the chunk holding piece g.
func (s *ColSnapshot) chunkOf(g int) int {
	return sort.Search(len(s.chunks), func(i int) bool { return s.first[i+1] > g })
}

// piece returns the snapshot's g-th piece in position order.
func (s *ColSnapshot) piece(g int) *SnapPiece {
	ci := s.chunkOf(g)
	return &s.chunks[ci].pieces[g-s.first[ci]]
}

// Pieces returns the snapshot's pieces in position order, for tests and
// inspection; the slice is fresh but the pairs are the snapshot's own.
func (s *ColSnapshot) Pieces() []SnapPiece {
	out := make([]SnapPiece, 0, s.NumPieces())
	for _, sc := range s.chunks {
		out = append(out, sc.pieces...)
	}
	return out
}

// seek returns the cursor (chunk, piece) of the first piece whose lower
// bound orders at or after b — (len(chunks), 0) when there is none: a
// binary search for the chunk whose pieces reach b, then one inside it.
func (s *ColSnapshot) seek(b crackeridx.Bound) (ci, k int) {
	ci = sort.Search(len(s.chunks), func(i int) bool {
		// The last piece of chunks[:i+1], skipping empty chunks.
		for len(s.chunks[i].pieces) == 0 {
			if i == 0 {
				return false
			}
			i--
		}
		p := &s.chunks[i].pieces[len(s.chunks[i].pieces)-1]
		return p.HasLower && p.Lower.Compare(b) >= 0
	})
	if ci == len(s.chunks) {
		return ci, 0
	}
	pieces := s.chunks[ci].pieces
	return ci, sort.Search(len(pieces), func(k int) bool {
		return pieces[k].HasLower && pieces[k].Lower.Compare(b) >= 0
	})
}

// Snapshot captures the column's current piece catalog. prev, when
// non-nil, must be the snapshot returned by the most recent Snapshot
// call on this column: chunks of the cracker index that did not change
// since then share prev's piece arrays, and pieces of changed chunks
// reuse prev's copies unless their bounds changed or they were marked.
// The cracker index's change record is consumed. Snapshot deliberately
// charges nothing to the cost counters — publication is bookkeeping,
// not query work — so taking snapshots never perturbs the deterministic
// counter stream.
func (cc *CrackerColumn) Snapshot(prev *ColSnapshot) *ColSnapshot {
	ix := cc.index
	chunks := ix.Chunks()
	snap := &ColSnapshot{chunks: make([]*snapChunk, 1+len(chunks)), Len: len(cc.pairs), Version: cc.version}
	if prev != nil && !ix.HeadMarked() {
		snap.chunks[0] = prev.chunks[0]
	} else {
		snap.chunks[0] = cc.snapHead()
	}
	// Match unchanged chunks to prev's by identity: both lists are in
	// bound order, and chunks are only ever split, removed or cleared, so
	// one forward walk finds them all.
	at := 1
	for ci, c := range chunks {
		if prev != nil && !c.Dirty() {
			for at < len(prev.chunks) && prev.chunks[at].src != c {
				at++
			}
			if at < len(prev.chunks) {
				snap.chunks[1+ci] = prev.chunks[at]
				continue
			}
		}
		snap.chunks[1+ci] = cc.snapChunk(ci, prev)
	}
	snap.first = make([]int, len(snap.chunks)+1)
	for i, sc := range snap.chunks {
		snap.first[i+1] = snap.first[i] + len(sc.pieces)
	}
	ix.ClearChanges()
	return snap
}

// snapHead copies the piece before the first boundary, if it is
// non-empty.
func (cc *CrackerColumn) snapHead() *snapChunk {
	sp, end := SnapPiece{}, len(cc.pairs)
	if chunks := cc.index.Chunks(); len(chunks) > 0 {
		sp.Upper, sp.HasUpper, end = chunks[0].Bound(0), true, chunks[0].Pos(0)
	}
	if end == 0 {
		return &snapChunk{}
	}
	sp.Pairs = append(column.Pairs(nil), cc.pairs[:end]...)
	return &snapChunk{pieces: []SnapPiece{sp}}
}

// snapChunk builds the piece array of index chunk ci, reusing the copy
// prev holds for a piece with the same bounds unless the piece is
// marked. prev's pieces are walked forward from one seek to the chunk's
// first bound, so matching costs one search per chunk.
func (cc *CrackerColumn) snapChunk(ci int, prev *ColSnapshot) *snapChunk {
	chunks := cc.index.Chunks()
	c := chunks[ci]
	sc := &snapChunk{src: c, pieces: make([]SnapPiece, 0, c.Len())}
	var pc, pk int
	if prev != nil {
		pc, pk = prev.seek(c.Bound(0))
	}
	for j := 0; j < c.Len(); j++ {
		sp := SnapPiece{Lower: c.Bound(j), HasLower: true}
		start, end := c.Pos(j), len(cc.pairs)
		switch {
		case j+1 < c.Len():
			sp.Upper, sp.HasUpper, end = c.Bound(j+1), true, c.Pos(j+1)
		case ci+1 < len(chunks):
			sp.Upper, sp.HasUpper, end = chunks[ci+1].Bound(0), true, chunks[ci+1].Pos(0)
		}
		if end <= start {
			continue
		}
		var was *SnapPiece
		for prev != nil && !c.Marked(j) && pc < len(prev.chunks) {
			if pk == len(prev.chunks[pc].pieces) {
				pc, pk = pc+1, 0
				continue
			}
			if p := &prev.chunks[pc].pieces[pk]; p.Lower.Compare(sp.Lower) >= 0 {
				if p.Lower == sp.Lower {
					was = p
				}
				break
			}
			pk++
		}
		if was != nil && was.HasUpper == sp.HasUpper && was.Upper == sp.Upper && len(was.Pairs) == end-start {
			sp.Pairs = was.Pairs
		} else {
			sp.Pairs = append(column.Pairs(nil), cc.pairs[start:end]...)
		}
		sc.pieces = append(sc.pieces, sp)
	}
	return sc
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
// of its upper bound a suffix. A read then costs O(log² P) plus the
// pieces it actually returns.
func (s *ColSnapshot) span(r column.Range) (lo, hi int) {
	lo, hi = 0, s.NumPieces()
	if r.HasLow {
		lowB := lowerBoundOf(r)
		lo = sort.Search(hi, func(g int) bool {
			p := s.piece(g)
			return !p.HasUpper || p.Upper.Compare(lowB) > 0
		})
	}
	if r.HasHigh {
		highB := upperBoundOf(r)
		hi = sort.Search(hi, func(g int) bool {
			p := s.piece(g)
			return p.HasLower && highB.Compare(p.Lower) <= 0
		})
	}
	return lo, hi
}

// each calls fn on the pieces [lo, hi) in position order.
func (s *ColSnapshot) each(lo, hi int, fn func(p *SnapPiece)) {
	if lo >= hi {
		return
	}
	for ci, g := s.chunkOf(lo), lo; g < hi; ci++ {
		pieces := s.chunks[ci].pieces
		for k := g - s.first[ci]; k < len(pieces) && g < hi; k, g = k+1, g+1 {
			fn(&pieces[k])
		}
	}
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
	s.each(lo, hi, func(p *SnapPiece) {
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
	})
	return count, needsReorg
}

// Select answers the range predicate against the snapshot: the row
// identifiers of qualifying tuples, piece by piece in position order
// and within a piece in the order of the snapshot's copy, plus the same
// crack-intent signal as Count. The returned IDList is freshly
// allocated and never aliases snapshot storage.
func (s *ColSnapshot) Select(r column.Range, c *cost.Counters) (rows column.IDList, needsReorg bool) {
	if r.Empty() {
		return nil, false
	}
	lo, hi := s.span(r)
	s.each(lo, hi, func(p *SnapPiece) {
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
	})
	return rows, needsReorg
}
