// Package crackeridx implements the cracker index: the catalog of piece
// boundaries a cracked column has accumulated so far.
//
// Database cracking physically reorganises a copy of the column (the
// cracker column) while answering range selections. Every reorganisation
// step introduces a boundary: a position p and a pivot value v such that
// all values stored before p are smaller than (or at most, for inclusive
// boundaries) v, and all values at or after p are at least (or greater
// than) v. The cracker index stores these boundaries so that future
// queries can narrow their work to the one or two pieces that still
// contain unsorted data for their predicate.
//
// The original prototype in MonetDB keeps the boundaries in an AVL tree.
// This package keeps them flat instead: bound-ordered chunks of at most
// 64 boundaries, each chunk storing its positions relative to a chunk
// base, behind a fence directory — one flat array of every chunk's last
// bound and one of every chunk's boundary count. A lookup binary-searches
// the fences, which is contiguous memory, and then the one chunk it lands
// in: O(log P + chunk) with a single chunk dereference. The rank of a
// boundary is a sum over the flat counts, never a walk over earlier
// chunks. Shifting every boundary behind a ripple is O(chunk + #chunks),
// because later chunks only move their base.
//
// PieceFor returns, besides the piece to crack, a Cursor naming the slot
// the missing bound belongs in; InsertAt records the fresh crack there,
// so establishing a bound costs one search. InsertAt checks the cursor
// against the bounds around its slot and panics on one that a mutation
// in between has made stale, so a stale cursor cannot misplace a bound.
//
// The index also maintains how many distinct positions its boundaries
// occupy, so the piece count is an O(1) read, and it records which chunks
// changed since a consumer last looked, so an immutable copy of the
// catalog can be republished in proportion to what changed (see
// core.ColSnapshot).
package crackeridx

import (
	"fmt"
	"slices"

	"adaptiveindex/internal/column"
)

// Bound identifies a boundary pivot. Inclusive distinguishes the
// boundary "values <= Value are to the left" (true) from
// "values < Value are to the left" (false). For the same Value the
// exclusive boundary orders before the inclusive one, because the
// position of the "< v" split can never exceed the position of the
// "<= v" split.
type Bound struct {
	Value     column.Value
	Inclusive bool
}

// Compare orders bounds as described above: by value, then exclusive
// before inclusive. It returns -1, 0 or +1.
func (b Bound) Compare(other Bound) int {
	switch {
	case b.Value < other.Value:
		return -1
	case b.Value > other.Value:
		return 1
	case b.Inclusive == other.Inclusive:
		return 0
	case !b.Inclusive:
		return -1
	default:
		return 1
	}
}

// IsLeft reports whether value v belongs to the left side of b. Over
// bounds in increasing order it is false and then true, which is what
// FirstLeftOf binary-searches.
func (b Bound) IsLeft(v column.Value) bool {
	if b.Inclusive {
		return v <= b.Value
	}
	return v < b.Value
}

// String renders the bound as "<v" or "<=v".
func (b Bound) String() string {
	if b.Inclusive {
		return fmt.Sprintf("<=%d", b.Value)
	}
	return fmt.Sprintf("<%d", b.Value)
}

// Boundary is a bound together with the array position it splits the
// cracker column at.
type Boundary struct {
	Bound
	Pos int
}

// Piece describes a maximal contiguous region of the cracker column
// whose internal order is still unknown. Lower/Upper carry the bounds
// established by the neighbouring boundaries; HasLower/HasUpper are
// false for the first and last piece respectively.
type Piece struct {
	Start, End         int
	Lower, Upper       Bound
	HasLower, HasUpper bool
}

// defaultChunkCap is the most boundaries a chunk holds. It may not
// exceed 64: a chunk keeps one inclusive bit and one mark bit per
// boundary in a uint64 each.
const defaultChunkCap = 64

// Chunk is one run of consecutive boundaries, in bound order. The piece
// "of" boundary j is the one that starts at it: from Pos(j) to the next
// boundary's position (possibly in the next chunk) or the column end.
// Chunks are owned by their Index; callers only read them.
type Chunk struct {
	base int
	n    int
	// incl has bit j set when bound j is inclusive.
	incl uint64
	// marked has bit j set when something reported (MarkPieceBefore) or
	// caused (an overwrite) a change to the tuples of boundary j's piece
	// since the last ClearChanges.
	marked uint64
	// dirty is set while the chunk is on its index's change list: its
	// bounds changed, or one of its pieces was marked.
	dirty bool
	// vals and rel hold slot j's bound value and its position relative
	// to base, in slots [0, n). They live inside the chunk, so a chunk
	// is one allocation, and the values a lookup binary-searches are one
	// dense array whose address needs nothing loaded from the chunk.
	vals [defaultChunkCap]column.Value
	rel  [defaultChunkCap]int
}

// Len returns the number of boundaries in the chunk.
func (c *Chunk) Len() int { return c.n }

// Bound returns the chunk's j-th bound.
func (c *Chunk) Bound(j int) Bound { return Bound{Value: c.vals[j], Inclusive: c.incl>>uint(j)&1 != 0} }

// Pos returns the absolute position of the chunk's j-th boundary.
func (c *Chunk) Pos(j int) int { return c.base + c.rel[j] }

// Marked reports whether the tuples of boundary j's piece were marked
// as changed since the last ClearChanges.
func (c *Chunk) Marked(j int) bool { return c.marked>>uint(j)&1 != 0 }

// Dirty reports whether the chunk changed since the last ClearChanges.
func (c *Chunk) Dirty() bool { return c.dirty }

func (c *Chunk) last() Bound { return c.Bound(c.n - 1) }

// firstAtLeast returns the first of the chunk's first n slots whose
// value is at least v, or n.
func (c *Chunk) firstAtLeast(n int, v column.Value) int {
	vals := c.vals[:n]
	l, h := 0, len(vals)
	for l < h {
		m := int(uint(l+h) >> 1)
		if vals[m] < v {
			l = m + 1
		} else {
			h = m
		}
	}
	return l
}

// insertAt places a boundary at slot j, keeping the bit sets aligned.
func (c *Chunk) insertAt(j int, b Bound, pos int) {
	copy(c.vals[j+1:c.n+1], c.vals[j:c.n])
	copy(c.rel[j+1:c.n+1], c.rel[j:c.n])
	c.vals[j], c.rel[j] = b.Value, pos-c.base
	c.incl = insertBit(c.incl, j, b.Inclusive)
	c.marked = insertBit(c.marked, j, false)
	c.n++
}

// removeAt drops slot j, keeping the bit sets aligned.
func (c *Chunk) removeAt(j int) {
	copy(c.vals[j:c.n-1], c.vals[j+1:c.n])
	copy(c.rel[j:c.n-1], c.rel[j+1:c.n])
	c.incl, c.marked = removeBit(c.incl, j), removeBit(c.marked, j)
	c.n--
}

// insertBit moves bits j and up of m one place up and sets bit j to
// bit.
func insertBit(m uint64, j int, bit bool) uint64 {
	low := uint64(1)<<uint(j) - 1
	return m&low | (m&^low)<<1 | uint64(b2i(bit))<<uint(j)
}

// removeBit drops bit j of m, moving the bits above it one place down.
func removeBit(m uint64, j int) uint64 {
	low := uint64(1)<<uint(j) - 1
	return m&low | (m>>1)&^low
}

// Index is the cracker index. The zero value is an empty index ready
// for use. Index is not safe for concurrent use.
type Index struct {
	chunks []*Chunk
	// fences[ci] is chunks[ci]'s last bound and counts[ci] its number of
	// boundaries: the directory lookups search and ranks sum without
	// dereferencing a chunk.
	fences []Bound
	counts []int32
	size   int
	// samePos counts the pairs of bound-order neighbours that share a
	// position, so size-samePos is the number of distinct positions
	// and NumPieces never has to walk the boundaries.
	samePos int
	// chunkCap overrides defaultChunkCap when positive (tests use small
	// chunks to exercise splits).
	chunkCap int

	// Change tracking for incremental consumers (see HeadMarked and
	// ClearChanges).
	changed    []*Chunk
	headMarked bool
}

// New returns an empty cracker index.
func New() *Index { return &Index{} }

func (ix *Index) capacity() int {
	if ix.chunkCap > 0 {
		return ix.chunkCap
	}
	return defaultChunkCap
}

// Len returns the number of boundaries recorded.
func (ix *Index) Len() int { return ix.size }

// Chunks returns the chunks in bound order. The slice and the chunks
// belong to the index and must not be modified.
func (ix *Index) Chunks() []*Chunk { return ix.chunks }

// Cursor names a slot in an index's bound order: the slot of the first
// boundary ordering after a bound the index does not hold, or the end.
// PieceFor returns one and InsertAt consumes it.
type Cursor struct{ ci, j int }

// locate returns the cursor (ci, j) of the first boundary ordering at
// or after b — ci == len(Chunks()) when there is none — and whether it
// is b itself. Two binary searches: over the fences, then in one chunk.
func (ix *Index) locate(b Bound) (ci, j int, found bool) {
	fences := ix.fences
	lo, hi := 0, len(fences)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fences[m].Compare(b) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(fences) {
		return lo, 0, false
	}
	// The chunk holds a bound at or after b. Of the bounds with b's
	// value, only an exclusive one can order before b.
	c := ix.chunks[lo]
	l := c.firstAtLeast(int(ix.counts[lo]), b.Value)
	if c.vals[l] == b.Value && c.incl>>uint(l)&1 == 0 && b.Inclusive {
		l++
	}
	return lo, l, c.Bound(l) == b
}

// FirstLeftOf returns the cursor (ci, j) of the first boundary value v
// lies to the left of, and its rank k among all boundaries. When v lies
// right of every boundary, ci == len(Chunks()) and k == Len().
func (ix *Index) FirstLeftOf(v column.Value) (ci, j, k int) {
	fences := ix.fences
	lo, hi := 0, len(fences)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !fences[m].IsLeft(v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(fences) {
		return lo, 0, ix.size
	}
	// v lies right of an exclusive bound on v itself.
	c := ix.chunks[lo]
	l := c.firstAtLeast(int(ix.counts[lo]), v)
	if c.vals[l] == v && c.incl>>uint(l)&1 == 0 {
		l++
	}
	k = l
	for _, n := range ix.counts[:lo] {
		k += int(n)
	}
	return lo, l, k
}

// pred returns the cursor of the boundary before (ci, j), if any. The
// end cursor (len(Chunks()), 0) has the last boundary as predecessor.
func (ix *Index) pred(ci, j int) (int, int, bool) {
	if j > 0 {
		return ci, j - 1, true
	}
	if ci > 0 {
		return ci - 1, ix.chunks[ci-1].n - 1, true
	}
	return 0, 0, false
}

// next returns the cursor of the boundary after (ci, j), if any.
func (ix *Index) next(ci, j int) (int, int, bool) {
	if j+1 < ix.chunks[ci].n {
		return ci, j + 1, true
	}
	if ci+1 < len(ix.chunks) {
		return ci + 1, 0, true
	}
	return 0, 0, false
}

// PosBefore returns the position of the boundary before cursor (ci, j)
// — the start of the piece that ends at (ci, j) — or 0 when there is
// none.
func (ix *Index) PosBefore(ci, j int) int {
	if pc, pj, ok := ix.pred(ci, j); ok {
		return ix.chunks[pc].Pos(pj)
	}
	return 0
}

// sameAt is 1 when the boundary at cursor (ci, j), if it exists,
// sits at pos.
func (ix *Index) sameAt(ci, j int, ok bool, pos int) int {
	if ok && ix.chunks[ci].Pos(j) == pos {
		return 1
	}
	return 0
}

// Lookup returns the position recorded for the exact bound b.
func (ix *Index) Lookup(b Bound) (int, bool) {
	ci, j, found := ix.locate(b)
	if !found {
		return 0, false
	}
	return ix.chunks[ci].Pos(j), true
}

// Insert records that bound b splits the column at position pos. If the
// bound already exists its position is overwritten, which marks the
// pieces on both sides of it as changed. A fresh crack found by PieceFor
// is recorded with InsertAt instead, which does not search again.
func (ix *Index) Insert(b Bound, pos int) {
	ci, j, found := ix.locate(b)
	if found {
		pc, pj, hasPred := ix.pred(ci, j)
		c := ix.chunks[ci]
		nc, nj, hasNext := ix.next(ci, j)
		old := c.Pos(j)
		ix.samePos += ix.sameAt(pc, pj, hasPred, pos) + ix.sameAt(nc, nj, hasNext, pos) -
			ix.sameAt(pc, pj, hasPred, old) - ix.sameAt(nc, nj, hasNext, old)
		c.rel[j] = pos - c.base
		ix.MarkPieceBefore(ci, j)
		ix.markPiece(ci, j)
		return
	}
	ix.insert(ci, j, b, pos)
}

// InsertAt records that bound b, which the index does not hold, splits
// the column at position pos, placing it at cursor at — the one PieceFor
// returned for b — without searching again. It returns the cursor
// following b, at which a bound ordering between b and its successor
// (the upper bound of a crack in three) can be recorded next. The result
// equals Insert(b, pos). InsertAt panics when at is not b's slot, which
// is what any mutation of the index since PieceFor may have made it.
func (ix *Index) InsertAt(at Cursor, b Bound, pos int) Cursor {
	if !ix.fits(at, b) {
		panic(fmt.Sprintf("crackeridx: stale cursor %v for bound %s", at, b))
	}
	return ix.insert(at.ci, at.j, b, pos)
}

// fits reports whether at is the slot of a bound b the index does not
// hold: a real slot or the end, with only smaller bounds before it and
// only larger ones from it on.
func (ix *Index) fits(at Cursor, b Bound) bool {
	switch {
	case at.ci < 0 || at.ci > len(ix.chunks) || at.j < 0:
		return false
	case at.ci == len(ix.chunks):
		if at.j != 0 {
			return false
		}
	case at.j >= ix.chunks[at.ci].n || ix.chunks[at.ci].Bound(at.j).Compare(b) <= 0:
		return false
	}
	pc, pj, hasPred := ix.pred(at.ci, at.j)
	return !hasPred || ix.chunks[pc].Bound(pj).Compare(b) < 0
}

// insert places the new bound b at cursor (ci, j), splitting a full
// chunk, and returns the cursor following it.
func (ix *Index) insert(ci, j int, b Bound, pos int) Cursor {
	pc, pj, hasPred := ix.pred(ci, j)
	hasSucc := ci < len(ix.chunks)
	ix.samePos += ix.sameAt(pc, pj, hasPred, pos) + ix.sameAt(ci, j, hasSucc, pos)
	if hasPred && hasSucc {
		ix.samePos -= ix.sameAt(ci, j, true, ix.chunks[pc].Pos(pj))
	}
	ix.size++
	capacity := ix.capacity()
	switch {
	case len(ix.chunks) == 0:
		ix.insertChunk(0, &Chunk{base: pos})
	case !hasSucc:
		ci, j = len(ix.chunks)-1, ix.chunks[len(ix.chunks)-1].n
	}
	if c := ix.chunks[ci]; c.n == capacity {
		if ci == len(ix.chunks)-1 && j == c.n {
			// Appending past the last boundary (a restore replaying
			// bounds in order does this): start a fresh chunk and leave
			// the full one full.
			ix.insertChunk(ci+1, &Chunk{base: pos})
			ci, j = ci+1, 0
		} else {
			half := c.n / 2
			ix.insertChunk(ci+1, ix.splitOff(c, half))
			ix.syncFence(ci)
			ix.touch(c)
			if j > half {
				ci, j = ci+1, j-half
			}
		}
	}
	c := ix.chunks[ci]
	c.insertAt(j, b, pos)
	ix.syncFence(ci)
	ix.touch(c)
	// The piece before b now ends at b: its bounds changed.
	ix.MarkPieceBefore(ci, j)
	if j+1 < c.n {
		return Cursor{ci, j + 1}
	}
	return Cursor{ci + 1, 0}
}

// splitOff moves c's boundaries from slot half onwards into a new chunk.
func (ix *Index) splitOff(c *Chunk, half int) *Chunk {
	nc := &Chunk{base: c.base}
	nc.n = copy(nc.vals[:], c.vals[half:c.n])
	copy(nc.rel[:], c.rel[half:c.n])
	low := uint64(1)<<uint(half) - 1
	nc.incl, nc.marked = c.incl>>uint(half), c.marked>>uint(half)
	c.n, c.incl, c.marked = half, c.incl&low, c.marked&low
	ix.touch(nc)
	return nc
}

// insertChunk places c at chunk slot at, with its directory entries.
func (ix *Index) insertChunk(at int, c *Chunk) {
	ix.chunks = slices.Insert(ix.chunks, at, c)
	ix.fences = slices.Insert(ix.fences, at, Bound{})
	ix.counts = slices.Insert(ix.counts, at, 0)
	if c.n > 0 {
		ix.syncFence(at)
	}
}

// syncFence refreshes the directory entries of the non-empty chunk ci.
func (ix *Index) syncFence(ci int) {
	c := ix.chunks[ci]
	ix.fences[ci], ix.counts[ci] = c.last(), int32(c.n)
}

// touch puts c on the change list.
func (ix *Index) touch(c *Chunk) {
	if !c.dirty {
		c.dirty = true
		ix.changed = append(ix.changed, c)
	}
}

// markPiece marks the piece of boundary (ci, j).
func (ix *Index) markPiece(ci, j int) {
	c := ix.chunks[ci]
	c.marked |= 1 << uint(j)
	ix.touch(c)
}

// MarkPieceBefore marks the piece that ends at boundary (ci, j) — the
// piece of its predecessor, or the piece before the first boundary — as
// having changed tuples. The end cursor (len(Chunks()), 0) marks the
// last piece. Ripples and merges call it for every piece that gains or
// loses a tuple; pieces whose tuples were only rotated need no mark.
func (ix *Index) MarkPieceBefore(ci, j int) {
	if pc, pj, ok := ix.pred(ci, j); ok {
		ix.markPiece(pc, pj)
	} else {
		ix.headMarked = true
	}
}

// Delete removes the boundary for bound b if present and reports
// whether it was removed. It is used by update policies that merge
// pieces back together.
func (ix *Index) Delete(b Bound) bool {
	ci, j, found := ix.locate(b)
	if !found {
		return false
	}
	c := ix.chunks[ci]
	pos := c.Pos(j)
	pc, pj, hasPred := ix.pred(ci, j)
	nc, nj, hasNext := ix.next(ci, j)
	ix.samePos -= ix.sameAt(pc, pj, hasPred, pos) + ix.sameAt(nc, nj, hasNext, pos)
	if hasPred && hasNext {
		ix.samePos += ix.sameAt(nc, nj, true, ix.chunks[pc].Pos(pj))
	}
	ix.MarkPieceBefore(ci, j)
	c.removeAt(j)
	ix.touch(c)
	if c.n == 0 {
		ix.chunks = slices.Delete(ix.chunks, ci, ci+1)
		ix.fences = slices.Delete(ix.fences, ci, ci+1)
		ix.counts = slices.Delete(ix.counts, ci, ci+1)
	} else {
		ix.syncFence(ci)
	}
	ix.size--
	return true
}

// PieceFor returns the contiguous region of the column (given its total
// length n) that must be inspected to establish bound b. If the bound is
// already recorded, exact is true and the piece is the empty region at
// b's position: the caller does not need to reorganise anything.
// Otherwise [Start, End) delimits the piece that has to be cracked,
// Lower/Upper describe the boundaries that enclose it (if any), and at
// is the slot where InsertAt records the crack. Two bounds missing from
// the same piece get the same cursor.
func (ix *Index) PieceFor(b Bound, n int) (piece Piece, at Cursor, exact bool) {
	ci, j, found := ix.locate(b)
	if found {
		pos := ix.chunks[ci].Pos(j)
		return Piece{Start: pos, End: pos}, Cursor{ci, j}, true
	}
	piece = Piece{Start: 0, End: n}
	if ci < len(ix.chunks) {
		c := ix.chunks[ci]
		piece.End, piece.Upper, piece.HasUpper = c.Pos(j), c.Bound(j), true
	}
	if pc, pj, ok := ix.pred(ci, j); ok {
		c := ix.chunks[pc]
		piece.Start, piece.Lower, piece.HasLower = c.Pos(pj), c.Bound(pj), true
	}
	return piece, Cursor{ci, j}, false
}

// Boundaries returns all boundaries in increasing bound order.
func (ix *Index) Boundaries() []Boundary {
	out := make([]Boundary, 0, ix.size)
	for _, c := range ix.chunks {
		for j := range c.n {
			out = append(out, Boundary{Bound: c.Bound(j), Pos: c.Pos(j)})
		}
	}
	return out
}

// Pieces returns the pieces the column of length n is currently divided
// into, in storage order. Zero-length pieces (two boundaries at the
// same position) are skipped.
func (ix *Index) Pieces(n int) []Piece {
	pieces := make([]Piece, 0, ix.size+1)
	start := 0
	var lower Bound
	hasLower := false
	for _, c := range ix.chunks {
		for j := range c.n {
			b, pos := c.Bound(j), c.Pos(j)
			if pos > start {
				pieces = append(pieces, Piece{
					Start: start, End: pos,
					Lower: lower, HasLower: hasLower,
					Upper: b, HasUpper: true,
				})
			}
			start, lower, hasLower = pos, b, true
		}
	}
	if start < n || len(pieces) == 0 {
		pieces = append(pieces, Piece{
			Start: start, End: n,
			Lower: lower, HasLower: hasLower,
		})
	}
	return pieces
}

// NumPieces returns len(Pieces(n)) in O(1) without materialising the
// pieces: one piece between each pair of consecutive distinct boundary
// positions, plus one before the first position unless it is 0 and one
// after the last unless it is n, and never fewer than one.
func (ix *Index) NumPieces(n int) int {
	if ix.size == 0 {
		return 1
	}
	pieces := ix.size - ix.samePos - 1
	if ix.chunks[0].Pos(0) != 0 {
		pieces++
	}
	last := ix.chunks[len(ix.chunks)-1]
	if last.Pos(last.n-1) != n {
		pieces++
	}
	return max(pieces, 1)
}

// ShiftFrom adds delta to the position of the boundary at cursor
// (ci, j) and of every boundary after it: O(chunk) inside chunk ci and
// one base update per later chunk. Only the equality between the
// cursor's boundary and its predecessor can change, so the maintained
// piece count is updated from that one pair.
func (ix *Index) ShiftFrom(ci, j, delta int) {
	if ci >= len(ix.chunks) || delta == 0 {
		return
	}
	c := ix.chunks[ci]
	if pc, pj, ok := ix.pred(ci, j); ok {
		pp, p := ix.chunks[pc].Pos(pj), c.Pos(j)
		ix.samePos += b2i(pp == p+delta) - b2i(pp == p)
	}
	if j == 0 {
		c.base += delta
	} else {
		for y := j; y < c.n; y++ {
			c.rel[y] += delta
		}
	}
	for _, later := range ix.chunks[ci+1:] {
		later.base += delta
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Remap replaces the position of every boundary with move(i, pos),
// where i is the boundary's rank in bound order, and recounts the
// maintained piece count in the same pass. It is O(P): batched merges
// and CollapseRange use it. Remap marks nothing; callers mark the pieces
// whose tuples changed.
func (ix *Index) Remap(move func(i, pos int) int) {
	ix.samePos = 0
	i, prev, hasPrev := 0, 0, false
	for _, c := range ix.chunks {
		for j := range c.n {
			pos := move(i, c.Pos(j))
			c.rel[j] = pos - c.base
			if hasPrev && prev == pos {
				ix.samePos++
			}
			i, prev, hasPrev = i+1, pos, true
		}
	}
}

// CollapseRange records the physical removal of the tuples stored in
// positions [start, end): boundaries inside the removed region collapse
// onto start and boundaries beyond it shift left by the removed width.
// Hybrid adaptive indexes use it when they migrate a cracked piece out
// of an initial partition into the final partition. Every piece is
// marked changed.
func (ix *Index) CollapseRange(start, end int) {
	if end <= start {
		return
	}
	width := end - start
	ix.Remap(func(_, pos int) int {
		switch {
		case pos > end:
			return pos - width
		case pos > start:
			return start
		}
		return pos
	})
	for _, c := range ix.chunks {
		c.marked = ^uint64(0) >> uint(64-c.n)
		ix.touch(c)
	}
	ix.headMarked = true
}

// Clone returns an independent copy of the index: the same boundaries
// at the same positions, with change tracking starting clean.
func (ix *Index) Clone() *Index {
	out := &Index{chunks: make([]*Chunk, len(ix.chunks)), fences: slices.Clone(ix.fences), counts: slices.Clone(ix.counts),
		size: ix.size, samePos: ix.samePos, chunkCap: ix.chunkCap}
	for i, c := range ix.chunks {
		out.chunks[i] = &Chunk{base: c.base, n: c.n, incl: c.incl, vals: c.vals, rel: c.rel}
	}
	return out
}

// Clear removes all boundaries.
func (ix *Index) Clear() {
	for _, c := range ix.changed {
		c.dirty = false
	}
	*ix = Index{chunkCap: ix.chunkCap, headMarked: true}
}

// HeadMarked reports whether the piece before the first boundary was
// marked since the last ClearChanges. The other pieces' marks are on
// their chunks (Chunk.Marked), and a chunk that changed is Dirty.
func (ix *Index) HeadMarked() bool { return ix.headMarked }

// ClearChanges forgets the recorded changes: O(changed chunks).
func (ix *Index) ClearChanges() {
	for _, c := range ix.changed {
		c.dirty = false
		c.marked = 0
	}
	ix.changed = ix.changed[:0]
	ix.headMarked = false
}

// checkChunks validates the chunk structure alone: no chunk empty or
// over capacity, mark bits only on existing slots, bounds strictly
// increasing across the whole index, the fence directory agreeing with
// the chunks, and the maintained size.
func (ix *Index) checkChunks() error {
	if len(ix.fences) != len(ix.chunks) || len(ix.counts) != len(ix.chunks) {
		return fmt.Errorf("directory holds %d fences and %d counts for %d chunks", len(ix.fences), len(ix.counts), len(ix.chunks))
	}
	size := 0
	var prev Bound
	for ci, c := range ix.chunks {
		if c.n <= 0 || c.n > ix.capacity() {
			return fmt.Errorf("chunk %d holds %d bounds (capacity %d)", ci, c.n, ix.capacity())
		}
		if ix.fences[ci] != c.last() || int(ix.counts[ci]) != c.n {
			return fmt.Errorf("chunk %d has fence %s and count %d, holds %d bounds up to %s", ci, ix.fences[ci], ix.counts[ci], c.n, c.last())
		}
		if (c.marked|c.incl)>>uint(c.n) != 0 {
			return fmt.Errorf("chunk %d has mark or inclusive bits beyond its %d bounds", ci, c.n)
		}
		for j := range c.n {
			b := c.Bound(j)
			if size > 0 && prev.Compare(b) >= 0 {
				return fmt.Errorf("boundaries out of order: %s then %s (chunk %d slot %d)", prev, b, ci, j)
			}
			prev = b
			size++
		}
	}
	if size != ix.size {
		return fmt.Errorf("index records %d boundaries, chunks hold %d", ix.size, size)
	}
	return nil
}

// Validate checks the structural invariants of the index against a
// column of length n: the chunk structure (see checkChunks), absolute
// positions within [0, n] and non-decreasing in bound order, and a
// maintained piece count equal to len(Pieces(n)). It returns an error
// describing the first violation. Tests and the crackview tool use it.
func (ix *Index) Validate(n int) error {
	if err := ix.checkChunks(); err != nil {
		return err
	}
	prevPos := 0
	for _, c := range ix.chunks {
		for j := range c.n {
			b, pos := c.Bound(j), c.Pos(j)
			if pos < 0 || pos > n {
				return fmt.Errorf("boundary %s has position %d outside [0,%d]", b, pos, n)
			}
			if pos < prevPos {
				return fmt.Errorf("boundary %s at position %d precedes previous boundary position %d", b, pos, prevPos)
			}
			prevPos = pos
		}
	}
	if got, want := ix.NumPieces(n), len(ix.Pieces(n)); got != want {
		return fmt.Errorf("maintained piece count %d, want %d", got, want)
	}
	return nil
}
