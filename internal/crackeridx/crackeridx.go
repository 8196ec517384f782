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
// base. A lookup is two binary searches, O(log P + chunk); shifting every
// boundary behind a ripple is O(chunk + #chunks), because later chunks
// only move their base. The index also maintains how many distinct
// positions its boundaries occupy, so the piece count is an O(1) read,
// and it records which chunks changed since a consumer last looked, so
// an immutable copy of the catalog can be republished in proportion to
// what changed (see core.ColSnapshot).
package crackeridx

import (
	"fmt"

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
// exceed 64: a chunk keeps one mark bit per boundary in a uint64.
const defaultChunkCap = 64

// Chunk is one run of consecutive boundaries, in bound order. The piece
// "of" boundary j is the one that starts at it: from Pos(j) to the next
// boundary's position (possibly in the next chunk) or the column end.
// Chunks are owned by their Index; callers only read them.
type Chunk struct {
	base   int
	bounds []Bound
	rel    []int
	// marked has bit j set when something reported (MarkPieceBefore) or
	// caused (an overwrite) a change to the tuples of boundary j's piece
	// since the last ClearChanges.
	marked uint64
	// dirty is set while the chunk is on its index's change list: its
	// bounds changed, or one of its pieces was marked.
	dirty bool
}

// Len returns the number of boundaries in the chunk.
func (c *Chunk) Len() int { return len(c.bounds) }

// Bound returns the chunk's j-th bound.
func (c *Chunk) Bound(j int) Bound { return c.bounds[j] }

// Pos returns the absolute position of the chunk's j-th boundary.
func (c *Chunk) Pos(j int) int { return c.base + c.rel[j] }

// Marked reports whether the tuples of boundary j's piece were marked
// as changed since the last ClearChanges.
func (c *Chunk) Marked(j int) bool { return c.marked>>uint(j)&1 != 0 }

// Dirty reports whether the chunk changed since the last ClearChanges.
func (c *Chunk) Dirty() bool { return c.dirty }

func (c *Chunk) last() Bound { return c.bounds[len(c.bounds)-1] }

// insertAt places a boundary at slot j, keeping the mark bits aligned.
func (c *Chunk) insertAt(j int, b Bound, pos int) {
	c.bounds = append(c.bounds, Bound{})
	copy(c.bounds[j+1:], c.bounds[j:])
	c.bounds[j] = b
	c.rel = append(c.rel, 0)
	copy(c.rel[j+1:], c.rel[j:])
	c.rel[j] = pos - c.base
	low := uint64(1)<<uint(j) - 1
	c.marked = c.marked&low | (c.marked&^low)<<1
}

// removeAt drops slot j, keeping the mark bits aligned.
func (c *Chunk) removeAt(j int) {
	c.bounds = append(c.bounds[:j], c.bounds[j+1:]...)
	c.rel = append(c.rel[:j], c.rel[j+1:]...)
	low := uint64(1)<<uint(j) - 1
	c.marked = c.marked&low | (c.marked>>1)&^low
}

// Index is the cracker index. The zero value is an empty index ready
// for use. Index is not safe for concurrent use.
type Index struct {
	chunks []*Chunk
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

// locate returns the cursor (ci, j) of the first boundary ordering at
// or after b — ci == len(Chunks()) when there is none — and whether it
// is b itself. Two binary searches: over chunk maxima, then in a chunk.
func (ix *Index) locate(b Bound) (ci, j int, found bool) {
	lo, hi := 0, len(ix.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.chunks[m].last().Compare(b) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(ix.chunks) {
		return lo, 0, false
	}
	c := ix.chunks[lo]
	l, h := 0, len(c.bounds)
	for l < h {
		m := int(uint(l+h) >> 1)
		if c.bounds[m].Compare(b) < 0 {
			l = m + 1
		} else {
			h = m
		}
	}
	return lo, l, c.bounds[l].Compare(b) == 0
}

// FirstLeftOf returns the cursor (ci, j) of the first boundary value v
// lies to the left of, and its rank k among all boundaries. When v lies
// right of every boundary, ci == len(Chunks()) and k == Len().
func (ix *Index) FirstLeftOf(v column.Value) (ci, j, k int) {
	lo, hi := 0, len(ix.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if !ix.chunks[m].last().IsLeft(v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(ix.chunks) {
		return lo, 0, ix.size
	}
	c := ix.chunks[lo]
	l, h := 0, len(c.bounds)
	for l < h {
		m := int(uint(l+h) >> 1)
		if !c.bounds[m].IsLeft(v) {
			l = m + 1
		} else {
			h = m
		}
	}
	k = l
	for _, p := range ix.chunks[:lo] {
		k += len(p.bounds)
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
		return ci - 1, len(ix.chunks[ci-1].bounds) - 1, true
	}
	return 0, 0, false
}

// next returns the cursor of the boundary after (ci, j), if any.
func (ix *Index) next(ci, j int) (int, int, bool) {
	if j+1 < len(ix.chunks[ci].bounds) {
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
// pieces on both sides of it as changed.
func (ix *Index) Insert(b Bound, pos int) {
	ci, j, found := ix.locate(b)
	pc, pj, hasPred := ix.pred(ci, j)
	if found {
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
	hasSucc := ci < len(ix.chunks)
	ix.samePos += ix.sameAt(pc, pj, hasPred, pos) + ix.sameAt(ci, j, hasSucc, pos)
	if hasPred && hasSucc {
		ix.samePos -= ix.sameAt(ci, j, true, ix.chunks[pc].Pos(pj))
	}
	ix.size++
	capacity := ix.capacity()
	switch {
	case len(ix.chunks) == 0:
		ix.chunks = append(ix.chunks, ix.newChunk(pos))
	case !hasSucc:
		ci, j = len(ix.chunks)-1, len(ix.chunks[len(ix.chunks)-1].bounds)
	}
	if c := ix.chunks[ci]; len(c.bounds) == capacity {
		if ci == len(ix.chunks)-1 && j == len(c.bounds) {
			// Appending past the last boundary (a restore replaying
			// bounds in order does this): start a fresh chunk and leave
			// the full one full.
			ix.insertChunk(ci+1, ix.newChunk(pos))
			ci, j = ci+1, 0
		} else {
			half := len(c.bounds) / 2
			ix.insertChunk(ci+1, ix.splitOff(c, half))
			ix.touch(c)
			if j > half {
				ci, j = ci+1, j-half
			}
		}
	}
	ix.chunks[ci].insertAt(j, b, pos)
	ix.touch(ix.chunks[ci])
	// The piece before b now ends at b: its bounds changed.
	ix.MarkPieceBefore(ci, j)
}

func (ix *Index) newChunk(base int) *Chunk {
	capacity := ix.capacity()
	return &Chunk{base: base, bounds: make([]Bound, 0, capacity), rel: make([]int, 0, capacity)}
}

// splitOff moves c's boundaries from slot half onwards into a new chunk.
func (ix *Index) splitOff(c *Chunk, half int) *Chunk {
	nc := ix.newChunk(c.base)
	nc.bounds = append(nc.bounds, c.bounds[half:]...)
	nc.rel = append(nc.rel, c.rel[half:]...)
	nc.marked = c.marked >> uint(half)
	c.bounds, c.rel = c.bounds[:half], c.rel[:half]
	c.marked &= uint64(1)<<uint(half) - 1
	ix.touch(nc)
	return nc
}

func (ix *Index) insertChunk(at int, c *Chunk) {
	ix.chunks = append(ix.chunks, nil)
	copy(ix.chunks[at+1:], ix.chunks[at:])
	ix.chunks[at] = c
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
	if len(c.bounds) == 0 {
		ix.chunks = append(ix.chunks[:ci], ix.chunks[ci+1:]...)
	}
	ix.size--
	return true
}

// PieceFor returns the contiguous region of the column (given its total
// length n) that must be inspected to establish bound b. If the bound is
// already recorded, exact is true and exactPos holds its position; the
// caller does not need to reorganise anything. Otherwise [start, end)
// delimits the piece that has to be cracked, and lower/upper describe
// the boundaries that enclose it (if any).
func (ix *Index) PieceFor(b Bound, n int) (piece Piece, exactPos int, exact bool) {
	ci, j, found := ix.locate(b)
	if found {
		return Piece{Start: 0, End: n}, ix.chunks[ci].Pos(j), true
	}
	piece = Piece{Start: 0, End: n}
	if ci < len(ix.chunks) {
		c := ix.chunks[ci]
		piece.End, piece.Upper, piece.HasUpper = c.Pos(j), c.bounds[j], true
	}
	if pc, pj, ok := ix.pred(ci, j); ok {
		c := ix.chunks[pc]
		piece.Start, piece.Lower, piece.HasLower = c.Pos(pj), c.bounds[pj], true
	}
	return piece, 0, false
}

// Boundaries returns all boundaries in increasing bound order.
func (ix *Index) Boundaries() []Boundary {
	out := make([]Boundary, 0, ix.size)
	for _, c := range ix.chunks {
		for j, b := range c.bounds {
			out = append(out, Boundary{Bound: b, Pos: c.Pos(j)})
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
		for j, b := range c.bounds {
			pos := c.Pos(j)
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
	if last.Pos(len(last.bounds)-1) != n {
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
		for y := j; y < len(c.rel); y++ {
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
		for j := range c.rel {
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
		c.marked = ^uint64(0) >> uint(64-len(c.bounds))
		ix.touch(c)
	}
	ix.headMarked = true
}

// Clone returns an independent copy of the index: the same boundaries
// at the same positions, with change tracking starting clean.
func (ix *Index) Clone() *Index {
	out := &Index{chunks: make([]*Chunk, len(ix.chunks)), size: ix.size, samePos: ix.samePos, chunkCap: ix.chunkCap}
	for i, c := range ix.chunks {
		out.chunks[i] = &Chunk{
			base:   c.base,
			bounds: append(make([]Bound, 0, cap(c.bounds)), c.bounds...),
			rel:    append(make([]int, 0, cap(c.rel)), c.rel...),
		}
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
// increasing across the whole index, and the maintained size.
func (ix *Index) checkChunks() error {
	size := 0
	var prev Bound
	for ci, c := range ix.chunks {
		if len(c.bounds) == 0 || len(c.bounds) > ix.capacity() || len(c.rel) != len(c.bounds) {
			return fmt.Errorf("chunk %d holds %d bounds and %d positions (capacity %d)", ci, len(c.bounds), len(c.rel), ix.capacity())
		}
		if c.marked>>uint(len(c.bounds)) != 0 {
			return fmt.Errorf("chunk %d has mark bits beyond its %d bounds", ci, len(c.bounds))
		}
		for j, b := range c.bounds {
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
		for j, b := range c.bounds {
			pos := c.Pos(j)
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
