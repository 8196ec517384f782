// Package crackeridx implements the cracker index: a balanced binary
// search tree that records the piece boundaries a cracked column has
// accumulated so far.
//
// Database cracking physically reorganises a copy of the column (the
// cracker column) while answering range selections. Every reorganisation
// step introduces a boundary: a position p and a pivot value v such that
// all values stored before p are smaller than (or at most, for inclusive
// boundaries) v, and all values at or after p are at least (or greater
// than) v. The cracker index stores these boundaries so that future
// queries can narrow their work to the one or two pieces that still
// contain unsorted data for their predicate. The original prototype in
// MonetDB uses an AVL tree; this package does the same. The index also
// maintains how many distinct positions its boundaries occupy, so the
// piece count is an O(log P) read rather than a walk over every piece.
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

type node struct {
	bound       Bound
	pos         int
	left, right *node
	height      int
}

// Index is the cracker index. The zero value is an empty index ready
// for use. Index is not safe for concurrent use.
type Index struct {
	root *node
	size int
	// samePos counts the pairs of bound-order neighbours that share a
	// position, so size-samePos is the number of distinct positions
	// and NumPieces never has to walk the tree.
	samePos int
}

// neighbours are the in-order predecessor and successor of the bound a
// descent is heading for; either is nil at the edge of the index.
type neighbours struct{ pred, succ *node }

// pass records that a descent for a bound comparing c against n's bound
// moves on past n.
func (nb *neighbours) pass(n *node, c int) {
	if c < 0 {
		nb.succ = n
	} else {
		nb.pred = n
	}
}

// around completes the neighbours of node n itself from its subtrees.
func (nb *neighbours) around(n *node) {
	if n.left != nil {
		nb.pred = maxNode(n.left)
	}
	if n.right != nil {
		nb.succ = minNode(n.right)
	}
}

// at counts the neighbours sitting at pos.
func (nb *neighbours) at(pos int) int { return atPos(nb.pred, pos) + atPos(nb.succ, pos) }

// adjacent is 1 when the predecessor and successor share a position.
func (nb *neighbours) adjacent() int {
	if nb.pred == nil {
		return 0
	}
	return atPos(nb.succ, nb.pred.pos)
}

func atPos(n *node, pos int) int {
	if n != nil && n.pos == pos {
		return 1
	}
	return 0
}

// New returns an empty cracker index.
func New() *Index { return &Index{} }

// Len returns the number of boundaries recorded.
func (ix *Index) Len() int { return ix.size }

// Lookup returns the position recorded for the exact bound b.
func (ix *Index) Lookup(b Bound) (int, bool) {
	n := ix.root
	for n != nil {
		switch c := b.Compare(n.bound); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.pos, true
		}
	}
	return 0, false
}

// Insert records that bound b splits the column at position pos. If the
// bound already exists its position is overwritten.
func (ix *Index) Insert(b Bound, pos int) {
	ix.root = ix.insert(ix.root, b, pos, &neighbours{})
}

func (ix *Index) insert(n *node, b Bound, pos int, nb *neighbours) *node {
	if n == nil {
		ix.size++
		ix.samePos += nb.at(pos) - nb.adjacent()
		return &node{bound: b, pos: pos, height: 1}
	}
	switch c := b.Compare(n.bound); {
	case c < 0:
		nb.pass(n, c)
		n.left = ix.insert(n.left, b, pos, nb)
	case c > 0:
		nb.pass(n, c)
		n.right = ix.insert(n.right, b, pos, nb)
	default:
		nb.around(n)
		ix.samePos += nb.at(pos) - nb.at(n.pos)
		n.pos = pos
		return n
	}
	return rebalance(n)
}

// Delete removes the boundary for bound b if present and reports
// whether it was removed. It is used by update policies that merge
// pieces back together.
func (ix *Index) Delete(b Bound) bool {
	var deleted bool
	ix.root, deleted = ix.delete(ix.root, b, &neighbours{})
	if deleted {
		ix.size--
	}
	return deleted
}

func (ix *Index) delete(n *node, b Bound, nb *neighbours) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch c := b.Compare(n.bound); {
	case c < 0:
		nb.pass(n, c)
		n.left, deleted = ix.delete(n.left, b, nb)
	case c > 0:
		nb.pass(n, c)
		n.right, deleted = ix.delete(n.right, b, nb)
	default:
		deleted = true
		nb.around(n)
		ix.samePos += nb.adjacent() - nb.at(n.pos)
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// Replace with in-order successor.
		succ := minNode(n.right)
		n.bound, n.pos = succ.bound, succ.pos
		n.right = deleteMin(n.right)
	}
	if !deleted {
		return n, false
	}
	return rebalance(n), true
}

// deleteMin unlinks the leftmost node of the subtree rooted at n.
func deleteMin(n *node) *node {
	if n.left == nil {
		return n.right
	}
	n.left = deleteMin(n.left)
	return rebalance(n)
}

// PieceFor returns the contiguous region of the column (given its total
// length n) that must be inspected to establish bound b. If the bound is
// already recorded, exact is true and exactPos holds its position; the
// caller does not need to reorganise anything. Otherwise [start, end)
// delimits the piece that has to be cracked, and lower/upper describe
// the boundaries that enclose it (if any).
func (ix *Index) PieceFor(b Bound, n int) (piece Piece, exactPos int, exact bool) {
	piece = Piece{Start: 0, End: n}
	cur := ix.root
	for cur != nil {
		switch c := b.Compare(cur.bound); {
		case c == 0:
			return piece, cur.pos, true
		case c < 0:
			piece.End = cur.pos
			piece.Upper = cur.bound
			piece.HasUpper = true
			cur = cur.left
		default:
			piece.Start = cur.pos
			piece.Lower = cur.bound
			piece.HasLower = true
			cur = cur.right
		}
	}
	return piece, 0, false
}

// Boundaries returns all boundaries in increasing bound order.
func (ix *Index) Boundaries() []Boundary {
	out := make([]Boundary, 0, ix.size)
	var walk func(*node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.left)
		out = append(out, Boundary{Bound: n.bound, Pos: n.pos})
		walk(n.right)
	}
	walk(ix.root)
	return out
}

// Pieces returns the pieces the column of length n is currently divided
// into, in storage order. Zero-length pieces (two boundaries at the
// same position) are skipped.
func (ix *Index) Pieces(n int) []Piece {
	bs := ix.Boundaries()
	pieces := make([]Piece, 0, len(bs)+1)
	start := 0
	var lower Bound
	hasLower := false
	for _, b := range bs {
		if b.Pos > start {
			pieces = append(pieces, Piece{
				Start: start, End: b.Pos,
				Lower: lower, HasLower: hasLower,
				Upper: b.Bound, HasUpper: true,
			})
		}
		start = b.Pos
		lower = b.Bound
		hasLower = true
	}
	if start < n || len(pieces) == 0 {
		pieces = append(pieces, Piece{
			Start: start, End: n,
			Lower: lower, HasLower: hasLower,
		})
	}
	return pieces
}

// NumPieces returns len(Pieces(n)) in O(log P) without materialising
// the pieces: one piece between each pair of consecutive distinct
// boundary positions, plus one before the first position unless it is
// 0 and one after the last unless it is n, and never fewer than one.
func (ix *Index) NumPieces(n int) int {
	if ix.root == nil {
		return 1
	}
	pieces := ix.size - ix.samePos - 1
	if minNode(ix.root).pos != 0 {
		pieces++
	}
	if maxNode(ix.root).pos != n {
		pieces++
	}
	return max(pieces, 1)
}

// remap applies move to every boundary in bound order and recounts
// samePos in the same walk. The position-shifting operations use it.
func (ix *Index) remap(move func(*node)) {
	ix.samePos = 0
	var prev *node
	var walk func(*node)
	walk = func(n *node) {
		if n.left != nil {
			walk(n.left)
		}
		move(n)
		ix.samePos += atPos(prev, n.pos)
		prev = n
		if n.right != nil {
			walk(n.right)
		}
	}
	if ix.root != nil {
		walk(ix.root)
	}
}

// ShiftPositions adds delta to the position of every boundary whose
// position is greater than or equal to fromPos. Update policies use it
// when tuples are inserted into or removed from the middle of the
// cracker column.
func (ix *Index) ShiftPositions(fromPos, delta int) {
	ix.remap(func(n *node) {
		if n.pos >= fromPos {
			n.pos += delta
		}
	})
}

// ShiftPositionsFromBound adds delta to the position of every boundary
// whose bound orders at or after b. Ripple insertion uses it: when a
// tuple is placed at the end of its piece, only the boundaries the new
// value lies to the left of may move, even if other boundaries share
// the same array position (zero-length pieces).
func (ix *Index) ShiftPositionsFromBound(b Bound, delta int) {
	ix.remap(func(n *node) {
		if n.bound.Compare(b) >= 0 {
			n.pos += delta
		}
	})
}

// CollapseRange records the physical removal of the tuples stored in
// positions [start, end): boundaries inside the removed region collapse
// onto start and boundaries beyond it shift left by the removed width.
// Hybrid adaptive indexes use it when they migrate a cracked piece out
// of an initial partition into the final partition.
func (ix *Index) CollapseRange(start, end int) {
	if end <= start {
		return
	}
	width := end - start
	ix.remap(func(n *node) {
		switch {
		case n.pos > end:
			n.pos -= width
		case n.pos > start:
			n.pos = start
		}
	})
}

// Clear removes all boundaries.
func (ix *Index) Clear() {
	ix.root = nil
	ix.size = 0
	ix.samePos = 0
}

// Validate checks the structural invariants of the index against a
// column of length n: binary-search-tree ordering of the bounds, AVL
// balance, monotonically non-decreasing positions in bound order
// within [0, n], and a maintained piece count equal to len(Pieces(n)).
// It returns an error describing the first violation. Tests and the
// crackview tool use it.
func (ix *Index) Validate(n int) error {
	if err := validateNode(ix.root, nil, nil); err != nil {
		return err
	}
	bs := ix.Boundaries()
	prevPos := 0
	for i, b := range bs {
		if b.Pos < 0 || b.Pos > n {
			return fmt.Errorf("boundary %s has position %d outside [0,%d]", b.Bound, b.Pos, n)
		}
		if b.Pos < prevPos {
			return fmt.Errorf("boundary %s at position %d precedes previous boundary position %d", b.Bound, b.Pos, prevPos)
		}
		prevPos = b.Pos
		if i > 0 && bs[i-1].Bound.Compare(b.Bound) >= 0 {
			return fmt.Errorf("boundaries out of order: %s then %s", bs[i-1].Bound, b.Bound)
		}
	}
	if got, want := ix.NumPieces(n), len(ix.Pieces(n)); got != want {
		return fmt.Errorf("maintained piece count %d, want %d", got, want)
	}
	return nil
}

func validateNode(n *node, min, max *Bound) error {
	if n == nil {
		return nil
	}
	if min != nil && n.bound.Compare(*min) <= 0 {
		return fmt.Errorf("BST violation: %s not greater than %s", n.bound, *min)
	}
	if max != nil && n.bound.Compare(*max) >= 0 {
		return fmt.Errorf("BST violation: %s not less than %s", n.bound, *max)
	}
	lh, rh := height(n.left), height(n.right)
	if diff := lh - rh; diff < -1 || diff > 1 {
		return fmt.Errorf("AVL violation at %s: left height %d right height %d", n.bound, lh, rh)
	}
	if n.height != 1+maxInt(lh, rh) {
		return fmt.Errorf("stale height at %s", n.bound)
	}
	if err := validateNode(n.left, min, &n.bound); err != nil {
		return err
	}
	return validateNode(n.right, &n.bound, max)
}

func minNode(n *node) *node {
	for n.left != nil {
		n = n.left
	}
	return n
}

func maxNode(n *node) *node {
	for n.right != nil {
		n = n.right
	}
	return n
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func updateHeight(n *node) {
	n.height = 1 + maxInt(height(n.left), height(n.right))
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	updateHeight(y)
	updateHeight(x)
	return x
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	updateHeight(x)
	updateHeight(y)
	return y
}

func rebalance(n *node) *node {
	updateHeight(n)
	balance := height(n.left) - height(n.right)
	switch {
	case balance > 1:
		if height(n.left.left) < height(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case balance < -1:
		if height(n.right.right) < height(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}
