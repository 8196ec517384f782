// Package core implements database cracking, the primary contribution
// surveyed by the tutorial "Adaptive Indexing in Modern Database
// Kernels" (EDBT 2012).
//
// A CrackerColumn is an adaptively reorganised copy of a base column.
// Every range selection answered against it physically partitions the
// data it had to look at, so that all qualifying values end up in a
// contiguous region. The boundaries produced this way are remembered in
// a cracker index (package crackeridx); subsequent queries restrict
// their work to the pieces that are still unordered with respect to
// their predicates. The first query pays roughly one scan; the more a
// key range is queried, the closer lookups get to binary search over a
// fully sorted column — index creation happens as a side effect of
// query processing, exactly as the tutorial's "every query is treated
// as an advice of how data should be stored" rule prescribes.
//
// The package implements crack-in-two, crack-in-three, random-pivot
// (stochastic) cracking to bound worst-case piece sizes, and a
// configurable piece-size limit, which together cover the "selection
// cracking" and "improving convergence speed" material of the tutorial.
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/index"
)

// Options configures a CrackerColumn.
type Options struct {
	// CrackInThree enables the single-pass three-way partition when
	// both bounds of a range predicate fall into the same piece.
	// When disabled, two consecutive crack-in-two passes are used.
	CrackInThree bool
	// RandomPivotThreshold, when positive, keeps cracking a piece at
	// randomly chosen pivots until the piece containing the query
	// bound is no larger than the threshold, before the final crack at
	// the query bound itself. This is the stochastic-cracking style
	// defence against skewed (e.g. sequential) workloads that the
	// tutorial discusses under convergence improvements. Zero disables
	// it.
	RandomPivotThreshold int
	// Seed seeds the random pivot generator; the default (0) uses a
	// fixed seed so runs are reproducible.
	Seed int64
}

// DefaultOptions returns the configuration used by the canonical
// experiments: crack-in-three enabled, no stochastic pivots.
func DefaultOptions() Options {
	return Options{CrackInThree: true}
}

// CrackerColumn is a cracked copy of a base column together with its
// cracker index. It is not safe for concurrent use; packages concurrent
// and partition add latching on top.
type CrackerColumn struct {
	pairs column.Pairs
	index *crackeridx.Index
	opts  Options
	rng   *rand.Rand
	c     cost.Counters

	// version counts physical reorganisations (cracks, ripples and
	// merges) since construction: epoch publication's cheap change
	// fingerprint. Which pieces changed is the cracker index's own
	// record (crackeridx.Index.Changes), which Snapshot consumes.
	version uint64

	// sweep and sweepPos are MergeBatch's reusable plan buffers.
	sweep    []sweepPiece
	sweepPos []int
}

var _ index.Interface = (*CrackerColumn)(nil)

// NewCrackerColumn builds the cracker column for the given base values.
// Position i of the base column becomes the pair (vals[i], i); the
// copy itself is counted as touched values, mirroring the one-off cost
// of creating the cracker copy on first use in MonetDB.
func NewCrackerColumn(vals []column.Value, opts Options) *CrackerColumn {
	cc := &CrackerColumn{
		pairs: column.PairsFromValues(vals),
		index: crackeridx.New(),
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed + 1)),
	}
	cc.c.ValuesTouched += uint64(len(vals))
	cc.c.TuplesCopied += uint64(len(vals))
	return cc
}

// NewCrackerColumnFromPairs builds a cracker column over existing
// (value, rowid) pairs. Hybrid indexes and sideways cracking use this
// to crack partitions that are not full base columns.
func NewCrackerColumnFromPairs(pairs column.Pairs, opts Options) *CrackerColumn {
	return &CrackerColumn{
		pairs: pairs,
		index: crackeridx.New(),
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed + 1)),
	}
}

// Name identifies the index kind to the benchmark harness.
func (cc *CrackerColumn) Name() string { return "cracking" }

// Len returns the number of tuples in the column.
func (cc *CrackerColumn) Len() int { return len(cc.pairs) }

// Cost returns the cumulative logical work performed so far.
func (cc *CrackerColumn) Cost() cost.Counters { return cc.c }

// NumPieces returns the number of pieces the column is currently
// divided into, in O(1) and without allocating.
func (cc *CrackerColumn) NumPieces() int { return cc.index.NumPieces(len(cc.pairs)) }

// Pieces exposes the current piece layout for inspection and tools.
func (cc *CrackerColumn) Pieces() []crackeridx.Piece { return cc.index.Pieces(len(cc.pairs)) }

// Index exposes the cracker index (read-only use intended).
func (cc *CrackerColumn) Index() *crackeridx.Index { return cc.index }

// Pairs exposes the current physical order of the cracker column.
// Mutating the returned slice corrupts the index; it is exported for
// inspection, tests and tools only.
func (cc *CrackerColumn) Pairs() column.Pairs { return cc.pairs }

// crackInTwo partitions pairs[lo:hi) so that all values on the left
// side of bound b precede all others, and returns the split position.
// A crack always records a new bound, so the pieces it creates never
// match a snapshot's earlier copy and need no mark.
func (cc *CrackerColumn) crackInTwo(lo, hi int, b crackeridx.Bound) int {
	cc.version++
	return CrackInTwo(cc.pairs, lo, hi, b, &cc.c)
}

// Version returns the column's reorganisation version: it increases on
// every crack and every ripple insert/delete, and is stable otherwise.
// Epoch publication uses it as a cheap change fingerprint.
func (cc *CrackerColumn) Version() uint64 { return cc.version }

// CrackInTwo partitions pairs[lo:hi) in place so that every value on
// the left side of bound b precedes every other value, returning the
// split position. Work is recorded in c. It is exported so that other
// adaptive index implementations (the hybrid algorithms, sideways
// cracking) can reuse the exact reorganisation primitive the cracker
// column uses.
func CrackInTwo(pairs column.Pairs, lo, hi int, b crackeridx.Bound, c *cost.Counters) int {
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
		for i <= j && leftOf(pairs[i].Val) {
			i++
		}
		for i <= j && !leftOf(pairs[j].Val) {
			j--
		}
		if i < j {
			pairs[i], pairs[j] = pairs[j], pairs[i]
			c.Swaps++
			i++
			j--
		}
	}
	return i
}

// CrackInThree partitions pairs[lo:hi) in place into three regions in
// one pass: values left of bLow, values between the bounds, and values
// not left of bHigh. It returns the two split positions (p1, p2) such
// that the middle region is [p1, p2). Work is recorded in c. Like
// CrackInTwo it is exported for reuse by the hybrid algorithms.
func CrackInThree(pairs column.Pairs, lo, hi int, bLow, bHigh crackeridx.Bound, c *cost.Counters) (int, int) {
	leftOf := func(v column.Value, b crackeridx.Bound) bool {
		c.Comparisons++
		c.ValuesTouched++
		if b.Inclusive {
			return v <= b.Value
		}
		return v < b.Value
	}
	a, b, cEnd := lo, lo, hi
	for b < cEnd {
		v := pairs[b].Val
		switch {
		case leftOf(v, bLow):
			if a != b {
				pairs[a], pairs[b] = pairs[b], pairs[a]
				c.Swaps++
			}
			a++
			b++
		case !leftOf(v, bHigh):
			cEnd--
			pairs[b], pairs[cEnd] = pairs[cEnd], pairs[b]
			c.Swaps++
		default:
			b++
		}
	}
	return a, b
}

// LowerBound converts the lower end of a range predicate into the
// cracker-index bound whose split position is the first qualifying
// tuple. It is only meaningful when r.HasLow is true.
func LowerBound(r column.Range) crackeridx.Bound { return lowerBoundOf(r) }

// UpperBound converts the upper end of a range predicate into the
// cracker-index bound whose split position is one past the last
// qualifying tuple. It is only meaningful when r.HasHigh is true.
func UpperBound(r column.Range) crackeridx.Bound { return upperBoundOf(r) }

// crackInThree partitions pairs[lo:hi) into three regions in one pass:
// values left of bLow, values between the bounds, and values not left
// of bHigh. It returns the two split positions (p1, p2) such that the
// middle region is [p1, p2). bLow must not order after bHigh.
func (cc *CrackerColumn) crackInThree(lo, hi int, bLow, bHigh crackeridx.Bound) (int, int) {
	cc.version++
	return CrackInThree(cc.pairs, lo, hi, bLow, bHigh, &cc.c)
}

// lowerBoundOf converts the lower end of a range predicate into the
// cracker-index bound whose split position is the first qualifying
// tuple.
func lowerBoundOf(r column.Range) crackeridx.Bound {
	return crackeridx.Bound{Value: r.Low, Inclusive: !r.IncLow}
}

// upperBoundOf converts the upper end of a range predicate into the
// cracker-index bound whose split position is one past the last
// qualifying tuple.
func upperBoundOf(r column.Range) crackeridx.Bound {
	return crackeridx.Bound{Value: r.High, Inclusive: r.IncHigh}
}

// establish makes sure bound b is a recorded boundary and returns its
// position, cracking whatever piece still covers it.
func (cc *CrackerColumn) establish(b crackeridx.Bound) int {
	piece, at, exact := cc.index.PieceFor(b, len(cc.pairs))
	return cc.establishAt(b, piece, at, exact)
}

// establishAt finishes establish from PieceFor's answer for b, so the
// crack is recorded at the cursor found without a second search.
func (cc *CrackerColumn) establishAt(b crackeridx.Bound, piece crackeridx.Piece, at crackeridx.Cursor, exact bool) int {
	if exact {
		return piece.Start
	}
	if t := cc.opts.RandomPivotThreshold; t > 0 && piece.End-piece.Start > t {
		cc.shrinkPieceWithRandomPivots(piece, b)
		// The random pivots changed the piece layout; re-derive the
		// piece that still covers b (it may even be exact now).
		if piece, at, exact = cc.index.PieceFor(b, len(cc.pairs)); exact {
			return piece.Start
		}
	}
	pos := cc.crackInTwo(piece.Start, piece.End, b)
	cc.index.InsertAt(at, b, pos)
	return pos
}

// shrinkPieceWithRandomPivots repeatedly cracks the piece containing
// bound b at randomly selected pivot values until the piece is no
// larger than the configured threshold, then returns the (smaller)
// piece that still contains b.
func (cc *CrackerColumn) shrinkPieceWithRandomPivots(piece crackeridx.Piece, b crackeridx.Bound) crackeridx.Piece {
	threshold := cc.opts.RandomPivotThreshold
	for piece.End-piece.Start > threshold {
		span := piece.End - piece.Start
		pivotPair := cc.pairs[piece.Start+cc.rng.Intn(span)]
		pivot := crackeridx.Bound{Value: pivotPair.Val, Inclusive: false}
		if _, exists := cc.index.Lookup(pivot); exists {
			// The random pivot already is a boundary; splitting again
			// would not reduce the piece. Fall back to the midpoint
			// element to guarantee progress when duplicates abound.
			pivot = crackeridx.Bound{Value: cc.pairs[piece.Start+span/2].Val, Inclusive: true}
			if _, exists := cc.index.Lookup(pivot); exists {
				break
			}
		}
		pos := cc.crackInTwo(piece.Start, piece.End, pivot)
		if pos == piece.Start || pos == piece.End {
			// Degenerate split (all duplicates); record it and stop to
			// avoid spinning.
			cc.index.Insert(pivot, pos)
			break
		}
		cc.index.Insert(pivot, pos)
		// Continue with whichever half still contains b.
		if b.Compare(pivot) < 0 {
			piece.End = pos
			piece.Upper, piece.HasUpper = pivot, true
		} else if b.Compare(pivot) > 0 {
			piece.Start = pos
			piece.Lower, piece.HasLower = pivot, true
		} else {
			break
		}
	}
	return piece
}

// SelectPositions answers the range predicate r, reorganising the
// column as a side effect, and returns the contiguous position interval
// [start, end) of the cracker column that now holds exactly the
// qualifying tuples.
func (cc *CrackerColumn) SelectPositions(r column.Range) (start, end int) {
	n := len(cc.pairs)
	if r.Empty() {
		return 0, 0
	}
	switch {
	case !r.HasLow && !r.HasHigh:
		return 0, n
	case !r.HasLow:
		return 0, cc.establish(upperBoundOf(r))
	case !r.HasHigh:
		return cc.establish(lowerBoundOf(r)), n
	}

	bLow, bHigh := lowerBoundOf(r), upperBoundOf(r)
	if bLow.Compare(bHigh) > 0 {
		// e.g. (x, x] with IncLow=false, IncHigh=true on the same
		// value: nothing can qualify.
		return 0, 0
	}
	if bLow.Compare(bHigh) == 0 {
		p := cc.establish(bLow)
		return p, p
	}

	pieceLow, atLow, exactLow := cc.index.PieceFor(bLow, n)
	if cc.opts.CrackInThree {
		pieceHigh, atHigh, exactHigh := cc.index.PieceFor(bHigh, n)
		switch {
		case !exactLow && !exactHigh && atLow == atHigh:
			// Both bounds are missing from the same piece: one pass
			// splits it three ways, and bHigh goes right after bLow.
			p1, p2 := cc.crackInThree(pieceLow.Start, pieceLow.End, bLow, bHigh)
			cc.index.InsertAt(cc.index.InsertAt(atLow, bLow, p1), bHigh, p2)
			return p1, p2
		case exactLow || exactHigh:
			// At most one bound is missing, and recording it moves no
			// boundary: the other answer still holds.
			return cc.establishAt(bLow, pieceLow, atLow, exactLow), cc.establishAt(bHigh, pieceHigh, atHigh, exactHigh)
		}
	}
	start = cc.establishAt(bLow, pieceLow, atLow, exactLow)
	end = cc.establish(bHigh)
	if end < start {
		// Can only happen for pathological predicates (empty ranges
		// already handled); clamp defensively.
		end = start
	}
	return start, end
}

// Select answers the range predicate r and returns the row identifiers
// of the qualifying tuples. The copy of the identifiers into the result
// is counted as TuplesCopied. Materialisation is a bulk copy over the
// contiguous qualifying region, not a per-pair append (see
// MaterializeRows).
func (cc *CrackerColumn) Select(r column.Range) column.IDList {
	start, end := cc.SelectPositions(r)
	if start == end {
		return nil
	}
	out := make(column.IDList, end-start)
	MaterializeRows(out, cc.pairs[start:end])
	cc.c.TuplesCopied += uint64(end - start)
	return out
}

// Count answers the range predicate r and returns only the number of
// qualifying tuples, avoiding result materialisation. Aggregation-style
// queries in the benchmark use it.
func (cc *CrackerColumn) Count(r column.Range) int {
	start, end := cc.SelectPositions(r)
	return end - start
}

// Validate checks the cracking invariants: the cracker index is
// structurally sound, and every piece only contains values compatible
// with its bounding pivots. Tests and the crackview tool call it after
// query sequences.
func (cc *CrackerColumn) Validate() error {
	n := len(cc.pairs)
	if err := cc.index.Validate(n); err != nil {
		return err
	}
	for _, piece := range cc.index.Pieces(n) {
		for i := piece.Start; i < piece.End; i++ {
			v := cc.pairs[i].Val
			if piece.HasLower && piece.Lower.IsLeft(v) {
				return fmt.Errorf("position %d value %d violates lower bound %s of piece [%d,%d)",
					i, v, piece.Lower, piece.Start, piece.End)
			}
			if piece.HasUpper && !piece.Upper.IsLeft(v) {
				return fmt.Errorf("position %d value %d violates upper bound %s of piece [%d,%d)",
					i, v, piece.Upper, piece.Start, piece.End)
			}
		}
	}
	return nil
}

// ErrNotFound is returned by Get when a row identifier does not exist.
var ErrNotFound = errors.New("core: row not found")

// Get returns the value currently stored for the given row identifier.
// It is a linear probe and exists for tests and tuple-reconstruction
// demonstrations; real reconstruction goes through package sideways.
func (cc *CrackerColumn) Get(row column.RowID) (column.Value, error) {
	for _, p := range cc.pairs {
		if p.Row == row {
			return p.Val, nil
		}
	}
	return 0, ErrNotFound
}
