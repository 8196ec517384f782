// Package hybrid implements the hybrid adaptive indexing algorithms of
// Idreos, Manegold, Kuno and Graefe (PVLDB 2011) — "merging what's
// cracked, cracking what's merged" — which the tutorial presents as the
// design space between database cracking and adaptive merging.
//
// A hybrid index splits the column into initial partitions on the first
// query and migrates the qualifying key range of every query from the
// partitions into a final partition. The initial partitions and the
// final partition can each be organised with a lightweight method
// (cracking), a heavyweight method (full sorting) or a middle ground
// (radix-style range clustering). The classic named variants are:
//
//	HCC  crack the partitions, crack the final partition
//	HCS  crack the partitions, sort the final partition
//	HSS  sort the partitions, sort the final partition
//	HRS  radix-cluster the partitions, sort the final partition
//	HRC  radix-cluster the partitions, crack the final partition
//
// Sorting the partitions makes the first query expensive but converges
// almost immediately (adaptive merging behaviour); cracking them keeps
// the first query close to a scan but needs more queries to converge
// (database cracking behaviour). The hybrids interpolate, which is
// exactly the trade-off experiment E4 reproduces.
//
// The final "cracked" partition is represented as one chunk per merged
// key range (the chunk layout is the piece structure a final cracker
// index would maintain); sorted finals use the shared B+ tree.
package hybrid

import (
	"fmt"
	"sort"

	"adaptiveindex/internal/btree"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/index"
)

// PartitionStrategy selects how the initial partitions organise
// themselves when they are first touched.
type PartitionStrategy uint8

// Partition strategies.
const (
	PartitionCrack PartitionStrategy = iota
	PartitionSort
	PartitionRadix
)

// String returns the one-letter code used in the hybrid names.
func (s PartitionStrategy) String() string {
	switch s {
	case PartitionCrack:
		return "crack"
	case PartitionSort:
		return "sort"
	case PartitionRadix:
		return "radix"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", uint8(s))
	}
}

// FinalStrategy selects how the final partition is organised.
type FinalStrategy uint8

// Final strategies.
const (
	FinalCrack FinalStrategy = iota
	FinalSort
)

// String returns the strategy name.
func (s FinalStrategy) String() string {
	switch s {
	case FinalCrack:
		return "crack"
	case FinalSort:
		return "sort"
	default:
		return fmt.Sprintf("FinalStrategy(%d)", uint8(s))
	}
}

// Options configures a hybrid index.
type Options struct {
	// PartitionSize is the number of tuples per initial partition.
	PartitionSize int
	// Initial selects the organisation of the initial partitions.
	Initial PartitionStrategy
	// Final selects the organisation of the final partition.
	Final FinalStrategy
	// RadixBuckets is the number of range clusters used by
	// PartitionRadix (default 16).
	RadixBuckets int
	// Fanout is the fanout of the final B+ tree when Final is
	// FinalSort.
	Fanout int
}

func (o Options) withDefaults() Options {
	if o.PartitionSize <= 0 {
		o.PartitionSize = 1 << 16
	}
	if o.RadixBuckets <= 1 {
		o.RadixBuckets = 16
	}
	if o.Fanout <= 0 {
		o.Fanout = btree.DefaultFanout
	}
	return o
}

// Index is a hybrid adaptive index over one column. It is not safe for
// concurrent use.
type Index struct {
	base        []column.Value
	opts        Options
	parts       []organizer
	finalTree   *btree.Tree // Final == FinalSort
	finalChunks []*chunk    // Final == FinalCrack
	initialized bool
	c           cost.Counters
}

var _ index.Interface = (*Index)(nil)

// New creates a hybrid index with the given options. Nothing is built
// until the first query.
func New(vals []column.Value, opts Options) *Index {
	o := opts.withDefaults()
	ix := &Index{base: vals, opts: o}
	if o.Final == FinalSort {
		ix.finalTree = btree.New(o.Fanout)
	}
	return ix
}

// NewHCC returns the hybrid crack-crack index.
func NewHCC(vals []column.Value, partitionSize int) *Index {
	return New(vals, Options{PartitionSize: partitionSize, Initial: PartitionCrack, Final: FinalCrack})
}

// NewHCS returns the hybrid crack-sort index.
func NewHCS(vals []column.Value, partitionSize int) *Index {
	return New(vals, Options{PartitionSize: partitionSize, Initial: PartitionCrack, Final: FinalSort})
}

// NewHSS returns the hybrid sort-sort index.
func NewHSS(vals []column.Value, partitionSize int) *Index {
	return New(vals, Options{PartitionSize: partitionSize, Initial: PartitionSort, Final: FinalSort})
}

// NewHRS returns the hybrid radix-sort index.
func NewHRS(vals []column.Value, partitionSize int) *Index {
	return New(vals, Options{PartitionSize: partitionSize, Initial: PartitionRadix, Final: FinalSort})
}

// NewHRC returns the hybrid radix-crack index.
func NewHRC(vals []column.Value, partitionSize int) *Index {
	return New(vals, Options{PartitionSize: partitionSize, Initial: PartitionRadix, Final: FinalCrack})
}

// Name identifies the hybrid variant, e.g. "hybrid-crack-sort".
func (ix *Index) Name() string {
	return "hybrid-" + ix.opts.Initial.String() + "-" + ix.opts.Final.String()
}

// Len returns the number of tuples indexed.
func (ix *Index) Len() int { return len(ix.base) }

// Cost returns the cumulative logical work including the final B+
// tree's work.
func (ix *Index) Cost() cost.Counters {
	c := ix.c
	if ix.finalTree != nil {
		c.Add(ix.finalTree.Cost())
	}
	return c
}

// RemainingInPartitions returns the number of tuples that have not yet
// migrated to the final partition.
func (ix *Index) RemainingInPartitions() int {
	n := 0
	for _, p := range ix.parts {
		n += p.remaining()
	}
	return n
}

// Converged reports whether all tuples live in the final partition.
func (ix *Index) Converged() bool {
	return ix.initialized && ix.RemainingInPartitions() == 0
}

// initialize splits the base column into partitions; charged to the
// first query.
func (ix *Index) initialize() {
	n := len(ix.base)
	size := ix.opts.PartitionSize
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		pairs := make(column.Pairs, 0, end-start)
		for i := start; i < end; i++ {
			pairs = append(pairs, column.Pair{Val: ix.base[i], Row: column.RowID(i)})
		}
		ix.c.ValuesTouched += uint64(end - start)
		ix.c.TuplesCopied += uint64(end - start)
		switch ix.opts.Initial {
		case PartitionSort:
			ix.c.Comparisons += uint64(nLogN(end - start))
			pairs.SortByValue()
			ix.parts = append(ix.parts, &sortPartition{pairs: pairs, c: &ix.c})
		case PartitionRadix:
			ix.parts = append(ix.parts, newRadixPartition(pairs, ix.opts.RadixBuckets, &ix.c))
		default:
			ix.parts = append(ix.parts, &crackPartition{pairs: pairs, idx: crackeridx.New(), c: &ix.c})
		}
	}
	if n == 0 {
		// Keep the invariant that an initialized index has at least an
		// empty partition list; nothing else to do.
		ix.parts = []organizer{}
	}
	ix.initialized = true
}

func nLogN(n int) int {
	if n <= 1 {
		return 0
	}
	cmp := 0
	for m := n; m > 1; m >>= 1 {
		cmp += n
	}
	return cmp
}

// Select answers the range predicate, migrating every qualifying tuple
// that still lives in an initial partition into the final partition,
// and returns the row identifiers of all qualifying tuples.
func (ix *Index) Select(pred column.Range) column.IDList {
	if pred.Empty() {
		return nil
	}
	if !ix.initialized {
		ix.initialize()
	}
	out := ix.selectFinal(pred)
	var moved column.Pairs
	for _, p := range ix.parts {
		moved = append(moved, p.extract(pred)...)
	}
	if len(moved) > 0 {
		for _, p := range moved {
			out = append(out, p.Row)
		}
		ix.c.TuplesCopied += uint64(len(moved))
		ix.mergeIntoFinal(moved)
	}
	return out
}

// Count answers the predicate and returns the number of qualifying
// tuples; migration still happens.
func (ix *Index) Count(pred column.Range) int { return len(ix.Select(pred)) }

// selectFinal returns the qualifying rows already present in the final
// partition.
func (ix *Index) selectFinal(pred column.Range) column.IDList {
	if ix.opts.Final == FinalSort {
		return ix.finalTree.Select(pred)
	}
	var out column.IDList
	for _, ch := range ix.finalChunks {
		if !ch.overlaps(pred) {
			ix.c.Comparisons += 2
			continue
		}
		for _, p := range ch.pairs {
			ix.c.ValuesTouched++
			ix.c.Comparisons++
			if pred.Contains(p.Val) {
				out = append(out, p.Row)
				ix.c.TuplesCopied++
			}
		}
	}
	return out
}

// mergeIntoFinal moves the extracted pairs into the final partition.
func (ix *Index) mergeIntoFinal(moved column.Pairs) {
	if ix.opts.Final == FinalSort {
		for _, p := range moved {
			ix.finalTree.Insert(p.Val, p.Row)
		}
		return
	}
	ch := &chunk{pairs: moved}
	ch.min, ch.max = moved[0].Val, moved[0].Val
	for _, p := range moved[1:] {
		if p.Val < ch.min {
			ch.min = p.Val
		}
		if p.Val > ch.max {
			ch.max = p.Val
		}
	}
	ix.c.ValuesTouched += uint64(len(moved))
	ix.finalChunks = append(ix.finalChunks, ch)
}

// chunk is one merged key range of the final "cracked" partition.
type chunk struct {
	min, max column.Value
	pairs    column.Pairs
}

func (ch *chunk) overlaps(pred column.Range) bool {
	if pred.HasHigh {
		if pred.IncHigh {
			if ch.min > pred.High {
				return false
			}
		} else if ch.min >= pred.High {
			return false
		}
	}
	if pred.HasLow {
		if pred.IncLow {
			if ch.max < pred.Low {
				return false
			}
		} else if ch.max <= pred.Low {
			return false
		}
	}
	return true
}

// Validate checks that no tuple is lost or duplicated between the
// partitions and the final partition and that per-partition invariants
// hold.
func (ix *Index) Validate() error {
	if ix.finalTree != nil {
		if err := ix.finalTree.Validate(); err != nil {
			return err
		}
	}
	if !ix.initialized {
		return nil
	}
	seen := make(map[column.RowID]bool, len(ix.base))
	count := 0
	add := func(p column.Pair) error {
		if seen[p.Row] {
			return fmt.Errorf("hybrid: row %d appears twice", p.Row)
		}
		seen[p.Row] = true
		count++
		return nil
	}
	for _, part := range ix.parts {
		if err := part.validate(); err != nil {
			return err
		}
		for _, p := range part.contents() {
			if err := add(p); err != nil {
				return err
			}
		}
	}
	if ix.finalTree != nil {
		var walkErr error
		ix.finalTree.Ascend(func(p column.Pair) bool {
			walkErr = add(p)
			return walkErr == nil
		})
		if walkErr != nil {
			return walkErr
		}
	}
	for _, ch := range ix.finalChunks {
		for _, p := range ch.pairs {
			if p.Val < ch.min || p.Val > ch.max {
				return fmt.Errorf("hybrid: chunk value %d outside [%d,%d]", p.Val, ch.min, ch.max)
			}
			if err := add(p); err != nil {
				return err
			}
		}
	}
	if count != len(ix.base) {
		return fmt.Errorf("hybrid: %d tuples reachable, want %d", count, len(ix.base))
	}
	return nil
}

// organizer is an initial partition that can hand over the tuples
// matching a predicate.
type organizer interface {
	// extract removes and returns all pairs satisfying pred.
	extract(pred column.Range) column.Pairs
	// remaining returns the number of pairs still held.
	remaining() int
	// contents returns the pairs still held (for validation).
	contents() column.Pairs
	// validate checks internal invariants.
	validate() error
}

// crackPartition organises itself lazily with crack-in-two, the
// cheapest possible preparation.
type crackPartition struct {
	pairs column.Pairs
	idx   *crackeridx.Index
	c     *cost.Counters
}

func (p *crackPartition) remaining() int         { return len(p.pairs) }
func (p *crackPartition) contents() column.Pairs { return p.pairs }
func (p *crackPartition) validate() error        { return p.idx.Validate(len(p.pairs)) }

func (p *crackPartition) establish(b crackeridx.Bound) int {
	piece, at, exact := p.idx.PieceFor(b, len(p.pairs))
	return p.establishAt(b, piece, at, exact)
}

// establishAt finishes establish from PieceFor's answer for b, recording
// the crack at the cursor found.
func (p *crackPartition) establishAt(b crackeridx.Bound, piece crackeridx.Piece, at crackeridx.Cursor, exact bool) int {
	if exact {
		return piece.Start
	}
	pos := core.CrackInTwo(p.pairs, piece.Start, piece.End, b, p.c)
	p.idx.InsertAt(at, b, pos)
	return pos
}

func (p *crackPartition) extract(pred column.Range) column.Pairs {
	if len(p.pairs) == 0 {
		return nil
	}
	start, end := 0, len(p.pairs)
	switch {
	case pred.HasLow && pred.HasHigh:
		bLow, bHigh := core.LowerBound(pred), core.UpperBound(pred)
		pieceLow, atLow, exactLow := p.idx.PieceFor(bLow, len(p.pairs))
		pieceHigh, atHigh, exactHigh := p.idx.PieceFor(bHigh, len(p.pairs))
		switch {
		case !exactLow && !exactHigh && atLow == atHigh && bLow.Compare(bHigh) < 0:
			// Both bounds land in the same untouched piece: one-pass
			// crack-in-three, the cheapest possible preparation.
			start, end = core.CrackInThree(p.pairs, pieceLow.Start, pieceLow.End, bLow, bHigh, p.c)
			p.idx.InsertAt(p.idx.InsertAt(atLow, bLow, start), bHigh, end)
		case exactLow || exactHigh:
			// At most one bound is missing, and recording it moves no
			// boundary: the other answer still holds.
			start = p.establishAt(bLow, pieceLow, atLow, exactLow)
			end = p.establishAt(bHigh, pieceHigh, atHigh, exactHigh)
		default:
			start = p.establishAt(bLow, pieceLow, atLow, exactLow)
			end = p.establish(bHigh)
		}
	case pred.HasLow:
		start = p.establish(core.LowerBound(pred))
	case pred.HasHigh:
		end = p.establish(core.UpperBound(pred))
	}
	if end <= start {
		return nil
	}
	out := append(column.Pairs(nil), p.pairs[start:end]...)
	p.c.TuplesCopied += uint64(len(out))
	p.pairs = append(p.pairs[:start], p.pairs[end:]...)
	p.idx.CollapseRange(start, end)
	return out
}

// sortPartition is fully sorted when it is created (by initialize);
// extraction is a binary search plus a contiguous removal.
type sortPartition struct {
	pairs column.Pairs
	c     *cost.Counters
}

func (p *sortPartition) remaining() int         { return len(p.pairs) }
func (p *sortPartition) contents() column.Pairs { return p.pairs }

func (p *sortPartition) validate() error {
	if !p.pairs.IsSortedByValue() {
		return fmt.Errorf("hybrid: sort partition not sorted")
	}
	return nil
}

func (p *sortPartition) extract(pred column.Range) column.Pairs {
	n := len(p.pairs)
	if n == 0 {
		return nil
	}
	lo, hi := 0, n
	if pred.HasLow {
		lo = sort.Search(n, func(i int) bool {
			p.c.Comparisons++
			if pred.IncLow {
				return p.pairs[i].Val >= pred.Low
			}
			return p.pairs[i].Val > pred.Low
		})
	}
	if pred.HasHigh {
		hi = sort.Search(n, func(i int) bool {
			p.c.Comparisons++
			if pred.IncHigh {
				return p.pairs[i].Val > pred.High
			}
			return p.pairs[i].Val >= pred.High
		})
	}
	if hi <= lo {
		return nil
	}
	out := append(column.Pairs(nil), p.pairs[lo:hi]...)
	p.c.TuplesCopied += uint64(len(out))
	p.pairs = append(p.pairs[:lo], p.pairs[hi:]...)
	return out
}

// radixPartition clusters its pairs into equal-width value buckets when
// it is created; extraction scans only the buckets that overlap the
// predicate.
type radixPartition struct {
	buckets []column.Pairs
	lows    []column.Value // inclusive lower edge of each bucket
	width   column.Value
	count   int
	c       *cost.Counters
}

func newRadixPartition(pairs column.Pairs, nBuckets int, c *cost.Counters) *radixPartition {
	p := &radixPartition{c: c}
	if len(pairs) == 0 {
		p.buckets = make([]column.Pairs, 1)
		p.lows = []column.Value{0}
		p.width = 1
		return p
	}
	min, max := pairs[0].Val, pairs[0].Val
	for _, pr := range pairs[1:] {
		if pr.Val < min {
			min = pr.Val
		}
		if pr.Val > max {
			max = pr.Val
		}
	}
	span := max - min + 1
	width := span / column.Value(nBuckets)
	if width < 1 {
		width = 1
	}
	nb := int((span + width - 1) / width)
	if nb < 1 {
		nb = 1
	}
	p.buckets = make([]column.Pairs, nb)
	p.lows = make([]column.Value, nb)
	p.width = width
	for i := range p.lows {
		p.lows[i] = min + column.Value(i)*width
	}
	for _, pr := range pairs {
		b := int((pr.Val - min) / width)
		if b >= nb {
			b = nb - 1
		}
		p.buckets[b] = append(p.buckets[b], pr)
		c.ValuesTouched++
		c.TuplesCopied++
	}
	p.count = len(pairs)
	return p
}

func (p *radixPartition) remaining() int { return p.count }

func (p *radixPartition) contents() column.Pairs {
	var out column.Pairs
	for _, b := range p.buckets {
		out = append(out, b...)
	}
	return out
}

func (p *radixPartition) validate() error {
	total := 0
	for i, b := range p.buckets {
		lo := p.lows[i]
		hi := lo + p.width
		for _, pr := range b {
			if pr.Val < lo || pr.Val >= hi {
				// The last bucket absorbs the remainder of the domain.
				if i != len(p.buckets)-1 || pr.Val < lo {
					return fmt.Errorf("hybrid: radix bucket %d holds out-of-range value %d", i, pr.Val)
				}
			}
		}
		total += len(b)
	}
	if total != p.count {
		return fmt.Errorf("hybrid: radix partition count %d but %d entries in buckets", p.count, total)
	}
	return nil
}

// bucketOverlaps reports whether bucket i can contain values matching
// pred.
func (p *radixPartition) bucketOverlaps(i int, pred column.Range) bool {
	lo := p.lows[i]
	var hi column.Value
	if i == len(p.buckets)-1 {
		hi = 1<<62 - 1
	} else {
		hi = lo + p.width - 1
	}
	if pred.HasLow {
		if pred.IncLow {
			if hi < pred.Low {
				return false
			}
		} else if hi <= pred.Low {
			return false
		}
	}
	if pred.HasHigh {
		if pred.IncHigh {
			if lo > pred.High {
				return false
			}
		} else if lo >= pred.High {
			return false
		}
	}
	return true
}

func (p *radixPartition) extract(pred column.Range) column.Pairs {
	if p.count == 0 {
		return nil
	}
	var out column.Pairs
	for i := range p.buckets {
		p.c.Comparisons += 2
		if !p.bucketOverlaps(i, pred) {
			continue
		}
		kept := p.buckets[i][:0]
		for _, pr := range p.buckets[i] {
			p.c.ValuesTouched++
			p.c.Comparisons++
			if pred.Contains(pr.Val) {
				out = append(out, pr)
				p.c.TuplesCopied++
			} else {
				kept = append(kept, pr)
			}
		}
		p.buckets[i] = kept
	}
	p.count -= len(out)
	return out
}
