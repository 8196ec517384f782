// Package partition implements partitioned parallel cracking: a
// value-range sharded cracker column that turns the single global latch
// of package concurrent into per-partition contention.
//
// The tutorial names multi-core parallelism as an open frontier of
// adaptive indexing: under cracking every reader is a writer, so a
// single cracker column serialises all reorganising queries behind one
// exclusive latch. This package partitions the physical reorganisation
// itself. At build time the base column is split into P value-disjoint
// partitions at sampled quantile pivots; each partition owns a private
// cracker column (package core) and a private read/write latch. A range
// selection fans out, through a bounded worker pool, to exactly the
// partitions its predicate overlaps:
//
//   - interior partitions are fully covered by the predicate and are
//     answered by a pure read (no cracking, shared latch only);
//   - the two boundary partitions crack on the clamped predicate bound,
//     taking only their own exclusive latch;
//   - partitions outside the predicate are not touched at all.
//
// Queries over disjoint key ranges therefore crack concurrently, and
// even a single query parallelises its scan work across partitions —
// the two scaling behaviours a global latch forbids. As with package
// concurrent, convergence makes contention disappear: once a bound is a
// recorded boundary, boundary partitions take the shared path too.
package partition

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/index"
)

// Options configures a partitioned parallel cracker.
type Options struct {
	// Partitions is the number of value-range shards. Values <= 0
	// select one shard per available CPU.
	Partitions int
	// Workers bounds how many partitions one query probes concurrently.
	// Values <= 0 select the number of available CPUs.
	Workers int
	// Core configures the cracker column inside every partition.
	Core core.Options
}

// DefaultOptions returns the canonical configuration: one partition and
// one worker per CPU (resolved eagerly from runtime.GOMAXPROCS, so the
// returned Options spell out the counts a zero value would get), with
// crack-in-three inside the partitions.
func DefaultOptions() Options {
	procs := runtime.GOMAXPROCS(0)
	return Options{Partitions: procs, Workers: procs, Core: core.DefaultOptions()}
}

func (o Options) withDefaults(n int) Options {
	if o.Partitions <= 0 {
		o.Partitions = runtime.GOMAXPROCS(0)
	}
	if o.Partitions > n && n > 0 {
		o.Partitions = n
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// shard is one value-range partition: a private cracker column guarded
// by a private latch. The value interval a shard owns is delimited by
// cracker bounds so that inclusive/exclusive predicate edges compare
// exactly: the shard holds every value not left of lower and left of
// upper.
type shard struct {
	mu sync.RWMutex
	cc *core.CrackerColumn

	lower, upper       crackeridx.Bound
	hasLower, hasUpper bool

	// Shared-path reads must not mutate the cracker column's counters,
	// so result materialisation is tracked with an atomic and folded in
	// by Cost. Only the copy is charged, matching core.CrackerColumn's
	// Select accounting so KindParallel and KindCracking report
	// comparable work for identical workloads.
	readCopied atomic.Uint64

	// sharedHits / exclusiveHits record which latch path each probe of
	// this partition took, for observability and the convergence tests.
	sharedHits    atomic.Uint64
	exclusiveHits atomic.Uint64
}

// Index is a partitioned parallel cracker column. It is safe for use by
// multiple goroutines at once.
type Index struct {
	shards  []*shard
	n       int
	workers int

	// build is the one-off partitioning cost (sampling, pivot search,
	// tuple distribution), charged like the cracker-copy cost of a
	// plain cracker column.
	build cost.Counters
}

var _ index.Interface = (*Index)(nil)

// New builds a partitioned parallel cracker over the base values.
// Position i of the base column becomes the pair (vals[i], i), exactly
// as in package core, so row identifiers are global across partitions.
func New(vals []column.Value, opts Options) *Index {
	return NewFromPairs(column.PairsFromValues(vals), opts)
}

// NewFromPairs builds a partitioned parallel cracker over an explicit
// (value, rowid) layout. Unlike New, row identifiers need not be dense
// or start at zero — the form an engine uses to rebuild the index over
// the live rows of a table that has seen inserts and deletes.
func NewFromPairs(pairs column.Pairs, opts Options) *Index {
	n := len(pairs)
	opts = opts.withDefaults(n)
	ix := &Index{n: n, workers: opts.Workers}

	pivots := quantilePivotsPairs(pairs, opts.Partitions, &ix.build)
	buckets := distribute(pairs, pivots, &ix.build)

	ix.shards = make([]*shard, len(buckets))
	for i, pairs := range buckets {
		s := &shard{cc: core.NewCrackerColumnFromPairs(pairs, opts.Core)}
		if i > 0 {
			s.lower, s.hasLower = boundAt(pivots[i-1]), true
		}
		if i < len(pivots) {
			s.upper, s.hasUpper = boundAt(pivots[i]), true
		}
		ix.shards[i] = s
	}
	return ix
}

// boundAt returns the exclusive cracker bound "values < v", the pivot
// form used to delimit partitions.
func boundAt(v column.Value) crackeridx.Bound {
	return crackeridx.Bound{Value: v, Inclusive: false}
}

// quantilePivotsPairs derives up to p-1 distinct partition pivots from
// a deterministic stride sample of the pair values, so partitions are
// approximately equally populated even under skew. Fewer pivots are
// returned when the data has too few distinct values.
func quantilePivotsPairs(pairs column.Pairs, p int, c *cost.Counters) []column.Value {
	if p <= 1 || len(pairs) == 0 {
		return nil
	}
	sampleSize := 256 * p
	if sampleSize > len(pairs) {
		sampleSize = len(pairs)
	}
	stride := len(pairs) / sampleSize
	if stride < 1 {
		stride = 1
	}
	sample := make([]column.Value, 0, sampleSize)
	for i := 0; i < len(pairs) && len(sample) < sampleSize; i += stride {
		sample = append(sample, pairs[i].Val)
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	c.ValuesTouched += uint64(len(sample))
	c.Comparisons += uint64(len(sample)) // sort work, counted linearly like the sampling scan

	pivots := make([]column.Value, 0, p-1)
	for i := 1; i < p; i++ {
		v := sample[i*len(sample)/p]
		// Skip duplicate pivots, and pivots at the sample minimum: the
		// partition "values < min" would be empty.
		if v > sample[0] && (len(pivots) == 0 || v > pivots[len(pivots)-1]) {
			pivots = append(pivots, v)
		}
	}
	return pivots
}

// distribute routes every (value, rowid) pair to its partition with a
// binary search over the pivots, in one sequential pass.
func distribute(pairs column.Pairs, pivots []column.Value, c *cost.Counters) []column.Pairs {
	buckets := make([]column.Pairs, len(pivots)+1)
	if len(pivots) == 0 {
		buckets[0] = pairs
		c.ValuesTouched += uint64(len(pairs))
		c.TuplesCopied += uint64(len(pairs))
		return buckets
	}
	for _, p := range pairs {
		// First pivot > v; values equal to a pivot go right of it,
		// matching the exclusive "values < pivot" partition bound.
		b := sort.Search(len(pivots), func(j int) bool { return pivots[j] > p.Val })
		buckets[b] = append(buckets[b], p)
		c.Comparisons += uint64(1)
		c.ValuesTouched++
		c.TuplesCopied++
	}
	return buckets
}

// Name identifies the access path in reports.
func (ix *Index) Name() string { return "cracking-parallel" }

// Len returns the number of tuples.
func (ix *Index) Len() int { return ix.n }

// NumPartitions returns the number of value-range shards. It can be
// lower than the configured partition count when the data has few
// distinct values.
func (ix *Index) NumPartitions() int { return len(ix.shards) }

// SharedQueries returns how many partition probes ran entirely under a
// shared latch (no reorganisation needed).
func (ix *Index) SharedQueries() uint64 {
	var t uint64
	for _, s := range ix.shards {
		t += s.sharedHits.Load()
	}
	return t
}

// ExclusiveQueries returns how many partition probes had to take their
// partition's exclusive latch to crack.
func (ix *Index) ExclusiveQueries() uint64 {
	var t uint64
	for _, s := range ix.shards {
		t += s.exclusiveHits.Load()
	}
	return t
}

// NumPieces returns the cracker piece count summed over every
// partition, without allocating.
func (ix *Index) NumPieces() int {
	n := 0
	for _, s := range ix.shards {
		s.mu.RLock()
		n += s.cc.NumPieces()
		s.mu.RUnlock()
	}
	return n
}

// Cost returns the cumulative logical work: the build cost, every
// partition's cracking work, and the shared-path read work.
func (ix *Index) Cost() cost.Counters {
	c := ix.build
	for _, s := range ix.shards {
		s.mu.RLock()
		c.Add(s.cc.Cost())
		s.mu.RUnlock()
		c.TuplesCopied += s.readCopied.Load()
	}
	return c
}

// PartitionStat describes one partition's current state.
type PartitionStat struct {
	// Len is the number of tuples the partition holds.
	Len int
	// Pieces is the partition's current cracker piece count.
	Pieces int
	// SharedHits and ExclusiveHits count the latch paths probes of this
	// partition took.
	SharedHits, ExclusiveHits uint64
	// Lower and Upper delimit the partition's value interval
	// [Lower, Upper); HasLower/HasUpper are false at the domain edges.
	Lower, Upper       column.Value
	HasLower, HasUpper bool
}

// PartitionStats returns one row per partition, in value order.
func (ix *Index) PartitionStats() []PartitionStat {
	out := make([]PartitionStat, len(ix.shards))
	for i, s := range ix.shards {
		s.mu.RLock()
		out[i] = PartitionStat{
			Len:           s.cc.Len(),
			Pieces:        s.cc.NumPieces(),
			SharedHits:    s.sharedHits.Load(),
			ExclusiveHits: s.exclusiveHits.Load(),
			Lower:         s.lower.Value,
			Upper:         s.upper.Value,
			HasLower:      s.hasLower,
			HasUpper:      s.hasUpper,
		}
		s.mu.RUnlock()
	}
	return out
}

// probe is one partition's share of a query: the shard and the
// predicate clamped to the bounds the shard still has to enforce.
type probe struct {
	s *shard
	r column.Range
}

// plan computes which partitions the predicate overlaps and clamps the
// predicate per partition: a bound that already covers the whole
// partition is dropped, so only the partitions containing the bound
// values ever crack.
func (ix *Index) plan(r column.Range) []probe {
	var bLow, bHigh crackeridx.Bound
	if r.HasLow {
		bLow = core.LowerBound(r)
	}
	if r.HasHigh {
		bHigh = core.UpperBound(r)
	}
	probes := make([]probe, 0, len(ix.shards))
	for _, s := range ix.shards {
		// Entirely right of the qualifying interval: every qualifying
		// value is left of the shard's lower bound.
		if r.HasHigh && s.hasLower && bHigh.Compare(s.lower) <= 0 {
			continue
		}
		// Entirely left: every shard value is left of the first
		// qualifying value.
		if r.HasLow && s.hasUpper && s.upper.Compare(bLow) <= 0 {
			continue
		}
		// Drop a bound the shard's own pivots already enforce, so only
		// the partitions containing a bound value ever crack.
		rs := r
		if r.HasLow && s.hasLower && bLow.Compare(s.lower) <= 0 {
			rs.HasLow = false
		}
		if r.HasHigh && s.hasUpper && s.upper.Compare(bHigh) <= 0 {
			rs.HasHigh = false
		}
		probes = append(probes, probe{s: s, r: rs})
	}
	return probes
}

// run executes one partition probe, taking only that partition's latch.
// It returns the qualifying row identifiers when collect is true, and
// always returns the qualifying tuple count.
func (p probe) run(collect bool) (column.IDList, int) {
	s := p.s
	// Fully covered partition: pure read, shared latch, no cracking.
	if !p.r.HasLow && !p.r.HasHigh {
		s.mu.RLock()
		n := s.cc.Len()
		var out column.IDList
		if collect {
			out = s.collect(0, n)
		}
		s.mu.RUnlock()
		s.sharedHits.Add(1)
		return out, n
	}

	// Fast path: both remaining bounds are already recorded boundaries.
	s.mu.RLock()
	if start, end, ok := s.positions(p.r); ok {
		var out column.IDList
		if collect {
			out = s.collect(start, end)
		}
		s.mu.RUnlock()
		s.sharedHits.Add(1)
		return out, end - start
	}
	s.mu.RUnlock()

	// Slow path: crack under this partition's exclusive latch. Another
	// goroutine may have cracked the same bounds between the latches;
	// SelectPositions handles that (exact boundaries are looked up).
	s.mu.Lock()
	start, end := s.cc.SelectPositions(p.r)
	var out column.IDList
	if collect {
		out = s.collect(start, end)
	}
	s.mu.Unlock()
	s.exclusiveHits.Add(1)
	return out, end - start
}

// positions resolves the predicate's position interval using only
// boundaries that already exist. Must be called with at least the
// shared latch held.
func (s *shard) positions(r column.Range) (int, int, bool) {
	start, end := 0, s.cc.Len()
	if r.HasLow {
		pos, ok := s.cc.Index().Lookup(core.LowerBound(r))
		if !ok {
			return 0, 0, false
		}
		start = pos
	}
	if r.HasHigh {
		pos, ok := s.cc.Index().Lookup(core.UpperBound(r))
		if !ok {
			return 0, 0, false
		}
		end = pos
	}
	if end < start {
		end = start
	}
	return start, end, true
}

// collect copies the row identifiers of the position interval. Must be
// called with at least the shared latch held.
func (s *shard) collect(start, end int) column.IDList {
	pairs := s.cc.Pairs()
	out := make(column.IDList, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, pairs[i].Row)
	}
	s.readCopied.Add(uint64(end - start))
	return out
}

// fanOut runs the probes across the bounded worker pool, filling
// results (when collecting) and counts positionally.
func (ix *Index) fanOut(probes []probe, collect bool) ([]column.IDList, []int) {
	var results []column.IDList
	if collect {
		results = make([]column.IDList, len(probes))
	}
	counts := make([]int, len(probes))
	if len(probes) == 1 {
		// A single-partition query runs inline: no goroutine, no latch
		// beyond the partition's own.
		results0, n := probes[0].run(collect)
		if collect {
			results[0] = results0
		}
		counts[0] = n
		return results, counts
	}
	workers := ix.workers
	if workers > len(probes) {
		workers = len(probes)
	}
	// The calling goroutine is one of the workers, so a query spawns
	// workers-1 goroutines and probes are claimed through an atomic
	// counter — no channel rendezvous on the hot path.
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(probes) {
				return
			}
			out, n := probes[i].run(collect)
			if collect {
				results[i] = out
			}
			counts[i] = n
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
	return results, counts
}

// Select returns the row identifiers of qualifying tuples, cracking the
// overlapped partitions in parallel as a side effect.
func (ix *Index) Select(r column.Range) column.IDList {
	if r.Empty() {
		return nil
	}
	probes := ix.plan(r)
	if len(probes) == 0 {
		return nil
	}
	results, _ := ix.fanOut(probes, true)
	return index.MergeIDLists(results)
}

// Count returns the number of qualifying tuples without materialising
// their row identifiers.
func (ix *Index) Count(r column.Range) int {
	if r.Empty() {
		return 0
	}
	probes := ix.plan(r)
	if len(probes) == 0 {
		return 0
	}
	_, counts := ix.fanOut(probes, false)
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// Validate checks the partitioning invariants: partition lengths sum to
// the column length, every partition's values respect its pivot bounds,
// and every partition's cracker column is internally consistent.
func (ix *Index) Validate() error {
	total := 0
	for i, s := range ix.shards {
		s.mu.RLock()
		err := s.cc.Validate()
		if err == nil {
			for _, p := range s.cc.Pairs() {
				if s.hasLower && leftOf(p.Val, s.lower) {
					err = fmt.Errorf("partition %d: value %d below lower pivot %s", i, p.Val, s.lower)
					break
				}
				if s.hasUpper && !leftOf(p.Val, s.upper) {
					err = fmt.Errorf("partition %d: value %d at or above upper pivot %s", i, p.Val, s.upper)
					break
				}
			}
		}
		total += s.cc.Len()
		s.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	if total != ix.n {
		return fmt.Errorf("partition lengths sum to %d, column has %d tuples", total, ix.n)
	}
	return nil
}

// leftOf reports whether v is on the left side of bound b.
func leftOf(v column.Value, b crackeridx.Bound) bool {
	if b.Inclusive {
		return v <= b.Value
	}
	return v < b.Value
}
