// Package sideways implements sideways (and partial) cracking:
// self-organizing tuple reconstruction in column stores (Idreos,
// Kersten, Manegold, SIGMOD 2009), as surveyed by the tutorial.
//
// Plain selection cracking reorganises a single column; answering a
// query that selects on attribute A but projects attributes B, C, ...
// then needs tuple reconstruction — fetching the projected values by
// row identifier, which degenerates into random access once A's cracker
// column has been reorganised. Sideways cracking solves this with
// cracker maps: for a selection attribute A and a projection attribute
// B, the map M(A→B) stores aligned (A value, B value, rowid) triples
// and is cracked on A's predicates, physically dragging the B values
// along. Qualifying tuples therefore end up contiguous in every map,
// and projection becomes a sequential copy.
//
// A map is stored column-wise: three aligned arrays of heads, tails and
// row identifiers (20 bytes a tuple). A crack partitions the heads and
// moves the tail and the row identifier of every exchanged head with
// it, and a projection is two copies out of the qualifying interval —
// one of row identifiers, one of tails (or heads).
//
// The package also implements the two refinements the paper and the
// tutorial highlight:
//
//   - Partial sideways cracking: maps are materialised lazily, only for
//     the projection attributes that queries actually use, respecting
//     storage bounds (MaxMaps).
//   - Adaptive alignment: every map records how much of the map set's
//     crack history it has applied; a map that was not used for a
//     while catches up lazily the next time it is needed, after which
//     all maps of the set share an identical physical order and can be
//     combined positionally without reconstruction joins.
//
// The history is bounded: the set keeps only the suffix that some
// materialised map has not applied yet, so with one map — the common
// case — it stays empty however many bounds the workload cracks. A
// bound the map's own cracker index already holds is in the history by
// construction (every map applies the history in order before it
// cracks), so only a fresh crack appends, and finding that out is the
// same single index walk that finds the bound's position. A map
// materialised late does not replay the history from the base order:
// it copies the most aligned sibling's heads, row identifiers and
// index and gathers its own tails once by row. Every map applies the
// same cracks in the same order from the same base order, so the copy
// has exactly the physical order a full replay would produce, and it is
// charged exactly the crack work that replay would have cost (the
// sibling's own, which every map pays identically), keeping the logical
// work counters those of the paper's alignment. A set restored from a
// dump only knows the crack work done since the restore, so a map
// materialised after a restore is charged that part alone.
package sideways

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/crackeridx"
)

// Errors returned by the map set.
var (
	// ErrUnknownAttribute is returned when a projection attribute does
	// not exist in the table the map set was built over.
	ErrUnknownAttribute = errors.New("sideways: unknown attribute")
	// ErrMapBudgetExceeded is returned when materialising another map
	// would exceed the configured storage bound.
	ErrMapBudgetExceeded = errors.New("sideways: cracker map budget exceeded")
)

// Options configures a MapSet.
type Options struct {
	// MaxMaps bounds how many cracker maps may be materialised
	// (0 means unlimited). This models the storage bound that partial
	// sideways cracking respects.
	MaxMaps int
}

// DefaultOptions returns the configuration used by the canonical
// experiments: unlimited maps.
func DefaultOptions() Options {
	return Options{}
}

// crackerMap is the map M(head → tail) for one projection attribute:
// heads[i], tails[i] and rows[i] are one aligned triple.
type crackerMap struct {
	attr  string
	heads []column.Value
	tails []column.Value
	rows  []column.RowID
	idx   *crackeridx.Index
	// aligned is the number of crack-history operations, counted from
	// the set's first, already applied to this map.
	aligned int
	// cracked is the crack work this map has done since the set was
	// built or restored. For a built set it is the cost of applying
	// history[:aligned] from the base order, the same for every map.
	cracked cost.Counters
}

// MapSet is the collection of cracker maps for one selection attribute
// over one table. It is not safe for concurrent use.
type MapSet struct {
	headAttr string
	head     []column.Value
	tails    map[string][]column.Value
	// rows holds the global row identifier of each position of head
	// and the tails; nil means the identity mapping (position i is row
	// i), the common case of a map set over a full base table. A map
	// set rebuilt over the live rows of a table that has seen inserts
	// and deletes carries the survivors' original identifiers here.
	rows []column.RowID
	maps []*crackerMap // in materialisation order
	// history is the suffix of the crack history that some map has not
	// applied yet; trimmed counts the operations recorded before it.
	history []crackeridx.Bound
	trimmed int
	opts    Options
	c       cost.Counters
}

// NewMapSet creates the map set for selection attribute headAttr. head
// holds that attribute's base values; tails holds the base values of
// every attribute that may be projected (all slices must have the same
// length).
func NewMapSet(headAttr string, head []column.Value, tails map[string][]column.Value, opts Options) (*MapSet, error) {
	for attr, vals := range tails {
		if len(vals) != len(head) {
			return nil, fmt.Errorf("sideways: attribute %q has %d values, head %q has %d",
				attr, len(vals), headAttr, len(head))
		}
	}
	return &MapSet{
		headAttr: headAttr,
		head:     head,
		tails:    tails,
		opts:     opts,
	}, nil
}

// NewMapSetRows creates a map set whose positions carry explicit
// global row identifiers: position i of head (and of every tail) is
// row rows[i]. This is the constructor for tables that have seen
// writes — head and tails hold the live tuples only, and rows maps
// them back to their stable identifiers.
func NewMapSetRows(headAttr string, head []column.Value, tails map[string][]column.Value, rows []column.RowID, opts Options) (*MapSet, error) {
	if len(rows) != len(head) {
		return nil, fmt.Errorf("sideways: %d row identifiers for %d head values", len(rows), len(head))
	}
	ms, err := NewMapSet(headAttr, head, tails, opts)
	if err != nil {
		return nil, err
	}
	ms.rows = rows
	return ms, nil
}

// positions returns, indexed by global row identifier, each row's
// position in the base arrays, or -1 for an identifier no position
// carries. It is only needed when explicit row identifiers are set.
func (ms *MapSet) positions() []int32 {
	maxRow := -1
	for _, row := range ms.rows {
		maxRow = max(maxRow, int(row))
	}
	pos := make([]int32, maxRow+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, row := range ms.rows {
		pos[row] = int32(i)
	}
	return pos
}

// HeadAttribute returns the selection attribute the set cracks on.
func (ms *MapSet) HeadAttribute() string { return ms.headAttr }

// Len returns the number of tuples.
func (ms *MapSet) Len() int { return len(ms.head) }

// Cost returns the cumulative logical work of the whole map set.
func (ms *MapSet) Cost() cost.Counters { return ms.c }

// MaterializedMaps returns the projection attributes for which cracker
// maps currently exist, in materialisation order.
func (ms *MapSet) MaterializedMaps() []string {
	out := make([]string, len(ms.maps))
	for i, m := range ms.maps {
		out[i] = m.attr
	}
	return out
}

// HistoryLen returns the number of crack operations recorded so far,
// including those every map has applied and the set no longer keeps.
func (ms *MapSet) HistoryLen() int { return ms.trimmed + len(ms.history) }

// RetainedHistory returns the number of crack operations the set still
// keeps: those some materialised map has not applied yet.
func (ms *MapSet) RetainedHistory() int { return len(ms.history) }

// mapFor returns the cracker map for the given projection attribute,
// materialising it on demand (partial sideways cracking).
func (ms *MapSet) mapFor(attr string) (*crackerMap, error) {
	for _, m := range ms.maps {
		if m.attr == attr {
			return m, nil
		}
	}
	tail, ok := ms.tails[attr]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	if ms.opts.MaxMaps > 0 && len(ms.maps) >= ms.opts.MaxMaps {
		return nil, fmt.Errorf("%w: %d maps materialised, budget %d", ErrMapBudgetExceeded, len(ms.maps), ms.opts.MaxMaps)
	}
	n := len(ms.head)
	m := &crackerMap{attr: attr, tails: make([]column.Value, n)}
	if src := ms.mostAligned(); src != nil {
		// The sibling holds exactly what replaying history[:src.aligned]
		// from the base order would produce; copy it and gather the
		// tails once by row, then let align replay the rest.
		m.heads, m.rows, m.idx = slices.Clone(src.heads), slices.Clone(src.rows), src.idx.Clone()
		m.aligned, m.cracked = src.aligned, src.cracked
		if ms.rows == nil {
			for i, row := range m.rows {
				m.tails[i] = tail[row]
			}
		} else {
			pos := ms.positions()
			for i, row := range m.rows {
				m.tails[i] = tail[pos[row]]
			}
		}
		ms.c.Add(src.cracked)
	} else {
		m.heads, m.idx, m.aligned = slices.Clone(ms.head), crackeridx.New(), ms.trimmed
		copy(m.tails, tail)
		if ms.rows != nil {
			m.rows = slices.Clone(ms.rows)
		} else {
			m.rows = make([]column.RowID, n)
			for i := range m.rows {
				m.rows[i] = column.RowID(i)
			}
		}
	}
	ms.c.ValuesTouched += uint64(2 * n)
	ms.c.TuplesCopied += uint64(n)
	ms.maps = append(ms.maps, m)
	return m, nil
}

// mostAligned returns the materialised map that has applied the most of
// the crack history (the first such in materialisation order), or nil.
func (ms *MapSet) mostAligned() *crackerMap {
	var best *crackerMap
	for _, m := range ms.maps {
		if best == nil || m.aligned > best.aligned {
			best = m
		}
	}
	return best
}

// crack partitions positions [lo, hi) of the map so that every head
// left of bound b precedes every other, moving each head's tail and row
// identifier with it, and returns the split position. It charges what
// the entry-wise kernel charged: one comparison and one value touched
// per head inspected, one swap per exchange.
func (m *crackerMap) crack(lo, hi int, b crackeridx.Bound) int {
	var cmps, swaps uint64
	i := lo
	if b.Inclusive && b.Value == math.MaxInt64 {
		// Every head is left of the bound: one pass, no exchange.
		cmps, i = uint64(hi-lo), hi
	} else {
		// One strict comparison serves both kinds of bound: v <= x is
		// v < x+1 once x+1 cannot overflow.
		p := b.Value
		if b.Inclusive {
			p++
		}
		heads, tails, rows := m.heads, m.tails, m.rows
		j := hi - 1
		for i <= j {
			for i <= j {
				cmps++
				if heads[i] >= p {
					break
				}
				i++
			}
			for i <= j {
				cmps++
				if heads[j] < p {
					break
				}
				j--
			}
			if i < j {
				heads[i], heads[j] = heads[j], heads[i]
				tails[i], tails[j] = tails[j], tails[i]
				rows[i], rows[j] = rows[j], rows[i]
				swaps++
				i++
				j--
			}
		}
	}
	m.cracked.Comparisons += cmps
	m.cracked.ValuesTouched += cmps
	m.cracked.Swaps += swaps
	return i
}

// establish makes b a boundary of map m and returns its position,
// cracking the piece that holds it when the map's index does not have
// it yet — one index walk either way. It reports whether it cracked.
func (ms *MapSet) establish(m *crackerMap, b crackeridx.Bound) (int, bool) {
	piece, at, exact := m.idx.PieceFor(b, len(m.heads))
	if exact {
		return piece.Start, false
	}
	before := m.cracked
	pos := m.crack(piece.Start, piece.End, b)
	ms.c.Add(m.cracked.Sub(before))
	m.idx.InsertAt(at, b, pos)
	return pos, true
}

// align replays every crack operation the map has not seen yet, so that
// its physical order matches every other map of the set.
func (ms *MapSet) align(m *crackerMap) {
	for _, b := range ms.history[m.aligned-ms.trimmed:] {
		ms.establish(m, b)
	}
	m.aligned = ms.HistoryLen()
}

// positionsFor returns the contiguous interval [start, end) of the
// (aligned) map that holds exactly the qualifying tuples, cracking it on
// r's bounds where needed. A bound the map's index already holds is in
// the history (the map applied the whole history first), so only a
// fresh crack is recorded; the history then drops what every map has
// applied.
func (ms *MapSet) positionsFor(m *crackerMap, r column.Range) (int, int) {
	start, end := 0, len(m.heads)
	if r.HasLow {
		start = ms.record(m, core.LowerBound(r))
	}
	if r.HasHigh {
		end = ms.record(m, core.UpperBound(r))
	}
	if end < start {
		end = start
	}
	ms.trim()
	return start, end
}

// record establishes b on the aligned map m and appends it to the
// history when that cracked.
func (ms *MapSet) record(m *crackerMap, b crackeridx.Bound) int {
	pos, fresh := ms.establish(m, b)
	if fresh {
		ms.history = append(ms.history, b)
		m.aligned++
	}
	return pos
}

// trim drops the history prefix every materialised map has applied.
func (ms *MapSet) trim() {
	low := ms.HistoryLen()
	for _, m := range ms.maps {
		low = min(low, m.aligned)
	}
	switch drop := low - ms.trimmed; {
	case drop == 0:
		return
	case drop == len(ms.history):
		ms.history = ms.history[:0]
	default:
		ms.history = ms.history[drop:]
	}
	ms.trimmed = low
}

// Projection is the result of a sideways-cracked select-project query
// for a single projection attribute: the qualifying tuples' row
// identifiers and, positionally aligned with them, the projected
// values.
type Projection struct {
	Rows   column.IDList
	Values []column.Value
}

// interval aligns and cracks the map answering attr for predicate r and
// returns it with the qualifying interval [start, end) and the array to
// project from: the map's tails, or its heads when attr is the head
// attribute itself — every map carries the head value alongside its
// tail, so any map (an already materialised one when possible) answers
// it. An empty predicate materialises the map but cracks nothing.
func (ms *MapSet) interval(r column.Range, attr string) (m *crackerMap, vals []column.Value, start, end int, err error) {
	mapAttr := attr
	if attr == ms.headAttr {
		if mapAttr, err = ms.anyAttr(); err != nil {
			return nil, nil, 0, 0, err
		}
	}
	if m, err = ms.mapFor(mapAttr); err != nil {
		return nil, nil, 0, 0, err
	}
	vals = m.tails
	if attr == ms.headAttr {
		vals = m.heads
	}
	if r.Empty() {
		return m, vals, 0, 0, nil
	}
	ms.align(m)
	start, end = ms.positionsFor(m, r)
	return m, vals, start, end, nil
}

// SelectProject answers "SELECT attr FROM t WHERE headAttr in r" using
// the cracker map M(head→attr): the map is materialised if necessary,
// aligned with the set's crack history, cracked on r, and the
// qualifying row identifiers and projected values are returned as one
// contiguous copy each.
func (ms *MapSet) SelectProject(r column.Range, attr string) (Projection, error) {
	m, vals, start, end, err := ms.interval(r, attr)
	if err != nil {
		return Projection{}, err
	}
	out := Projection{Rows: copyOf(m.rows[start:end]), Values: copyOf(vals[start:end])}
	ms.c.TuplesCopied += uint64(end - start)
	ms.c.ValuesTouched += uint64(end - start)
	return out, nil
}

// SelectProjectMulti answers a select-project query with several
// projection attributes. Because all maps of the set share the same
// base order and apply the same crack history, their physical orders
// are identical after alignment; the returned projections are therefore
// positionally aligned with each other and with Rows, which are copied
// once, from the first attribute's map.
func (ms *MapSet) SelectProjectMulti(r column.Range, attrs []string) (column.IDList, map[string][]column.Value, error) {
	values := make(map[string][]column.Value, len(attrs))
	rows := column.IDList{}
	for i, attr := range attrs {
		m, vals, start, end, err := ms.interval(r, attr)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			rows = copyOf(m.rows[start:end])
		} else if end-start != len(rows) {
			return nil, nil, fmt.Errorf("sideways: maps disagree on result size (%d vs %d)", end-start, len(rows))
		}
		values[attr] = copyOf(vals[start:end])
		ms.c.TuplesCopied += uint64(end - start)
		ms.c.ValuesTouched += uint64(end - start)
	}
	return rows, values, nil
}

// anyAttr picks the cheapest map to answer projection-less queries
// with: an already materialised map if one exists, otherwise the first
// projection attribute's map.
func (ms *MapSet) anyAttr() (string, error) {
	if len(ms.maps) > 0 {
		return ms.maps[0].attr, nil
	}
	for a := range ms.tails {
		return a, nil
	}
	return "", fmt.Errorf("%w: map set has no attributes", ErrUnknownAttribute)
}

// SelectRows answers a pure selection on the head attribute (no
// projection).
func (ms *MapSet) SelectRows(r column.Range) (column.IDList, error) {
	attr, err := ms.anyAttr()
	if err != nil {
		return nil, err
	}
	m, _, start, end, err := ms.interval(r, attr)
	if err != nil {
		return nil, err
	}
	rows := copyOf(m.rows[start:end])
	ms.c.TuplesCopied += uint64(end - start)
	ms.c.ValuesTouched += uint64(end - start)
	return rows, nil
}

// copyOf returns a copy of s in a fresh array that is written once:
// appending to an empty slice skips the zeroing make does before a
// copy. An empty s still gives a non-nil result (JSON [], not null).
func copyOf[S ~[]E, E any](s S) S { return append(S{}, s...) }

// CountRows answers a pure count on the head attribute without
// materialising anything: after alignment and cracking, the qualifying
// tuples of a map are one contiguous interval, so the count is a
// position difference.
func (ms *MapSet) CountRows(r column.Range) (int, error) {
	attr, err := ms.anyAttr()
	if err != nil {
		return 0, err
	}
	_, _, start, end, err := ms.interval(r, attr)
	return end - start, err
}

// NumPieces returns the total number of cracked pieces across every
// materialised map of the set.
func (ms *MapSet) NumPieces() int {
	total := 0
	for _, m := range ms.maps {
		total += m.idx.NumPieces(len(m.heads))
	}
	return total
}

// MapDump is the portable state of one cracker map: its entries in
// current physical order, the boundaries of its cracker index, and how
// much of the dumped crack history it has applied.
type MapDump struct {
	Attr         string
	Heads, Tails []column.Value
	Rows         []column.RowID
	Boundaries   []crackeridx.Boundary
	Aligned      int
}

// Dump is the portable state of a whole map set, sufficient to rebuild
// it over the same base columns (see RestoreMapSet). It exists so the
// knowledge a workload has cracked into the maps can be persisted.
// History is the retained suffix of the crack history, and every map's
// Aligned counts the part of it that map has applied.
type Dump struct {
	History []crackeridx.Bound
	Maps    []MapDump
}

// Dump captures the map set's current state.
func (ms *MapSet) Dump() Dump {
	d := Dump{History: slices.Clone(ms.history)}
	for _, m := range ms.maps {
		d.Maps = append(d.Maps, MapDump{
			Attr:       m.attr,
			Heads:      slices.Clone(m.heads),
			Tails:      slices.Clone(m.tails),
			Rows:       slices.Clone(m.rows),
			Boundaries: m.idx.Boundaries(),
			Aligned:    m.aligned - ms.trimmed,
		})
	}
	return d
}

// RestoreMapSet rebuilds a map set from a dump over the same base
// columns the original was built on. The restored set is validated
// against the base data before it is returned, so a dump that does not
// belong to these columns is rejected instead of serving wrong answers.
func RestoreMapSet(headAttr string, head []column.Value, tails map[string][]column.Value, opts Options, d Dump) (*MapSet, error) {
	ms, err := NewMapSet(headAttr, head, tails, opts)
	if err != nil {
		return nil, err
	}
	ms.history = slices.Clone(d.History)
	for _, md := range d.Maps {
		if _, ok := ms.tails[md.Attr]; !ok {
			return nil, fmt.Errorf("%w: dumped map %q", ErrUnknownAttribute, md.Attr)
		}
		if slices.ContainsFunc(ms.maps, func(m *crackerMap) bool { return m.attr == md.Attr }) {
			return nil, fmt.Errorf("sideways: dump repeats map %q", md.Attr)
		}
		if len(md.Heads) != len(head) || len(md.Tails) != len(head) || len(md.Rows) != len(head) {
			return nil, fmt.Errorf("sideways: dumped map %q has %d/%d/%d entries, want %d",
				md.Attr, len(md.Heads), len(md.Tails), len(md.Rows), len(head))
		}
		if md.Aligned < 0 || md.Aligned > len(ms.history) {
			return nil, fmt.Errorf("sideways: dumped map %q applied %d history entries of %d",
				md.Attr, md.Aligned, len(ms.history))
		}
		m := &crackerMap{
			attr:    md.Attr,
			heads:   slices.Clone(md.Heads),
			tails:   slices.Clone(md.Tails),
			rows:    slices.Clone(md.Rows),
			idx:     crackeridx.New(),
			aligned: md.Aligned,
		}
		for _, b := range md.Boundaries {
			if b.Pos < 0 || b.Pos > len(head) {
				return nil, fmt.Errorf("sideways: dumped map %q boundary position %d outside [0,%d]",
					md.Attr, b.Pos, len(head))
			}
			m.idx.Insert(b.Bound, b.Pos)
		}
		ms.maps = append(ms.maps, m)
	}
	if len(ms.maps) > 0 {
		ms.trim()
	}
	if err := ms.Validate(); err != nil {
		return nil, fmt.Errorf("sideways: restored map set is invalid: %w", err)
	}
	return ms, nil
}

// Validate checks the invariants of every materialised map: the cracker
// index is structurally sound, every piece respects its bounds on the
// head values, each map still holds exactly the base tuples, the
// head/tail pairing of every tuple is unchanged, and the map has not
// applied history the set does not know.
func (ms *MapSet) Validate() error {
	// posOf maps a global row identifier back to its position in the
	// base arrays, which is the identity unless explicit rows are set.
	posOf := func(row column.RowID) (int, bool) {
		i := int(row)
		return i, i < len(ms.head)
	}
	if ms.rows != nil {
		pos := ms.positions()
		posOf = func(row column.RowID) (int, bool) {
			if int(row) >= len(pos) || pos[row] < 0 {
				return 0, false
			}
			return int(pos[row]), true
		}
	}
	for _, m := range ms.maps {
		attr := m.attr
		if err := m.idx.Validate(len(m.heads)); err != nil {
			return fmt.Errorf("map %q: %w", attr, err)
		}
		if len(m.heads) != len(ms.head) || len(m.tails) != len(ms.head) || len(m.rows) != len(ms.head) {
			return fmt.Errorf("map %q: %d/%d/%d entries, want %d", attr, len(m.heads), len(m.tails), len(m.rows), len(ms.head))
		}
		if m.aligned < ms.trimmed || m.aligned > ms.HistoryLen() {
			return fmt.Errorf("map %q: applied %d history entries, set keeps [%d,%d]", attr, m.aligned, ms.trimmed, ms.HistoryLen())
		}
		tail := ms.tails[attr]
		seen := make([]bool, len(ms.head))
		for i, row := range m.rows {
			pos, ok := posOf(row)
			if !ok {
				return fmt.Errorf("map %q: unknown row %d", attr, row)
			}
			if seen[pos] {
				return fmt.Errorf("map %q: duplicate row %d", attr, row)
			}
			seen[pos] = true
			if ms.head[pos] != m.heads[i] {
				return fmt.Errorf("map %q: row %d head %d, want %d", attr, row, m.heads[i], ms.head[pos])
			}
			if tail[pos] != m.tails[i] {
				return fmt.Errorf("map %q: row %d tail %d, want %d", attr, row, m.tails[i], tail[pos])
			}
		}
		for _, piece := range m.idx.Pieces(len(m.heads)) {
			for i := piece.Start; i < piece.End; i++ {
				v := m.heads[i]
				if piece.HasLower && piece.Lower.IsLeft(v) {
					return fmt.Errorf("map %q: position %d violates lower bound %s", attr, i, piece.Lower)
				}
				if piece.HasUpper && !piece.Upper.IsLeft(v) {
					return fmt.Errorf("map %q: position %d violates upper bound %s", attr, i, piece.Upper)
				}
			}
		}
	}
	return nil
}
