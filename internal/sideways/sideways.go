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
// The package also implements the two refinements the paper and the
// tutorial highlight:
//
//   - Partial sideways cracking: maps are materialised lazily, only for
//     the projection attributes that queries actually use, respecting
//     storage bounds (MaxMaps).
//   - Adaptive alignment: every map records how much of the map set's
//     crack history it has applied; a map that was created late, or not
//     used for a while, catches up lazily the next time it is needed,
//     after which all maps of the set share an identical physical
//     order and can be combined positionally without reconstruction
//     joins.
package sideways

import (
	"errors"
	"fmt"

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

// entry is one aligned triple of a cracker map.
type entry struct {
	Head column.Value
	Tail column.Value
	Row  column.RowID
}

// crackerMap is the map M(head → tail) for one projection attribute.
type crackerMap struct {
	attr    string
	entries []entry
	idx     *crackeridx.Index
	// aligned is the number of crack-history operations already
	// applied to this map.
	aligned int
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
	rows    []column.RowID
	maps    map[string]*crackerMap
	order   []string // materialisation order, for inspection
	history []crackOp
	opts    Options
	c       cost.Counters
}

// crackOp is one entry of the crack history shared by all maps of the
// set.
type crackOp struct {
	bound crackeridx.Bound
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
		maps:     make(map[string]*crackerMap),
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

// rowAt returns the global row identifier of position i.
func (ms *MapSet) rowAt(i int) column.RowID {
	if ms.rows == nil {
		return column.RowID(i)
	}
	return ms.rows[i]
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
	return append([]string(nil), ms.order...)
}

// HistoryLen returns the number of crack operations recorded so far.
func (ms *MapSet) HistoryLen() int { return len(ms.history) }

// mapFor returns the cracker map for the given projection attribute,
// materialising it on demand (partial sideways cracking).
func (ms *MapSet) mapFor(attr string) (*crackerMap, error) {
	if m, ok := ms.maps[attr]; ok {
		return m, nil
	}
	tail, ok := ms.tails[attr]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAttribute, attr)
	}
	if ms.opts.MaxMaps > 0 && len(ms.maps) >= ms.opts.MaxMaps {
		return nil, fmt.Errorf("%w: %d maps materialised, budget %d", ErrMapBudgetExceeded, len(ms.maps), ms.opts.MaxMaps)
	}
	m := &crackerMap{attr: attr, idx: crackeridx.New(), entries: make([]entry, len(ms.head))}
	for i := range ms.head {
		m.entries[i] = entry{Head: ms.head[i], Tail: tail[i], Row: ms.rowAt(i)}
	}
	ms.c.ValuesTouched += uint64(2 * len(ms.head))
	ms.c.TuplesCopied += uint64(len(ms.head))
	ms.maps[attr] = m
	ms.order = append(ms.order, attr)
	return m, nil
}

// crackMap partitions the map's entries around bound b and records the
// boundary, charging the work to the set.
func (ms *MapSet) crackMap(m *crackerMap, b crackeridx.Bound) int {
	n := len(m.entries)
	piece, pos, exact := m.idx.PieceFor(b, n)
	if exact {
		return pos
	}
	leftOf := func(v column.Value) bool {
		ms.c.Comparisons++
		ms.c.ValuesTouched++
		if b.Inclusive {
			return v <= b.Value
		}
		return v < b.Value
	}
	i, j := piece.Start, piece.End-1
	for i <= j {
		for i <= j && leftOf(m.entries[i].Head) {
			i++
		}
		for i <= j && !leftOf(m.entries[j].Head) {
			j--
		}
		if i < j {
			m.entries[i], m.entries[j] = m.entries[j], m.entries[i]
			ms.c.Swaps++
			i++
			j--
		}
	}
	m.idx.Insert(b, i)
	return i
}

// align replays every crack operation the map has not seen yet, so that
// its physical order matches every other map of the set.
func (ms *MapSet) align(m *crackerMap) {
	for ; m.aligned < len(ms.history); m.aligned++ {
		ms.crackMap(m, ms.history[m.aligned].bound)
	}
}

// boundsFor translates a range predicate into the crack operations it
// requires and the result interval accessor.
func boundsFor(r column.Range) (bounds []crackeridx.Bound) {
	if r.HasLow {
		bounds = append(bounds, core.LowerBound(r))
	}
	if r.HasHigh {
		bounds = append(bounds, core.UpperBound(r))
	}
	return bounds
}

// positionsFor returns the contiguous interval [start, end) of the
// (aligned, cracked) map that holds exactly the qualifying tuples.
func (ms *MapSet) positionsFor(m *crackerMap, r column.Range) (int, int) {
	n := len(m.entries)
	start, end := 0, n
	if r.HasLow {
		pos, ok := m.idx.Lookup(core.LowerBound(r))
		if !ok {
			pos = ms.crackMap(m, core.LowerBound(r))
		}
		start = pos
	}
	if r.HasHigh {
		pos, ok := m.idx.Lookup(core.UpperBound(r))
		if !ok {
			pos = ms.crackMap(m, core.UpperBound(r))
		}
		end = pos
	}
	if end < start {
		end = start
	}
	return start, end
}

// recordHistory appends the crack operations for predicate r to the
// shared history and marks map m as having applied them.
func (ms *MapSet) recordHistory(m *crackerMap, r column.Range) {
	for _, b := range boundsFor(r) {
		if _, exists := findOp(ms.history, b); !exists {
			ms.history = append(ms.history, crackOp{bound: b})
		}
	}
	m.aligned = len(ms.history)
}

func findOp(history []crackOp, b crackeridx.Bound) (int, bool) {
	for i, op := range history {
		if op.bound == b {
			return i, true
		}
	}
	return 0, false
}

// Projection is the result of a sideways-cracked select-project query
// for a single projection attribute: the qualifying tuples' row
// identifiers and, positionally aligned with them, the projected
// values.
type Projection struct {
	Rows   column.IDList
	Values []column.Value
}

// SelectProject answers "SELECT attr FROM t WHERE headAttr in r" using
// the cracker map M(head→attr): the map is materialised if necessary,
// aligned with the set's crack history, cracked on r, and the
// projected values are returned as one contiguous copy. Projecting the
// head attribute itself needs no dedicated map — every map carries the
// head value alongside its tail, so any map (an already materialised
// one when possible) answers it.
func (ms *MapSet) SelectProject(r column.Range, attr string) (Projection, error) {
	mapAttr, head := attr, attr == ms.headAttr
	if head {
		a, err := ms.anyAttr()
		if err != nil {
			return Projection{}, err
		}
		mapAttr = a
	}
	m, err := ms.mapFor(mapAttr)
	if err != nil {
		return Projection{}, err
	}
	if r.Empty() {
		return Projection{Rows: column.IDList{}, Values: []column.Value{}}, nil
	}
	ms.align(m)
	start, end := ms.positionsFor(m, r)
	ms.recordHistory(m, r)
	out := Projection{
		Rows:   make(column.IDList, 0, end-start),
		Values: make([]column.Value, 0, end-start),
	}
	for i := start; i < end; i++ {
		out.Rows = append(out.Rows, m.entries[i].Row)
		if head {
			out.Values = append(out.Values, m.entries[i].Head)
		} else {
			out.Values = append(out.Values, m.entries[i].Tail)
		}
	}
	ms.c.TuplesCopied += uint64(end - start)
	ms.c.ValuesTouched += uint64(end - start)
	return out, nil
}

// SelectProjectMulti answers a select-project query with several
// projection attributes. Because all maps of the set share the same
// base order and apply the same crack history, their physical orders
// are identical after alignment; the returned projections are therefore
// positionally aligned with each other and with Rows.
func (ms *MapSet) SelectProjectMulti(r column.Range, attrs []string) (column.IDList, map[string][]column.Value, error) {
	values := make(map[string][]column.Value, len(attrs))
	var rows column.IDList
	for i, attr := range attrs {
		proj, err := ms.SelectProject(r, attr)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			rows = proj.Rows
		} else if len(proj.Rows) != len(rows) {
			return nil, nil, fmt.Errorf("sideways: maps disagree on result size (%d vs %d)", len(proj.Rows), len(rows))
		}
		values[attr] = proj.Values
	}
	if rows == nil {
		rows = column.IDList{}
	}
	return rows, values, nil
}

// anyAttr picks the cheapest map to answer projection-less queries
// with: an already materialised map if one exists, otherwise the first
// projection attribute's map.
func (ms *MapSet) anyAttr() (string, error) {
	if len(ms.order) > 0 {
		return ms.order[0], nil
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
	proj, err := ms.SelectProject(r, attr)
	if err != nil {
		return nil, err
	}
	return proj.Rows, nil
}

// CountRows answers a pure count on the head attribute without
// materialising anything: after alignment and cracking, the qualifying
// tuples of a map are one contiguous interval, so the count is a
// position difference.
func (ms *MapSet) CountRows(r column.Range) (int, error) {
	attr, err := ms.anyAttr()
	if err != nil {
		return 0, err
	}
	m, err := ms.mapFor(attr)
	if err != nil {
		return 0, err
	}
	if r.Empty() {
		return 0, nil
	}
	ms.align(m)
	start, end := ms.positionsFor(m, r)
	ms.recordHistory(m, r)
	return end - start, nil
}

// NumPieces returns the total number of cracked pieces across every
// materialised map of the set.
func (ms *MapSet) NumPieces() int {
	total := 0
	for _, m := range ms.maps {
		total += m.idx.NumPieces(len(m.entries))
	}
	return total
}

// MapDump is the portable state of one cracker map: its entries in
// current physical order, the boundaries of its cracker index, and how
// much of the set's crack history it has applied.
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
type Dump struct {
	History []crackeridx.Bound
	Maps    []MapDump
}

// Dump captures the map set's current state.
func (ms *MapSet) Dump() Dump {
	d := Dump{History: make([]crackeridx.Bound, 0, len(ms.history))}
	for _, op := range ms.history {
		d.History = append(d.History, op.bound)
	}
	for _, attr := range ms.order {
		m := ms.maps[attr]
		md := MapDump{
			Attr:       attr,
			Heads:      make([]column.Value, len(m.entries)),
			Tails:      make([]column.Value, len(m.entries)),
			Rows:       make([]column.RowID, len(m.entries)),
			Boundaries: m.idx.Boundaries(),
			Aligned:    m.aligned,
		}
		for i, e := range m.entries {
			md.Heads[i], md.Tails[i], md.Rows[i] = e.Head, e.Tail, e.Row
		}
		d.Maps = append(d.Maps, md)
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
	for _, b := range d.History {
		ms.history = append(ms.history, crackOp{bound: b})
	}
	for _, md := range d.Maps {
		if _, ok := ms.tails[md.Attr]; !ok {
			return nil, fmt.Errorf("%w: dumped map %q", ErrUnknownAttribute, md.Attr)
		}
		if _, exists := ms.maps[md.Attr]; exists {
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
		m := &crackerMap{attr: md.Attr, idx: crackeridx.New(), entries: make([]entry, len(head)), aligned: md.Aligned}
		for i := range md.Heads {
			m.entries[i] = entry{Head: md.Heads[i], Tail: md.Tails[i], Row: md.Rows[i]}
		}
		for _, b := range md.Boundaries {
			if b.Pos < 0 || b.Pos > len(head) {
				return nil, fmt.Errorf("sideways: dumped map %q boundary position %d outside [0,%d]",
					md.Attr, b.Pos, len(head))
			}
			m.idx.Insert(b.Bound, b.Pos)
		}
		ms.maps[md.Attr] = m
		ms.order = append(ms.order, md.Attr)
	}
	if err := ms.Validate(); err != nil {
		return nil, fmt.Errorf("sideways: restored map set is invalid: %w", err)
	}
	return ms, nil
}

// Validate checks the invariants of every materialised map: the cracker
// index is structurally sound, every piece respects its bounds on the
// head values, each map still holds exactly the base tuples, and the
// head/tail pairing of every tuple is unchanged.
func (ms *MapSet) Validate() error {
	// posOf maps a global row identifier back to its position in the
	// base arrays, which is the identity unless explicit rows are set.
	posOf := func(row column.RowID) (int, bool) {
		i := int(row)
		return i, i < len(ms.head)
	}
	if ms.rows != nil {
		byRow := make(map[column.RowID]int, len(ms.rows))
		for i, row := range ms.rows {
			byRow[row] = i
		}
		posOf = func(row column.RowID) (int, bool) {
			i, ok := byRow[row]
			return i, ok
		}
	}
	for attr, m := range ms.maps {
		if err := m.idx.Validate(len(m.entries)); err != nil {
			return fmt.Errorf("map %q: %w", attr, err)
		}
		if len(m.entries) != len(ms.head) {
			return fmt.Errorf("map %q: %d entries, want %d", attr, len(m.entries), len(ms.head))
		}
		tail := ms.tails[attr]
		seen := make(map[column.RowID]bool, len(m.entries))
		for _, e := range m.entries {
			if seen[e.Row] {
				return fmt.Errorf("map %q: duplicate row %d", attr, e.Row)
			}
			seen[e.Row] = true
			pos, ok := posOf(e.Row)
			if !ok {
				return fmt.Errorf("map %q: unknown row %d", attr, e.Row)
			}
			if ms.head[pos] != e.Head {
				return fmt.Errorf("map %q: row %d head %d, want %d", attr, e.Row, e.Head, ms.head[pos])
			}
			if tail[pos] != e.Tail {
				return fmt.Errorf("map %q: row %d tail %d, want %d", attr, e.Row, e.Tail, tail[pos])
			}
		}
		for _, piece := range m.idx.Pieces(len(m.entries)) {
			for i := piece.Start; i < piece.End; i++ {
				v := m.entries[i].Head
				if piece.HasLower && leftOfBound(v, piece.Lower) {
					return fmt.Errorf("map %q: position %d violates lower bound %s", attr, i, piece.Lower)
				}
				if piece.HasUpper && !leftOfBound(v, piece.Upper) {
					return fmt.Errorf("map %q: position %d violates upper bound %s", attr, i, piece.Upper)
				}
			}
		}
	}
	return nil
}

func leftOfBound(v column.Value, b crackeridx.Bound) bool {
	if b.Inclusive {
		return v <= b.Value
	}
	return v < b.Value
}
