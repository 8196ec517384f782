// Package engine is a miniature column-store execution layer, standing
// in for the MonetDB kernel the surveyed techniques were built into
// (see DESIGN.md, substitutions).
//
// It provides tables of fixed-width columns, a catalog, and the query
// operators the tutorial's examples need: range selection and
// projection with tuple reconstruction. The point of the package
// is the integration it demonstrates — adaptive indexing lives inside
// the select operator, so physical reorganisation happens as a side
// effect of ordinary query execution. Each query chooses an access
// path:
//
//   - PathScan:     scan the selection column, reconstruct by rowid.
//   - PathCracking: crack the selection column (package core), then
//     perform late tuple reconstruction by rowid — fast selection but
//     random-access projection.
//   - PathSideways: sideways cracking (package sideways) — selection
//     and projection both become sequential after a few queries.
//   - PathAuto:     the engine picks — a per-(table, column) planner
//     tracks the observed cost of each path (logical work counters
//     plus wall time) and routes queries to the cheapest one,
//     re-exploring when the chosen path's cost drifts up (see
//     planner.go). Run is the entry point that resolves it.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/sideways"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/updates"
)

// Errors returned by the engine and catalog.
var (
	// ErrUnknownTable is returned when a query names a table that is
	// not registered in the catalog.
	ErrUnknownTable = errors.New("engine: unknown table")
	// ErrUnknownColumn is returned when a query names a column that
	// does not exist in its table.
	ErrUnknownColumn = errors.New("engine: unknown column")
	// ErrColumnLength is returned when a column is added whose length
	// does not match the table's existing columns.
	ErrColumnLength = errors.New("engine: column length mismatch")
	// ErrDuplicate is returned when a table or column is registered
	// twice.
	ErrDuplicate = errors.New("engine: duplicate name")
	// ErrUnknownPath is returned by ParsePath for an unrecognised
	// access-path name.
	ErrUnknownPath = errors.New("engine: unknown access path")
	// ErrRowArity is returned when an inserted row does not provide
	// exactly one value per table column.
	ErrRowArity = errors.New("engine: row arity mismatch")
)

// ErrRowNotFound is returned when a deleted row does not exist or was
// already deleted. It is the updates-layer error, re-exported so
// callers can match it without importing internal/updates.
var ErrRowNotFound = updates.ErrRowNotFound

// Table is a named collection of equally long columns. Tables are
// append-only at the storage level: inserted rows extend every column
// array (so row identifiers stay positional), and deleted rows are
// tombstoned rather than compacted (so surviving identifiers never
// move). Queries must filter tombstones; projections index the arrays
// by identifier as before.
type Table struct {
	name  string
	cols  map[string][]column.Value
	order []string
	nrows int

	// baseRows is the number of rows the table held when it was
	// registered — the part a deterministic catalog generator can
	// rebuild. Rows at and beyond baseRows were appended through the
	// write path and must be carried by snapshots.
	baseRows   int
	baseFrozen bool
	deadRows   map[column.RowID]bool
	// deadLog lists the tombstoned rows in deletion order. It is
	// append-only, so an epoch shares a prefix of it instead of copying
	// deadRows.
	deadLog     []column.RowID
	writeEpochs uint64
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{name: name, cols: make(map[string][]column.Value)}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of row slots, live and tombstoned: the
// length of every column array, and one past the largest row
// identifier.
func (t *Table) NumRows() int { return t.nrows }

// LiveRows returns the number of live (not tombstoned) tuples.
func (t *Table) LiveRows() int { return t.nrows - len(t.deadLog) }

// BaseRows returns the number of rows present before the first append.
func (t *Table) BaseRows() int {
	if !t.baseFrozen {
		return t.nrows
	}
	return t.baseRows
}

// Written reports whether the table has seen any insert or delete.
func (t *Table) Written() bool { return t.writeEpochs > 0 }

// Live reports whether the row identifier names a live tuple.
func (t *Table) Live(row column.RowID) bool {
	return int(row) < t.nrows && !t.deadRows[row]
}

// AppendRow appends one tuple — one value per column, in column
// creation order — and returns its row identifier.
func (t *Table) AppendRow(vals []column.Value) (column.RowID, error) {
	if len(vals) != len(t.order) {
		return 0, fmt.Errorf("%w: row has %d values, table %q has %d columns",
			ErrRowArity, len(vals), t.name, len(t.order))
	}
	if !t.baseFrozen {
		t.baseRows = t.nrows
		t.baseFrozen = true
	}
	row := column.RowID(t.nrows)
	for i, name := range t.order {
		t.cols[name] = append(t.cols[name], vals[i])
	}
	t.nrows++
	t.writeEpochs++
	return row, nil
}

// DeleteRow tombstones the tuple with the given row identifier. It
// returns ErrRowNotFound when the row does not exist or was already
// deleted.
func (t *Table) DeleteRow(row column.RowID) error {
	if !t.Live(row) {
		return fmt.Errorf("%w: %q row %d", ErrRowNotFound, t.name, row)
	}
	if !t.baseFrozen {
		t.baseRows = t.nrows
		t.baseFrozen = true
	}
	if t.deadRows == nil {
		t.deadRows = make(map[column.RowID]bool)
	}
	t.deadRows[row] = true
	t.deadLog = append(t.deadLog, row)
	t.writeEpochs++
	return nil
}

// DeletedRows returns the tombstoned row identifiers in ascending
// order.
func (t *Table) DeletedRows() []column.RowID {
	out := make([]column.RowID, 0, len(t.deadRows))
	for row := range t.deadRows {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// livePairs returns the (value, rowid) pairs of the column's live
// tuples, in row order — the layout adaptive structures are (re)built
// from on a written table.
func (t *Table) livePairs(col string) (column.Pairs, error) {
	vals, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	pairs := make(column.Pairs, 0, t.LiveRows())
	for i, v := range vals {
		if len(t.deadLog) > 0 && t.deadRows[column.RowID(i)] {
			continue
		}
		pairs = append(pairs, column.Pair{Val: v, Row: column.RowID(i)})
	}
	return pairs, nil
}

// Columns returns the column names in creation order.
func (t *Table) Columns() []string { return append([]string(nil), t.order...) }

// AddColumn adds a column. All columns of a table must have the same
// length; the first column fixes it.
func (t *Table) AddColumn(name string, vals []column.Value) error {
	if _, exists := t.cols[name]; exists {
		return fmt.Errorf("%w: column %q in table %q", ErrDuplicate, name, t.name)
	}
	if len(t.order) > 0 && len(vals) != t.nrows {
		return fmt.Errorf("%w: column %q has %d values, table %q has %d rows",
			ErrColumnLength, name, len(vals), t.name, t.nrows)
	}
	t.cols[name] = vals
	t.order = append(t.order, name)
	t.nrows = len(vals)
	return nil
}

// Column returns the raw values of a column.
func (t *Table) Column(name string) ([]column.Value, error) {
	vals, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, t.name, name)
	}
	return vals, nil
}

// Catalog is a registry of tables.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*Table)} }

// Register adds a table to the catalog.
func (c *Catalog) Register(t *Table) error {
	if _, exists := c.tables[t.name]; exists {
		return fmt.Errorf("%w: table %q", ErrDuplicate, t.name)
	}
	c.tables[t.name] = t
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Tables returns the registered table names.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	return out
}

// AccessPath selects how a selection (and its projection) is executed.
type AccessPath uint8

// Access paths. The paths before PathAuto are the static paths;
// PathAuto delegates the choice to the engine's planner and is only
// valid through Run.
const (
	PathScan AccessPath = iota
	PathCracking
	PathSideways
	PathAuto
)

// numStaticPaths is the number of concrete access paths the planner
// tracks; PathAuto is a routing directive, not an executable path.
const numStaticPaths = PathAuto

// String returns the access-path name.
func (p AccessPath) String() string {
	switch p {
	case PathScan:
		return "scan"
	case PathCracking:
		return "cracking"
	case PathSideways:
		return "sideways"
	case PathAuto:
		return "auto"
	default:
		return fmt.Sprintf("AccessPath(%d)", uint8(p))
	}
}

// PathNames lists the access-path names ParsePath accepts, in path
// order, for flag help texts and error messages.
func PathNames() []string {
	return []string{"scan", "cracking", "sideways", "auto"}
}

// ParsePath converts an access-path name (as produced by String) back
// to the path. The empty string parses as PathAuto, so wire formats can
// omit the field.
func ParsePath(s string) (AccessPath, error) {
	switch strings.ToLower(s) {
	case "scan":
		return PathScan, nil
	case "cracking":
		return PathCracking, nil
	case "sideways":
		return PathSideways, nil
	case "", "auto":
		return PathAuto, nil
	default:
		return PathAuto, fmt.Errorf("%w %q (have %s)", ErrUnknownPath, s, strings.Join(PathNames(), ", "))
	}
}

// Result is the output of one query. Count is always set; Rows and
// Columns are nil for count-only queries (nothing is materialised for
// them). Path records which access path actually executed the query
// (for PathAuto, the planner's choice).
type Result struct {
	Count   int
	Rows    column.IDList
	Columns map[string][]column.Value
	Path    AccessPath
}

// TableColumn identifies one selection column of the catalog; it keys
// every per-column adaptive structure and planner state.
type TableColumn struct {
	Table  string
	Column string
}

// String renders the key as "table.column".
func (tc TableColumn) String() string { return tc.Table + "." + tc.Column }

// Engine executes queries against a catalog, maintaining adaptive
// index state (cracker columns and sideways map sets) per column as a
// side effect of the queries it runs. It also accepts writes: inserts
// and deletes flow through InsertRow/DeleteRow, are applied to the
// base table immediately (so every path reads its own writes), and
// reach the cracked selection columns through the merge policies of
// internal/updates — buffered and ripple-merged when a query actually
// touches the affected range. It is not safe for concurrent use.
type Engine struct {
	cat      *Catalog
	crackers map[TableColumn]*updates.Column
	mapsets  map[TableColumn]*sideways.MapSet
	opts     core.Options
	planner  *planner

	// defaultPolicy and tablePolicies decide when buffered writes are
	// merged into each table's cracked columns (see SetMergePolicy).
	defaultPolicy updates.MergePolicy
	tablePolicies map[string]updates.MergePolicy

	// staleSideways marks map sets dropped by a write: their next
	// rebuild is charged as merge work, because under a sustained write
	// stream the rebuild is re-paid, not amortised.
	staleSideways map[TableColumn]bool

	writes api.WriteCounters
	c      cost.Counters

	// rec is the span recorder of the query currently executing (nil
	// when the query is untraced); events, when set, receives the
	// structured reorganisation events. Neither ever mutates the cost
	// counters.
	rec    *trace.Recorder
	events *trace.Log

	// Epoch machinery (see epoch.go). epoch is the atomically
	// published immutable view readers pin; epochSeq is owned by the
	// publishing goroutine; the remaining tallies are written by
	// concurrent readers and so stay atomic.
	epoch          atomic.Pointer[Epoch]
	epochSeq       uint64
	epochPublished atomic.Uint64
	epochRetired   atomic.Uint64
	intentsApplied atomic.Uint64
	epochReads     atomic.Uint64
	epochReadWork  atomic.Uint64
}

// New creates an engine over the catalog using the given cracking
// options for every adaptive structure it builds. Writes default to
// MergeGradually; see SetMergePolicy.
func New(cat *Catalog, opts core.Options) *Engine {
	return &Engine{
		cat:           cat,
		crackers:      make(map[TableColumn]*updates.Column),
		mapsets:       make(map[TableColumn]*sideways.MapSet),
		opts:          opts,
		planner:       newPlanner(DefaultPlannerOptions()),
		defaultPolicy: updates.MergeGradually,
		tablePolicies: make(map[string]updates.MergePolicy),
		staleSideways: make(map[TableColumn]bool),
	}
}

// Catalog returns the catalog the engine executes against.
func (e *Engine) Catalog() *Catalog { return e.cat }

// SetPlannerOptions replaces the PathAuto planner configuration. It
// resets any routing state accumulated so far, so it should be called
// before the engine serves queries.
func (e *Engine) SetPlannerOptions(opts PlannerOptions) {
	e.planner = newPlanner(opts)
	e.planner.events = e.events
}

// SetEventLog attaches the reorganisation event log. Structure builds,
// crack splits, merge flushes and planner decisions are appended to it
// as they happen; a nil log (the default) disables event emission
// entirely.
func (e *Engine) SetEventLog(l *trace.Log) {
	e.events = l
	e.planner.events = l
}

// emit appends a reorganisation event when a log is attached.
func (e *Engine) emit(ev trace.Event) {
	if e.events != nil {
		e.events.Append(ev)
	}
}

// beginSpan opens a phase span when the current query is traced,
// returning the cost snapshot endSpan needs. The two-value contract
// keeps every call site a one-liner with no recorder nil-checks.
func (e *Engine) beginSpan(p trace.Phase) (cost.Counters, bool) {
	if e.rec == nil {
		return cost.Counters{}, false
	}
	before := e.Cost()
	e.rec.Begin(p)
	return before, true
}

// endSpan closes the span beginSpan opened, attaching the engine-wide
// cost delta the phase caused.
func (e *Engine) endSpan(before cost.Counters, ok bool) {
	if !ok {
		return
	}
	e.rec.End(trace.WorkOf(e.Cost().Sub(before)))
}

// Cost returns the cumulative logical work of the engine and every
// adaptive structure it maintains.
func (e *Engine) Cost() cost.Counters {
	c := e.c
	for _, cc := range e.crackers {
		c.Add(cc.Cost())
	}
	for _, ms := range e.mapsets {
		c.Add(ms.Cost())
	}
	return c
}

func key(table, col string) TableColumn { return TableColumn{Table: table, Column: col} }

// crackerFor returns (creating on demand) the updatable cracker column
// for table.col. A column created on a written table starts from the
// live tuples; later writes reach existing columns through
// InsertRow/DeleteRow.
func (e *Engine) crackerFor(t *Table, col string) (*updates.Column, error) {
	k := key(t.name, col)
	if uc, ok := e.crackers[k]; ok {
		return uc, nil
	}
	pairs, err := t.livePairs(col)
	if err != nil {
		return nil, err
	}
	uc := updates.NewFromPairs(pairs, e.opts, e.MergePolicyFor(t.name), column.RowID(t.NumRows()))
	e.crackers[k] = uc
	e.emit(trace.Event{Kind: "build", Table: t.name, Column: col, Path: PathCracking.String(),
		Fields: map[string]float64{"rows": float64(len(pairs))}})
	return uc, nil
}

// mapsetFor returns (creating on demand) the sideways map set with
// table.col as its selection attribute. On a written table the set is
// built over the live tuples with explicit row identifiers; a rebuild
// after write invalidation is charged as merge work.
func (e *Engine) mapsetFor(t *Table, col string) (*sideways.MapSet, error) {
	k := key(t.name, col)
	if ms, ok := e.mapsets[k]; ok {
		return ms, nil
	}
	head, err := t.Column(col)
	if err != nil {
		return nil, err
	}
	var ms *sideways.MapSet
	if t.Written() {
		headPairs, err := t.livePairs(col)
		if err != nil {
			return nil, err
		}
		liveHead := make([]column.Value, len(headPairs))
		rows := make([]column.RowID, len(headPairs))
		for i, p := range headPairs {
			liveHead[i], rows[i] = p.Val, p.Row
		}
		tails := make(map[string][]column.Value, len(t.order)-1)
		for _, other := range t.order {
			if other == col {
				continue
			}
			all, _ := t.Column(other)
			tail := make([]column.Value, len(rows))
			for i, row := range rows {
				tail[i] = all[row]
			}
			tails[other] = tail
		}
		ms, err = sideways.NewMapSetRows(col, liveHead, tails, rows, sideways.DefaultOptions())
		if err != nil {
			return nil, err
		}
	} else {
		tails := make(map[string][]column.Value, len(t.order)-1)
		for _, other := range t.order {
			if other == col {
				continue
			}
			tails[other], _ = t.Column(other)
		}
		ms, err = sideways.NewMapSet(col, head, tails, sideways.DefaultOptions())
		if err != nil {
			return nil, err
		}
	}
	kind := "build"
	if e.staleSideways[k] {
		delete(e.staleSideways, k)
		// Building the set itself is lazy (maps materialise per
		// projection attribute), so the rebuild charge here is the
		// live-tuple gather; the per-map rebuild cost lands in the
		// set's own counters as its maps re-materialise and is pulled
		// into merge work by the queries that pay it.
		e.c.MergeWork += uint64(t.LiveRows())
		kind = "rebuild"
	}
	e.mapsets[k] = ms
	e.emit(trace.Event{Kind: kind, Table: t.name, Column: col, Path: PathSideways.String(),
		Fields: map[string]float64{"rows": float64(t.LiveRows())}})
	return ms, nil
}

// SelectRows returns the row identifiers of tuples in table whose
// column attr satisfies r, using the requested access path.
func (e *Engine) SelectRows(table, attr string, r column.Range, path AccessPath) (column.IDList, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	switch path {
	case PathCracking:
		uc, err := e.crackerFor(t, attr)
		if err != nil {
			return nil, err
		}
		if e.rec != nil {
			uc.SetTracer(e.rec)
			defer uc.SetTracer(nil)
		}
		return uc.Select(r), nil
	case PathSideways:
		ms, err := e.mapsetFor(t, attr)
		if err != nil {
			return nil, err
		}
		return ms.SelectRows(r)
	case PathScan:
		vals, err := t.Column(attr)
		if err != nil {
			return nil, err
		}
		if len(t.deadLog) == 0 {
			// Tombstone-free tables take the branchless kernel; it
			// charges exactly the work the loop below would.
			return core.ScanSelect(vals, r, &e.c), nil
		}
		var out column.IDList
		for i, v := range vals {
			e.c.ValuesTouched++
			if t.deadRows[column.RowID(i)] {
				continue
			}
			e.c.Comparisons++
			if r.Contains(v) {
				out = append(out, column.RowID(i))
				e.c.TuplesCopied++
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("engine: access path %s cannot execute directly (use Run for PathAuto)", path)
	}
}

// CountRows returns the number of tuples in table whose column attr
// satisfies r, using the requested access path. Nothing is
// materialised: every path answers from positions (or, for a scan, a
// counting pass), so counting charges no recurring copy work.
func (e *Engine) CountRows(table, attr string, r column.Range, path AccessPath) (int, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return 0, err
	}
	switch path {
	case PathCracking:
		uc, err := e.crackerFor(t, attr)
		if err != nil {
			return 0, err
		}
		if e.rec != nil {
			uc.SetTracer(e.rec)
			defer uc.SetTracer(nil)
		}
		return uc.Count(r), nil
	case PathSideways:
		ms, err := e.mapsetFor(t, attr)
		if err != nil {
			return 0, err
		}
		return ms.CountRows(r)
	case PathScan:
		vals, err := t.Column(attr)
		if err != nil {
			return 0, err
		}
		if len(t.deadLog) == 0 {
			return core.ScanCount(vals, r, &e.c), nil
		}
		n := 0
		for i, v := range vals {
			e.c.ValuesTouched++
			if t.deadRows[column.RowID(i)] {
				continue
			}
			e.c.Comparisons++
			if r.Contains(v) {
				n++
			}
		}
		return n, nil
	default:
		return 0, fmt.Errorf("engine: access path %s cannot execute directly (use Run for PathAuto)", path)
	}
}

// SelectProject answers "SELECT projectAttrs FROM table WHERE whereAttr
// IN r" using the requested access path, returning projections aligned
// with the returned row identifiers.
func (e *Engine) SelectProject(table, whereAttr string, r column.Range, projectAttrs []string, path AccessPath) (*Result, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return nil, err
	}
	// Validate projection attributes up front for every path.
	for _, attr := range projectAttrs {
		if _, err := t.Column(attr); err != nil {
			return nil, err
		}
	}
	if path == PathSideways {
		ms, err := e.mapsetFor(t, whereAttr)
		if err != nil {
			return nil, err
		}
		// Sideways cracking fuses selection and projection into one
		// operator, so the whole execution is one crack span: there is
		// no separable materialise phase to time.
		sb, sok := e.beginSpan(trace.PhaseCrack)
		rows, values, err := ms.SelectProjectMulti(r, projectAttrs)
		e.endSpan(sb, sok)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Columns: values}, nil
	}
	sb, sok := e.beginSpan(trace.PhaseCrack)
	rows, err := e.SelectRows(table, whereAttr, r, path)
	e.endSpan(sb, sok)
	if err != nil {
		return nil, err
	}
	// Late tuple reconstruction: fetch every projected attribute by row
	// identifier. After cracking the rows come back in cracked (i.e.
	// essentially random) order, which is exactly the random-access
	// pattern sideways cracking is designed to avoid; a scan returns
	// rows in storage order, so its reconstruction stays sequential.
	randomOrder := path == PathCracking
	res := &Result{Rows: rows, Columns: make(map[string][]column.Value, len(projectAttrs))}
	mb, mok := e.beginSpan(trace.PhaseMaterialise)
	defer e.endSpan(mb, mok)
	for _, attr := range projectAttrs {
		vals, _ := t.Column(attr)
		out := make([]column.Value, len(rows))
		core.GatherValues(out, vals, rows)
		if randomOrder {
			e.c.RandomTouches += uint64(len(rows))
		} else {
			e.c.ValuesTouched += uint64(len(rows))
		}
		e.c.TuplesCopied += uint64(len(rows))
		res.Columns[attr] = out
	}
	return res, nil
}

// Query is one request against the catalog: "SELECT Project FROM
// Table WHERE Column IN R", executed by Path. An empty Project list
// returns row identifiers only; CountOnly asks for the qualifying
// count without materialising anything (and excludes Project). PathAuto
// (the zero-valued Path is PathScan, so callers must say PathAuto
// explicitly) lets the per-column planner choose.
type Query struct {
	Table     string
	Column    string
	R         column.Range
	Project   []string
	CountOnly bool
	Path      AccessPath
	// Trace, when non-nil, receives the query's phase spans (crack,
	// nested merge_flush, materialise). It observes execution without
	// altering it: no cost counter moves because of tracing.
	Trace *trace.Recorder
}

// candidatesFor returns the adaptive access paths the planner races
// for a column of t. Sideways cracking needs at least one projection
// attribute to drag along, so single-column tables exclude it.
func (e *Engine) candidatesFor(t *Table) []AccessPath {
	if len(t.order) > 1 {
		return projectingCandidates
	}
	return singleColumnCandidates
}

// The candidate lists candidatesFor hands out; callers only read them.
var (
	projectingCandidates   = []AccessPath{PathCracking, PathSideways}
	singleColumnCandidates = []AccessPath{PathCracking}
)

// scanWork is the analytic cost model for PathScan on a table of n
// rows: every value is touched and compared once. The planner uses it
// to score the scan path without spending real queries on full scans.
func scanWork(n int) float64 { return float64(2 * n) }

// Run executes one query, resolving PathAuto through the planner and
// feeding the planner the observed cost (logical work delta plus wall
// time) of whatever path ran — explicit paths included, so experiment
// traffic sharpens the planner's estimates for free.
func (e *Engine) Run(q Query) (*Result, error) {
	t, err := e.cat.Table(q.Table)
	if err != nil {
		return nil, err
	}
	if _, err := t.Column(q.Column); err != nil {
		return nil, err
	}
	if q.CountOnly && len(q.Project) > 0 {
		return nil, fmt.Errorf("engine: a count-only query cannot project (%v)", q.Project)
	}
	tc := key(q.Table, q.Column)
	candidates := e.candidatesFor(t)
	scanCost := scanWork(t.NumRows())

	path := q.Path
	routed := false
	shape := shapeOf(q)
	if path == PathAuto {
		path = e.planner.routeShape(tc, candidates, scanCost, shape)
		routed = true
	}

	e.rec = q.Trace
	defer func() { e.rec = nil }()
	var piecesBefore int
	var insBefore, delBefore uint64
	if e.events != nil {
		piecesBefore = e.piecesFor(tc, path)
		insBefore, delBefore, _ = e.mergedFor(tc)
	}

	before := e.Cost()
	start := time.Now()
	var res *Result
	switch {
	case q.CountOnly:
		sb, sok := e.beginSpan(trace.PhaseCrack)
		var n int
		n, err = e.CountRows(q.Table, q.Column, q.R, path)
		e.endSpan(sb, sok)
		res = &Result{Count: n}
	case len(q.Project) > 0:
		// SelectProject opens its own crack and materialise spans; the
		// sideways path's fused operator is a single crack span.
		res, err = e.SelectProject(q.Table, q.Column, q.R, q.Project, path)
		if err == nil {
			res.Count = len(res.Rows)
		}
	default:
		sb, sok := e.beginSpan(trace.PhaseCrack)
		var rows column.IDList
		rows, err = e.SelectRows(q.Table, q.Column, q.R, path)
		e.endSpan(sb, sok)
		res = &Result{Count: len(rows), Rows: rows}
	}
	if err != nil {
		return nil, err
	}
	delta := e.Cost().Sub(before)
	e.planner.observeShape(tc, candidates, scanCost, path, shape, routed, delta, time.Since(start))
	res.Path = path
	if e.events != nil {
		e.emitReorgEvents(tc, path, piecesBefore, insBefore, delBefore)
	}
	return res, nil
}

// piecesFor returns the cracked-piece count of the adaptive structure
// the path would use on tc, or 0 when it has not been built. The
// count is maintained by the cracker indexes, so Run pays O(1) per
// index for it, not a walk over the pieces.
func (e *Engine) piecesFor(tc TableColumn, path AccessPath) int {
	switch path {
	case PathCracking:
		if uc, ok := e.crackers[tc]; ok {
			return uc.Cracker().NumPieces()
		}
	case PathSideways:
		if ms, ok := e.mapsets[tc]; ok {
			return ms.NumPieces()
		}
	}
	return 0
}

// mergedFor returns the cracker column's merged-update counters and
// pending backlog for tc (zeroes when no cracker exists yet).
func (e *Engine) mergedFor(tc TableColumn) (ins, del uint64, pending int) {
	if uc, ok := e.crackers[tc]; ok {
		return uc.MergedInserts(), uc.MergedDeletions(), uc.PendingInsertions() + uc.PendingDeletions()
	}
	return 0, 0, 0
}

// emitReorgEvents compares the structure's piece count and the cracker
// column's merged-update counters across one query and emits the
// corresponding crack, pieces_threshold and merge_flush events. It runs
// only when an event log is attached.
func (e *Engine) emitReorgEvents(tc TableColumn, path AccessPath, piecesBefore int, insBefore, delBefore uint64) {
	piecesAfter := e.piecesFor(tc, path)
	if piecesAfter > piecesBefore {
		e.emit(trace.Event{Kind: "crack", Table: tc.Table, Column: tc.Column, Path: path.String(),
			Fields: map[string]float64{
				"pieces_before": float64(piecesBefore),
				"pieces_after":  float64(piecesAfter),
			}})
		// Power-of-two milestones from 16 up: the piece count crossing
		// one is the structure visibly converging.
		for th := 16; th <= piecesAfter; th *= 2 {
			if piecesBefore < th {
				e.emit(trace.Event{Kind: "pieces_threshold", Table: tc.Table, Column: tc.Column, Path: path.String(),
					Fields: map[string]float64{"threshold": float64(th), "pieces": float64(piecesAfter)}})
			}
		}
	}
	if path == PathCracking {
		ins, del, pending := e.mergedFor(tc)
		if ins > insBefore || del > delBefore {
			e.emit(trace.Event{Kind: "merge_flush", Table: tc.Table, Column: tc.Column, Path: path.String(),
				Fields: map[string]float64{
					"merged_inserts":    float64(ins - insBefore),
					"merged_deletions":  float64(del - delBefore),
					"pending_remaining": float64(pending),
				}})
		}
	}
}

// Tables summarises every catalog table, sorted by name: row slots
// (tombstones included), live tuples, column names in schema order,
// and the merge policy its buffered writes drain under.
func (e *Engine) Tables() []api.TableStats {
	names := e.cat.Tables()
	sort.Strings(names)
	infos := make([]api.TableStats, 0, len(names))
	for _, name := range names {
		t, err := e.cat.Table(name)
		if err != nil {
			continue
		}
		infos = append(infos, api.TableStats{
			Table:       name,
			Rows:        t.NumRows(),
			LiveRows:    t.LiveRows(),
			Columns:     t.Columns(),
			MergePolicy: e.MergePolicyFor(name).String(),
		})
	}
	return infos
}

// Structures reports the engine's adaptive-structure inventory.
func (e *Engine) Structures() api.StructureStats {
	s := api.StructureStats{
		Crackers: len(e.crackers),
		MapSets:  len(e.mapsets),
	}
	for _, uc := range e.crackers {
		s.CrackerPieces += uc.Cracker().NumPieces()
	}
	for _, ms := range e.mapsets {
		s.MapPieces += ms.NumPieces()
		s.MapHistory += ms.RetainedHistory()
	}
	s.Pieces = s.CrackerPieces + s.MapPieces
	return s
}

// Validate checks every adaptive structure the engine has built.
func (e *Engine) Validate() error {
	for k, uc := range e.crackers {
		if err := uc.Validate(); err != nil {
			return fmt.Errorf("cracker %s: %w", k, err)
		}
	}
	for k, ms := range e.mapsets {
		if err := ms.Validate(); err != nil {
			return fmt.Errorf("mapset %s: %w", k, err)
		}
	}
	return nil
}
