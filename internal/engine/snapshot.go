// Engine state snapshot and restore.
//
// An engine's value is the physical reorganisation its workload has
// paid for: cracked selection columns, materialised and aligned
// sideways maps, and the planner's learned per-path cost estimates.
// Snapshot captures exactly that state — BASE table data is NOT
// included; it is the daemon's job to rebuild the same catalog
// (deterministic generation, or reloading the same files) before
// restoring. What a generator cannot rebuild is carried by the
// snapshot: rows appended through the write path, tombstones, and the
// per-column pending update buffers with their merge-policy name, so a
// restart round-trips unmerged writes instead of losing them. Restore
// validates every structure against the catalog it is applied to, so a
// snapshot taken over different data is rejected instead of serving
// wrong answers.
//
// Sideways map sets of written tables are not captured: every write
// invalidates them, so persisting one would only save work when the
// daemon shut down after a quiet reading spell; they rebuild lazily.
package engine

import (
	"fmt"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/sideways"
	"adaptiveindex/internal/updates"

	"adaptiveindex/internal/crackeridx"
)

// BoundarySnap is one cracker-index boundary in portable form.
type BoundarySnap struct {
	Value     column.Value
	Inclusive bool
	Pos       int
}

// BoundSnap is one crack-history bound in portable form.
type BoundSnap struct {
	Value     column.Value
	Inclusive bool
}

// CrackerSnap is the state of one cracked selection column: the merged
// (value, rowid) pairs in current physical order, every boundary, the
// merge policy, and the pending update buffers that have not been
// merged yet.
type CrackerSnap struct {
	Values     []column.Value
	Rows       []column.RowID
	Boundaries []BoundarySnap

	Policy      string
	PendInsVals []column.Value
	PendInsRows []column.RowID
	PendDelVals []column.Value
	PendDelRows []column.RowID
	MergedIns   uint64
	MergedDel   uint64
}

// TableSnap is the write state of one table: the rows appended through
// the write path (one value per column, keyed by column name, in
// append order) and the tombstoned row identifiers. BaseRows pins the
// snapshot to a catalog of the same generated size.
type TableSnap struct {
	BaseRows int
	Appended map[string][]column.Value
	Deleted  []column.RowID
}

// MapSnap is the state of one sideways cracker map.
type MapSnap struct {
	Attr         string
	Heads, Tails []column.Value
	Rows         []column.RowID
	Boundaries   []BoundarySnap
	Aligned      int
}

// MapSetSnap is the state of one sideways map set.
type MapSetSnap struct {
	History []BoundSnap
	Maps    []MapSnap
}

// PathSnap is the planner's accumulated observation of one path.
type PathSnap struct {
	Path    string
	Queries uint64
	Work    uint64
	WallNs  int64
	First   float64
	EWMA    float64
	Seen    bool
	Warm    bool
	Probes  int
}

// PlanSnap is the planner state for one (table, column).
type PlanSnap struct {
	Phase      string
	Passes     int
	Chosen     string
	Baseline   float64
	DriftRun   int
	ReExplores int
	Paths      []PathSnap
}

// State is everything Snapshot captures. It is a plain data structure
// (gob- and json-friendly) so internal/persist can serialise it without
// reaching into engine internals.
type State struct {
	Tables   map[string]TableSnap
	Crackers map[TableColumn]CrackerSnap
	MapSets  map[TableColumn]MapSetSnap
	Plans    map[TableColumn]PlanSnap
	Writes   WriteCounters
}

// Snapshot captures the engine's adaptive state.
func (e *Engine) Snapshot() State {
	st := State{
		Tables:   make(map[string]TableSnap),
		Crackers: make(map[TableColumn]CrackerSnap, len(e.crackers)),
		MapSets:  make(map[TableColumn]MapSetSnap, len(e.mapsets)),
		Plans:    make(map[TableColumn]PlanSnap, len(e.planner.states)),
		Writes:   e.writes,
	}
	for _, name := range e.cat.Tables() {
		t, _ := e.cat.Table(name)
		if !t.Written() {
			continue
		}
		ts := TableSnap{
			BaseRows: t.BaseRows(),
			Appended: make(map[string][]column.Value, len(t.order)),
			Deleted:  t.DeletedRows(),
		}
		for _, col := range t.order {
			vals := t.cols[col]
			ts.Appended[col] = append([]column.Value(nil), vals[t.BaseRows():]...)
		}
		st.Tables[name] = ts
	}
	for tc, uc := range e.crackers {
		cc := uc.Cracker()
		pairs := cc.Pairs()
		cs := CrackerSnap{
			Values:    make([]column.Value, len(pairs)),
			Rows:      make([]column.RowID, len(pairs)),
			Policy:    uc.Policy().String(),
			MergedIns: uc.MergedInserts(),
			MergedDel: uc.MergedDeletions(),
		}
		for i, p := range pairs {
			cs.Values[i], cs.Rows[i] = p.Val, p.Row
		}
		for _, b := range cc.Index().Boundaries() {
			cs.Boundaries = append(cs.Boundaries, BoundarySnap{Value: b.Value, Inclusive: b.Inclusive, Pos: b.Pos})
		}
		ins, del := uc.PendingPairs()
		for _, p := range ins {
			cs.PendInsVals = append(cs.PendInsVals, p.Val)
			cs.PendInsRows = append(cs.PendInsRows, p.Row)
		}
		for _, p := range del {
			cs.PendDelVals = append(cs.PendDelVals, p.Val)
			cs.PendDelRows = append(cs.PendDelRows, p.Row)
		}
		st.Crackers[tc] = cs
	}
	for tc, ms := range e.mapsets {
		if t, err := e.cat.Table(tc.Table); err == nil && t.Written() {
			// A written table's map set holds live-filtered tuples;
			// restore rebuilds it lazily instead (see package comment).
			continue
		}
		d := ms.Dump()
		mss := MapSetSnap{History: make([]BoundSnap, 0, len(d.History))}
		for _, b := range d.History {
			mss.History = append(mss.History, BoundSnap{Value: b.Value, Inclusive: b.Inclusive})
		}
		for _, md := range d.Maps {
			m := MapSnap{Attr: md.Attr, Heads: md.Heads, Tails: md.Tails, Rows: md.Rows, Aligned: md.Aligned}
			for _, b := range md.Boundaries {
				m.Boundaries = append(m.Boundaries, BoundarySnap{Value: b.Value, Inclusive: b.Inclusive, Pos: b.Pos})
			}
			mss.Maps = append(mss.Maps, m)
		}
		st.MapSets[tc] = mss
	}
	for tc, ps := range e.planner.states {
		snap := PlanSnap{
			Phase:      ps.phase.String(),
			Passes:     ps.passes,
			Chosen:     ps.chosen.String(),
			Baseline:   ps.baseline,
			DriftRun:   ps.driftRun,
			ReExplores: ps.reExplores,
		}
		for path := AccessPath(0); path < numStaticPaths; path++ {
			obs := ps.paths[path]
			snap.Paths = append(snap.Paths, PathSnap{
				Path:    path.String(),
				Queries: obs.queries,
				Work:    obs.work,
				WallNs:  obs.wall.Nanoseconds(),
				First:   obs.first,
				EWMA:    obs.ewma,
				Seen:    obs.seen,
				Warm:    obs.warm,
				Probes:  obs.probes,
			})
		}
		st.Plans[tc] = snap
	}
	return st
}

// Restore applies a snapshot to a fresh engine whose catalog holds the
// same generated base data the snapshot was taken over. Table write
// state (appended rows, tombstones) is re-applied first, then every
// restored structure is validated against the resulting catalog. On
// error the adaptive structures are left untouched, but table write
// state may already be applied — callers treat a failed restore as
// fatal and rebuild the catalog from scratch.
func (e *Engine) Restore(st State) error {
	for name, ts := range st.Tables {
		if err := e.restoreTable(name, ts); err != nil {
			return err
		}
	}
	crackers := make(map[TableColumn]*updates.Column, len(st.Crackers))
	for tc, cs := range st.Crackers {
		uc, err := e.restoreCracker(tc, cs)
		if err != nil {
			return err
		}
		crackers[tc] = uc
	}
	mapsets := make(map[TableColumn]*sideways.MapSet, len(st.MapSets))
	for tc, mss := range st.MapSets {
		if t, err := e.cat.Table(tc.Table); err == nil && t.Written() {
			return fmt.Errorf("engine: snapshot map set %s: table has write state; map sets of written tables are not restorable", tc)
		}
		ms, err := e.restoreMapSet(tc, mss)
		if err != nil {
			return err
		}
		mapsets[tc] = ms
	}
	plans := make(map[TableColumn]*planState, len(st.Plans))
	for tc, snap := range st.Plans {
		ps, err := e.restorePlan(tc, snap)
		if err != nil {
			return err
		}
		plans[tc] = ps
	}
	for tc, uc := range crackers {
		e.crackers[tc] = uc
	}
	for tc, ms := range mapsets {
		e.mapsets[tc] = ms
	}
	for tc, ps := range plans {
		e.planner.states[tc] = ps
	}
	e.writes = st.Writes
	return nil
}

// restoreTable re-applies a table's write history: appended rows in
// append order, then tombstones.
func (e *Engine) restoreTable(name string, ts TableSnap) error {
	t, err := e.cat.Table(name)
	if err != nil {
		return fmt.Errorf("engine: snapshot table %q: %w", name, err)
	}
	if t.Written() {
		return fmt.Errorf("engine: snapshot table %q: catalog table already has write state", name)
	}
	if t.NumRows() != ts.BaseRows {
		return fmt.Errorf("engine: snapshot table %q has %d base rows, catalog has %d (snapshot taken over different data?)",
			name, ts.BaseRows, t.NumRows())
	}
	appended := -1
	for _, col := range t.order {
		vals, ok := ts.Appended[col]
		if !ok {
			return fmt.Errorf("engine: snapshot table %q: no appended values for column %q", name, col)
		}
		if appended < 0 {
			appended = len(vals)
		} else if len(vals) != appended {
			return fmt.Errorf("engine: snapshot table %q: column %q has %d appended values, want %d",
				name, col, len(vals), appended)
		}
	}
	row := make([]column.Value, len(t.order))
	for i := 0; i < appended; i++ {
		for ci, col := range t.order {
			row[ci] = ts.Appended[col][i]
		}
		if _, err := t.AppendRow(row); err != nil {
			return fmt.Errorf("engine: snapshot table %q: %w", name, err)
		}
	}
	for _, dead := range ts.Deleted {
		if err := t.DeleteRow(dead); err != nil {
			return fmt.Errorf("engine: snapshot table %q: %w", name, err)
		}
	}
	return nil
}

func (e *Engine) restoreCracker(tc TableColumn, cs CrackerSnap) (*updates.Column, error) {
	t, err := e.cat.Table(tc.Table)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot cracker %s: %w", tc, err)
	}
	base, err := t.Column(tc.Column)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot cracker %s: %w", tc, err)
	}
	if len(cs.Values) != len(cs.Rows) {
		return nil, fmt.Errorf("engine: snapshot cracker %s holds %d values but %d rows", tc, len(cs.Values), len(cs.Rows))
	}
	// pin validates a snapshotted (value, rowid) pair against the base
	// column: a cracker snapshot is internally consistent by
	// construction, so the cracking invariants alone cannot detect a
	// snapshot taken over different data.
	pin := func(what string, row column.RowID, val column.Value) error {
		if int(row) >= len(base) {
			return fmt.Errorf("engine: snapshot cracker %s: %s row %d outside table", tc, what, row)
		}
		if base[row] != val {
			return fmt.Errorf("engine: snapshot cracker %s: %s row %d holds %d, catalog has %d (snapshot taken over different data?)",
				tc, what, row, val, base[row])
		}
		return nil
	}
	pairs := make(column.Pairs, len(cs.Values))
	for i := range cs.Values {
		if err := pin("merged", cs.Rows[i], cs.Values[i]); err != nil {
			return nil, err
		}
		pairs[i] = column.Pair{Val: cs.Values[i], Row: cs.Rows[i]}
	}
	// The snapshot's policy is the restored column's policy; an empty
	// name (a hand-built State) falls back to the engine configuration.
	// Daemon flags still win: server.BuildEngine re-applies them after
	// the restore.
	policy := e.MergePolicyFor(tc.Table)
	if cs.Policy != "" {
		var err error
		if policy, err = updates.ParsePolicy(cs.Policy); err != nil {
			return nil, fmt.Errorf("engine: snapshot cracker %s: %w", tc, err)
		}
	}
	uc := updates.NewFromPairs(pairs, e.opts, policy, column.RowID(t.NumRows()))
	cc := uc.Cracker()
	for _, b := range cs.Boundaries {
		if b.Pos < 0 || b.Pos > len(pairs) {
			return nil, fmt.Errorf("engine: snapshot cracker %s: boundary position %d outside [0,%d]",
				tc, b.Pos, len(pairs))
		}
		cc.Index().Insert(crackeridx.Bound{Value: b.Value, Inclusive: b.Inclusive}, b.Pos)
	}
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("engine: snapshot cracker %s violates cracking invariants: %w", tc, err)
	}
	if len(cs.PendInsVals) != len(cs.PendInsRows) || len(cs.PendDelVals) != len(cs.PendDelRows) {
		return nil, fmt.Errorf("engine: snapshot cracker %s: pending buffer lengths disagree", tc)
	}
	ins := make(column.Pairs, len(cs.PendInsVals))
	for i := range cs.PendInsVals {
		row, val := cs.PendInsRows[i], cs.PendInsVals[i]
		if err := pin("pending-insert", row, val); err != nil {
			return nil, err
		}
		if !t.Live(row) {
			return nil, fmt.Errorf("engine: snapshot cracker %s: pending insert for dead row %d", tc, row)
		}
		ins[i] = column.Pair{Val: val, Row: row}
	}
	del := make(column.Pairs, len(cs.PendDelVals))
	for i := range cs.PendDelVals {
		row, val := cs.PendDelRows[i], cs.PendDelVals[i]
		if err := pin("pending-delete", row, val); err != nil {
			return nil, err
		}
		if t.Live(row) {
			return nil, fmt.Errorf("engine: snapshot cracker %s: pending delete for live row %d", tc, row)
		}
		del[i] = column.Pair{Val: val, Row: row}
	}
	if err := uc.RestorePending(ins, del); err != nil {
		return nil, fmt.Errorf("engine: snapshot cracker %s: %w", tc, err)
	}
	uc.RestoreMergedCounts(cs.MergedIns, cs.MergedDel)
	if uc.Len() != t.LiveRows() {
		return nil, fmt.Errorf("engine: snapshot cracker %s covers %d live rows, table has %d (snapshot taken over different data?)",
			tc, uc.Len(), t.LiveRows())
	}
	return uc, nil
}

func (e *Engine) restoreMapSet(tc TableColumn, mss MapSetSnap) (*sideways.MapSet, error) {
	t, err := e.cat.Table(tc.Table)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot map set %s: %w", tc, err)
	}
	head, err := t.Column(tc.Column)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot map set %s: %w", tc, err)
	}
	tails := make(map[string][]column.Value, len(t.order)-1)
	for _, other := range t.order {
		if other == tc.Column {
			continue
		}
		tails[other], _ = t.Column(other)
	}
	d := sideways.Dump{History: make([]crackeridx.Bound, 0, len(mss.History))}
	for _, b := range mss.History {
		d.History = append(d.History, crackeridx.Bound{Value: b.Value, Inclusive: b.Inclusive})
	}
	for _, m := range mss.Maps {
		md := sideways.MapDump{Attr: m.Attr, Heads: m.Heads, Tails: m.Tails, Rows: m.Rows, Aligned: m.Aligned}
		for _, b := range m.Boundaries {
			md.Boundaries = append(md.Boundaries, crackeridx.Boundary{
				Bound: crackeridx.Bound{Value: b.Value, Inclusive: b.Inclusive},
				Pos:   b.Pos,
			})
		}
		d.Maps = append(d.Maps, md)
	}
	ms, err := sideways.RestoreMapSet(tc.Column, head, tails, sideways.DefaultOptions(), d)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot map set %s: %w", tc, err)
	}
	return ms, nil
}

func (e *Engine) restorePlan(tc TableColumn, snap PlanSnap) (*planState, error) {
	t, err := e.cat.Table(tc.Table)
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot plan %s: %w", tc, err)
	}
	if _, err := t.Column(tc.Column); err != nil {
		return nil, fmt.Errorf("engine: snapshot plan %s: %w", tc, err)
	}
	chosen, err := ParsePath(snap.Chosen)
	if err != nil || chosen >= numStaticPaths {
		return nil, fmt.Errorf("engine: snapshot plan %s: bad chosen path %q", tc, snap.Chosen)
	}
	ps := &planState{
		passes:     snap.Passes,
		candidates: e.candidatesFor(t),
		scanCost:   scanWork(t.NumRows()),
		chosen:     chosen,
		baseline:   snap.Baseline,
		driftRun:   snap.DriftRun,
		reExplores: snap.ReExplores,
	}
	switch snap.Phase {
	case phaseExplore.String():
		ps.phase = phaseExplore
	case phaseExploit.String():
		ps.phase = phaseExploit
	default:
		return nil, fmt.Errorf("engine: snapshot plan %s: bad phase %q", tc, snap.Phase)
	}
	for _, p := range snap.Paths {
		if p.Path == "parallel" {
			continue // retired path, never chosen or persisted; older snapshots still list it
		}
		path, err := ParsePath(p.Path)
		if err != nil || path >= numStaticPaths {
			return nil, fmt.Errorf("engine: snapshot plan %s: bad path %q", tc, p.Path)
		}
		ps.paths[path] = pathObs{
			queries: p.Queries,
			work:    p.Work,
			wall:    time.Duration(p.WallNs),
			first:   p.First,
			ewma:    p.EWMA,
			seen:    p.Seen,
			warm:    p.Warm,
			probes:  p.Probes,
		}
	}
	return ps, nil
}
