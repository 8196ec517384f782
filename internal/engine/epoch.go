// Epoch-pinned snapshot reads.
//
// The engine proper is single-caller: any read may crack, so one
// goroutine must own it. Epochs decouple reads from that constraint.
// The owning goroutine (the service's reorganiser/executor) calls
// PublishEpoch between reorganisations to capture an immutable view —
// a piece catalog per cracked column (core.ColSnapshot), prefixes of
// the append-only pending-update logs, and length-frozen base-array
// views plus a tombstone-log prefix per table — published atomically
// behind an atomic.Pointer. Any number of reader goroutines then Pin
// the current epoch and Select/Count/project against it without locks;
// reads that cross an uncracked piece boundary report a crack intent,
// which the caller hands back to the owner as deferred reorganisation
// (ApplyIntent). Old epochs are retired when their pin count returns to
// zero.
//
// Publication costs what changed since the last epoch: a write that
// only buffered rows reuses the column's catalog outright, and a
// reorganisation recopies only the pieces it touched (see
// core.CrackerColumn.Snapshot). Beside epoch readers, pending updates
// are not ripple-merged by the reads that see them: an intent only
// cracks, and once a column's backlog reaches its threshold the owner
// drains it with one batched sweep (MergePending).
//
// Determinism: publication charges nothing to the cost counters, and
// reader work is accumulated in separate atomic tallies — the engine's
// deterministic counter stream is exactly what it would be if the same
// reorganisations ran through Run directly.

package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/trace"
)

// epochColumn is one cracked column's immutable epoch view: the piece
// catalog of the merged tuples plus the pending updates a reader must
// patch in (see updates.Column.PendingLogs).
type epochColumn struct {
	snap    *core.ColSnapshot
	pendIns column.Pairs
	pendDel column.Pairs
	// cc, ccVer and bufVer fingerprint the live column state this view
	// was taken from; publication reuses the catalog while cc and ccVer
	// are unchanged, and the whole view while bufVer is too.
	cc     *core.CrackerColumn
	ccVer  uint64
	bufVer uint64
}

// epochTable is one table's immutable epoch view: length-frozen slice
// headers of the base column arrays (appends beyond nrows never touch
// indexes below it, and a reallocating append leaves the old array
// behind — both safe to read concurrently), plus a prefix of the
// table's append-only tombstone log.
type epochTable struct {
	nrows int
	cols  map[string][]column.Value
	dead  []column.RowID
	fp    uint64 // Table.writeEpochs at capture

	// deadSet indexes dead for the scan path, built by the first read
	// that needs it.
	deadOnce sync.Once
	deadSet  map[column.RowID]bool
}

// isDead reports whether row was tombstoned when the epoch was taken.
func (et *epochTable) isDead(row column.RowID) bool {
	if len(et.dead) == 0 {
		return false
	}
	et.deadOnce.Do(func() {
		et.deadSet = make(map[column.RowID]bool, len(et.dead))
		for _, r := range et.dead {
			et.deadSet[r] = true
		}
	})
	return et.deadSet[row]
}

// Epoch is one published immutable view of the whole engine. Readers
// pin it (incrementing pins), run any number of queries against it,
// and release it; the publisher holds one reference until the next
// epoch replaces it. When the pin count of a superseded epoch reaches
// zero it is retired (counted once; memory is the garbage collector's
// problem).
type Epoch struct {
	// Seq is the publication sequence number, strictly increasing.
	Seq    uint64
	cols   map[TableColumn]*epochColumn
	tables map[string]*epochTable

	pins    atomic.Int64
	retired atomic.Bool
}

// release drops one pin. A superseded epoch whose pins reach zero is
// retired exactly once (the CAS guards against a racing reader that
// pinned a stale pointer and resurrected the count; such a reader
// still sees a consistent immutable view, just a slightly old one).
func (ep *Epoch) release(e *Engine) {
	if ep.pins.Add(-1) == 0 && e.epoch.Load() != ep && ep.retired.CompareAndSwap(false, true) {
		e.epochRetired.Add(1)
	}
}

// Intent is one deferred reorganisation request: a reader observed
// that answering R against table.column crossed an uncracked piece
// boundary or unmerged pending updates. Applying it runs the crack
// (and whatever merge flush the policy owes) on the engine owner's
// goroutine.
type Intent struct {
	Table  string
	Column string
	R      column.Range
}

// EpochInfo describes one epoch read: the epoch it pinned, whether the
// read wants a reorganisation pass, and the release the caller must
// invoke exactly once when it has finished consuming the result
// (including streaming it — the result's projections are fresh copies,
// but holding the pin until the last byte keeps the contract simple
// and future-proofs zero-copy responses).
type EpochInfo struct {
	Seq        uint64
	NeedsReorg bool
	Release    func()
}

// epochChanged reports whether any engine state visible to readers
// moved since the given epoch was captured.
func (e *Engine) epochChanged(cur *Epoch) bool {
	if len(e.crackers) != len(cur.cols) || len(e.cat.tables) != len(cur.tables) {
		return true
	}
	for k, uc := range e.crackers {
		old, ok := cur.cols[k]
		if !ok {
			return true
		}
		ccVer, bufVer := uc.Versions()
		if old.ccVer != ccVer || old.bufVer != bufVer {
			return true
		}
	}
	for name, t := range e.cat.tables {
		old, ok := cur.tables[name]
		if !ok || old.fp != t.writeEpochs || len(old.cols) != len(t.cols) {
			return true
		}
	}
	return false
}

// PublishEpoch captures the engine's current state as the next epoch
// and makes it the one readers pin. It must be called from the
// goroutine that owns the engine (the same single-caller discipline as
// Run). When nothing changed since the current epoch it returns that
// epoch untouched — no sequence bump, no copying. Publication never
// charges the deterministic cost counters.
func (e *Engine) PublishEpoch() *Epoch {
	cur := e.epoch.Load()
	if cur != nil && !e.epochChanged(cur) {
		return cur
	}
	e.epochSeq++
	next := &Epoch{
		Seq:    e.epochSeq,
		cols:   make(map[TableColumn]*epochColumn, len(e.crackers)),
		tables: make(map[string]*epochTable, len(e.cat.tables)),
	}
	next.pins.Store(1) // the publisher's reference
	for k, uc := range e.crackers {
		ccVer, bufVer := uc.Versions()
		var old *epochColumn
		if cur != nil {
			old = cur.cols[k]
		}
		if old != nil && old.ccVer == ccVer && old.bufVer == bufVer {
			next.cols[k] = old
			continue
		}
		ec := &epochColumn{cc: uc.Cracker(), ccVer: ccVer, bufVer: bufVer}
		switch {
		case old != nil && old.cc == ec.cc && old.ccVer == ccVer:
			ec.snap = old.snap
		case old != nil && old.cc == ec.cc:
			ec.snap = ec.cc.Snapshot(old.snap)
		default:
			ec.snap = ec.cc.Snapshot(nil)
		}
		ec.pendIns, ec.pendDel = uc.PendingLogs()
		next.cols[k] = ec
	}
	for name, t := range e.cat.tables {
		var old *epochTable
		if cur != nil {
			old = cur.tables[name]
		}
		if old != nil && old.fp == t.writeEpochs && len(old.cols) == len(t.cols) {
			next.tables[name] = old
			continue
		}
		et := &epochTable{
			nrows: t.nrows,
			cols:  make(map[string][]column.Value, len(t.cols)),
			dead:  t.deadLog[:len(t.deadLog):len(t.deadLog)],
			fp:    t.writeEpochs,
		}
		for cn, vals := range t.cols {
			et.cols[cn] = vals[:t.nrows:t.nrows]
		}
		next.tables[name] = et
	}
	e.epoch.Store(next)
	e.epochPublished.Add(1)
	if cur != nil {
		cur.release(e)
	}
	return next
}

// pinCurrent pins and returns the current epoch (nil before the first
// PublishEpoch). Safe from any goroutine.
func (e *Engine) pinCurrent() *Epoch {
	ep := e.epoch.Load()
	if ep == nil {
		return nil
	}
	ep.pins.Add(1)
	return ep
}

// EpochRead answers one read-only query against the current epoch
// without touching the live engine: any number of goroutines may call
// it concurrently with each other and with the owning goroutine's
// reorganisation (writes, ApplyIntent, PublishEpoch). The query's work
// is recorded in the epoch read tallies, never in the deterministic
// counters. On success the caller must invoke info.Release exactly
// once after it has finished with the result.
func (e *Engine) EpochRead(q Query) (*Result, EpochInfo, error) {
	if q.CountOnly && len(q.Project) > 0 {
		return nil, EpochInfo{}, fmt.Errorf("engine: a count-only query cannot project (%v)", q.Project)
	}
	ep := e.pinCurrent()
	if ep == nil {
		return nil, EpochInfo{}, fmt.Errorf("engine: no epoch published")
	}
	release := func() { ep.release(e) }
	et, ok := ep.tables[q.Table]
	if !ok {
		release()
		return nil, EpochInfo{}, fmt.Errorf("%w: %q", ErrUnknownTable, q.Table)
	}
	if _, ok := et.cols[q.Column]; !ok {
		release()
		return nil, EpochInfo{}, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, q.Column)
	}
	for _, attr := range q.Project {
		if _, ok := et.cols[attr]; !ok {
			release()
			return nil, EpochInfo{}, fmt.Errorf("%w: %q.%q", ErrUnknownColumn, q.Table, attr)
		}
	}

	var c cost.Counters
	if q.Trace != nil {
		q.Trace.Begin(trace.PhaseEpochPin)
	}
	res, needsReorg := e.epochAnswer(ep, et, q, &c)
	if q.Trace != nil {
		q.Trace.End(trace.WorkOf(c))
	}
	e.epochReads.Add(1)
	e.epochReadWork.Add(c.Total())
	return res, EpochInfo{Seq: ep.Seq, NeedsReorg: needsReorg, Release: release}, nil
}

// epochAnswer computes the query result against the pinned epoch,
// charging work to the reader-local counters.
func (e *Engine) epochAnswer(ep *Epoch, et *epochTable, q Query, c *cost.Counters) (*Result, bool) {
	needsReorg := false
	res := &Result{Path: PathCracking}
	ec := ep.cols[key(q.Table, q.Column)]
	switch {
	case ec == nil:
		// No cracked snapshot for this column yet: answer from the
		// table view and ask the reorganiser to build the cracker.
		res.Path = PathScan
		needsReorg = true
		vals := et.cols[q.Column]
		if q.CountOnly {
			n := 0
			for i, v := range vals {
				c.ValuesTouched++
				if et.isDead(column.RowID(i)) {
					continue
				}
				c.Comparisons++
				if q.R.Contains(v) {
					n++
				}
			}
			res.Count = n
		} else {
			var rows column.IDList
			for i, v := range vals {
				c.ValuesTouched++
				if et.isDead(column.RowID(i)) {
					continue
				}
				c.Comparisons++
				if q.R.Contains(v) {
					rows = append(rows, column.RowID(i))
					c.TuplesCopied++
				}
			}
			res.Rows = rows
			res.Count = len(rows)
		}
	case q.CountOnly:
		// Pending updates are patched in, not a reason to reorganise:
		// the owner drains them in batches.
		n, boundary := ec.snap.Count(q.R, c)
		needsReorg = boundary
		for _, p := range ec.pendDel {
			c.Comparisons++
			if q.R.Contains(p.Val) {
				n--
			}
		}
		for _, p := range ec.pendIns {
			c.Comparisons++
			if q.R.Contains(p.Val) {
				n++
			}
		}
		res.Count = n
	default:
		rows, boundary := ec.snap.Select(q.R, c)
		needsReorg = boundary
		var dropped map[column.RowID]bool
		for _, p := range ec.pendDel {
			c.Comparisons++
			if q.R.Contains(p.Val) {
				if dropped == nil {
					dropped = make(map[column.RowID]bool)
				}
				dropped[p.Row] = true
			}
		}
		for _, p := range ec.pendIns {
			c.Comparisons++
			if q.R.Contains(p.Val) {
				rows = append(rows, p.Row)
				c.TuplesCopied++
			}
		}
		if dropped != nil {
			kept := rows[:0]
			for _, row := range rows {
				if !dropped[row] {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		res.Rows = rows
		res.Count = len(rows)
	}
	if len(q.Project) > 0 && !q.CountOnly {
		res.Columns = make(map[string][]column.Value, len(q.Project))
		for _, attr := range q.Project {
			vals := et.cols[attr]
			out := make([]column.Value, len(res.Rows))
			core.GatherValues(out, vals, res.Rows)
			if res.Path == PathCracking {
				c.RandomTouches += uint64(len(res.Rows))
			} else {
				c.ValuesTouched += uint64(len(res.Rows))
			}
			c.TuplesCopied += uint64(len(res.Rows))
			res.Columns[attr] = out
		}
	}
	return res, needsReorg
}

// ApplyIntent runs one deferred crack on the owning goroutine: it
// creates the cracker column on first touch and cracks the pieces the
// intent's predicate ends in, but merges no pending updates (see
// MergePending). The non-recurring share of the work is re-attributed
// to MergeWork — reorganisation moved off the query path is priced
// like merge work, which the planner's recurring component already
// models.
func (e *Engine) ApplyIntent(in Intent) error {
	t, err := e.cat.Table(in.Table)
	if err != nil {
		return err
	}
	uc, err := e.crackerFor(t, in.Column)
	if err != nil {
		return err
	}
	tc := key(in.Table, in.Column)
	piecesBefore := uc.Cracker().NumPieces()
	ins, del, _ := e.mergedFor(tc)
	before := uc.Cost()
	uc.Crack(in.R)
	delta := uc.Cost().Sub(before)
	if t, r := delta.Total(), delta.Recurring(); t > r {
		e.c.MergeWork += t - r
	}
	if e.events != nil {
		e.emitReorgEvents(tc, PathCracking, piecesBefore, ins, del)
	}
	e.intentsApplied.Add(1)
	return nil
}

// MergeDue reports whether some cracked column's pending backlog has
// reached the threshold at which one batched sweep beats per-row
// ripples (updates.Column.MergeThreshold). It is O(cracked columns).
func (e *Engine) MergeDue() bool {
	for _, uc := range e.crackers {
		if uc.PendingRows() >= uc.MergeThreshold() {
			return true
		}
	}
	return false
}

// MergePending drains the pending updates of every cracked column whose
// backlog reached its threshold — of every column with any backlog when
// all is set — with one batched sweep per column, charged to MergeWork,
// and returns the number of rows merged. Beside epoch readers this is
// how buffered writes reach the cracked layouts; it must run on the
// owning goroutine.
func (e *Engine) MergePending(all bool) int {
	merged := 0
	for tc, uc := range e.crackers {
		pending := uc.PendingRows()
		if pending == 0 || (!all && pending < uc.MergeThreshold()) {
			continue
		}
		pieces := uc.Cracker().NumPieces()
		ins, del, _ := e.mergedFor(tc)
		merged += uc.MergeBatch()
		if e.events != nil {
			e.emitReorgEvents(tc, PathCracking, pieces, ins, del)
		}
	}
	return merged
}

// EpochStats reports the epoch machinery's counters. Safe from any
// goroutine.
func (e *Engine) EpochStats() api.EpochStats {
	st := api.EpochStats{
		Published:      e.epochPublished.Load(),
		Retired:        e.epochRetired.Load(),
		IntentsApplied: e.intentsApplied.Load(),
		Reads:          e.epochReads.Load(),
		ReadWork:       e.epochReadWork.Load(),
	}
	if ep := e.epoch.Load(); ep != nil {
		st.Seq = ep.Seq
		st.Pins = ep.pins.Load()
	}
	return st
}
