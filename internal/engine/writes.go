// The engine's write surface.
//
// "Updating a cracked database" (SIGMOD 2007) keeps updates adaptive:
// instead of reorganising the cracked columns on every write, pending
// insertions and deletions are buffered and ripple-merged only when —
// and only to the extent that — a query actually touches the affected
// key range. This file lifts that mechanism from the single-column
// library (internal/updates) to the multi-table engine:
//
//   - The base table applies every write immediately (append-only
//     arrays plus tombstones), so all access paths read their own
//     writes: a scan filters tombstones, projections keep indexing by
//     stable row identifier.
//   - Each cracked selection column is an updates.Column; the table's
//     merge policy (gradual, complete, immediate) decides when its
//     pending buffers drain into the cracked layout.
//   - Sideways map sets have no incremental update story, so a write
//     invalidates them; they rebuild lazily from the live tuples, and
//     the rebuild — like a ripple merge — is charged as recurring merge
//     work to the path that pays it, which is how the PathAuto planner
//     learns that sideways cracking is expensive under a sustained
//     write stream.
package engine

import (
	"fmt"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/updates"
)

// SetMergePolicy sets the default merge policy for every table without
// an explicit override, updating existing cracked columns. It should
// be called before the engine serves writes; switching with pending
// buffers is safe (the buffers drain under the new policy).
func (e *Engine) SetMergePolicy(p updates.MergePolicy) {
	e.defaultPolicy = p
	for k, uc := range e.crackers {
		if _, overridden := e.tablePolicies[k.Table]; !overridden {
			uc.SetPolicy(p)
		}
	}
}

// SetTableMergePolicy overrides the merge policy for one table,
// updating its existing cracked columns.
func (e *Engine) SetTableMergePolicy(table string, p updates.MergePolicy) error {
	if _, err := e.cat.Table(table); err != nil {
		return err
	}
	e.tablePolicies[table] = p
	for k, uc := range e.crackers {
		if k.Table == table {
			uc.SetPolicy(p)
		}
	}
	return nil
}

// MergePolicyFor returns the merge policy writes to the table follow.
func (e *Engine) MergePolicyFor(table string) updates.MergePolicy {
	if p, ok := e.tablePolicies[table]; ok {
		return p
	}
	return e.defaultPolicy
}

// InsertRow appends one tuple — one value per column, in the table's
// column creation order — and returns its row identifier. The base
// table sees the row immediately; cracked selection columns buffer or
// apply it per the table's merge policy; sideways map sets over the
// table are invalidated.
func (e *Engine) InsertRow(table string, vals []column.Value) (column.RowID, error) {
	t, err := e.cat.Table(table)
	if err != nil {
		return 0, err
	}
	row, err := t.AppendRow(vals)
	if err != nil {
		return 0, err
	}
	for ci, col := range t.order {
		if uc, ok := e.crackers[key(table, col)]; ok {
			if err := uc.InsertAt(row, vals[ci]); err != nil {
				return 0, fmt.Errorf("engine: insert into %s.%s: %w", table, col, err)
			}
		}
	}
	e.invalidateDerived(t)
	e.writes.Inserts++
	return row, nil
}

// DeleteRow tombstones the tuple with the given row identifier. It
// returns ErrRowNotFound when the row does not exist or was already
// deleted.
func (e *Engine) DeleteRow(table string, row column.RowID) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	if err := t.DeleteRow(row); err != nil {
		return err
	}
	for _, col := range t.order {
		if uc, ok := e.crackers[key(table, col)]; ok {
			if err := uc.Delete(row); err != nil {
				// The cracked column holds every live row of the table,
				// so a miss here is an invariant violation, not a user
				// error.
				return fmt.Errorf("engine: delete from %s.%s: %w", table, col, err)
			}
		}
	}
	e.invalidateDerived(t)
	e.writes.Deletes++
	return nil
}

// invalidateDerived drops the sideways map sets of a written table.
// They rebuild lazily from the live tuples; the rebuild is charged as
// merge work (see mapsetFor). The dropped set's accumulated cost is folded into the engine's own
// counters first — cumulative cost must never move backwards, or the
// planner's per-query deltas would underflow.
func (e *Engine) invalidateDerived(t *Table) {
	for _, col := range t.order {
		k := key(t.name, col)
		if ms, ok := e.mapsets[k]; ok {
			e.c.Add(ms.Cost())
			delete(e.mapsets, k)
			e.staleSideways[k] = true
			e.writes.Invalidations++
		}
	}
}

// WriteStats reports the engine's write-path state.
func (e *Engine) WriteStats() api.WriteStats {
	s := api.WriteStats{WriteCounters: e.writes}
	for _, uc := range e.crackers {
		s.PendingInserts += uc.PendingInsertions()
		s.PendingDeletes += uc.PendingDeletions()
		s.MergedInserts += uc.MergedInserts()
		s.MergedDeletes += uc.MergedDeletions()
	}
	return s
}
