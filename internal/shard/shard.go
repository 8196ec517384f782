// Package shard scales the adaptive execution engine across cores by
// hosting N independent engine.Engine shards, each owning a disjoint
// row stripe of every catalog table, behind one scatter-gather front.
//
// The source paper's cracking line deliberately keeps the core
// algorithm single-threaded — structure emerges from the query stream,
// and the stream is sequential — which is why the service layer funnels
// every query through one executor goroutine. This package scales out
// without changing that: each shard is a whole engine with its own
// sequential stream. Rows are striped round-robin by row identifier:
// global row g lives on shard g mod N at local identifier g div N. The
// mapping is arithmetic in both directions, appends in global order
// always land at the next local slot of the owning shard (so inserts
// need no routing table), and N=1 is the identity — a one-shard
// cluster is byte-identical to a bare engine on every deterministic
// counter.
//
// Every read fans out to all N shards (a stripe holds a slice of every
// value range, so no shard can be pruned), runs the same query on each
// shard's 1/N-sized adaptive structures, and merges the per-shard
// counts, ID-lists and projections; each shard pays ~1/N of the
// single-engine cracking and materialisation work, concurrently.
// Writes route to the single owning shard. The per-shard engines stay
// single-threaded: a Cluster, like an Engine, is NOT safe for
// concurrent use — the batch scheduler in internal/server (or any
// other single caller) serialises operations against it, and each
// operation internally fans out to short-lived per-shard goroutines.
package shard

import (
	"fmt"
	"io"
	"sync"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/persist"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/updates"
)

// The striping contract, shared by the in-process Cluster and the
// multi-node router (internal/router), which applies the identical
// arithmetic over the wire: global row g lives on stripe g mod N at
// local identifier g div N, and appends in global order always land at
// the next local slot of the owning stripe.

// Owner returns the stripe owning global row g among n stripes.
func Owner(g, n int) int { return g % n }

// Local returns global row g's local identifier on its owning stripe.
func Local(g, n int) int { return g / n }

// Global maps a stripe-local row identifier back to the global space:
// global = local*N + stripe.
func Global(local column.RowID, stripe, n int) column.RowID {
	return local*column.RowID(n) + column.RowID(stripe)
}

// Globalize appends the global identifiers of one stripe's local rows
// to out, in order.
func Globalize(rows column.IDList, stripe, n int, out column.IDList) column.IDList {
	for _, l := range rows {
		out = append(out, Global(l, stripe, n))
	}
	return out
}

// Stripe extracts stripe s of n from cat's base data: each table keeps
// its schema, and stripe s owns global rows s, s+n, s+2n, … as its
// local rows 0, 1, 2, …. The catalog must be freshly built (no appended
// or deleted rows): writes belong to whoever owns the global row space.
// It is how Cluster builds its per-shard catalogs and how a crackserve
// node hosts one stripe of a multi-node cluster's logical catalog.
func Stripe(cat *engine.Catalog, s, n int) (*engine.Catalog, error) {
	if n < 1 || s < 0 || s >= n {
		return nil, fmt.Errorf("shard: stripe %d/%d out of range", s, n)
	}
	names := cat.Tables()
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: catalog has no tables")
	}
	out := engine.NewCatalog()
	for _, name := range names {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		if t.NumRows() != t.BaseRows() || len(t.DeletedRows()) > 0 {
			return nil, fmt.Errorf("shard: table %q already carries writes; stripe a fresh catalog", name)
		}
		nr := t.NumRows()
		st := engine.NewTable(name)
		cnt := (nr - s + n - 1) / n
		if cnt < 0 {
			cnt = 0
		}
		for _, col := range t.Columns() {
			vals, err := t.Column(col)
			if err != nil {
				return nil, err
			}
			stripe := make([]column.Value, 0, cnt)
			for g := s; g < nr; g += n {
				stripe = append(stripe, vals[g])
			}
			if err := st.AddColumn(col, stripe); err != nil {
				return nil, err
			}
		}
		if err := out.Register(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// StripeResult is one stripe's contribution to a scatter-gather read:
// the qualifying count, the stripe-local row identifiers, and the
// projected values aligned with them. It is deliberately minimal so
// both an in-process engine.Result and a decoded wire response can be
// merged by the same code.
type StripeResult struct {
	Count   int
	Rows    column.IDList
	Columns map[string][]column.Value
}

// MergeStriped merges per-stripe results (parts[s] is stripe s of
// len(parts)) into one global result: counts are summed, row
// identifiers are mapped to the global space and concatenated in
// stripe order, and projected columns follow their rows. countOnly
// skips row and projection assembly. A nil part contributes nothing —
// the router uses that for stripes whose node is down (the answer is
// then explicitly partial).
func MergeStriped(parts []StripeResult, project []string, countOnly bool) StripeResult {
	n := len(parts)
	var out StripeResult
	total := 0
	for _, p := range parts {
		out.Count += p.Count
		total += len(p.Rows)
	}
	if countOnly {
		return out
	}
	out.Rows = make(column.IDList, 0, total)
	for s, p := range parts {
		out.Rows = Globalize(p.Rows, s, n, out.Rows)
	}
	if len(project) > 0 {
		out.Columns = make(map[string][]column.Value, len(project))
		for _, col := range project {
			merged := make([]column.Value, 0, total)
			for _, p := range parts {
				merged = append(merged, p.Columns[col]...)
			}
			out.Columns[col] = merged
		}
	}
	return out
}

// Cluster fronts N row-striped engine shards. Construct it with New;
// the zero value is not usable. Not safe for concurrent use (see the
// package comment).
type Cluster struct {
	shards []*engine.Engine
	// nrows is the number of global row slots per table (tombstones
	// included): the next insert's global row identifier.
	nrows map[string]int
}

// New builds a cluster of n engine shards over cat's base data: each
// table is striped round-robin by row identifier, so shard s owns
// global rows s, s+n, s+2n, … as its local rows 0, 1, 2, …. The
// catalog must be freshly built (no appended or deleted rows): writes
// belong to the cluster, which owns the global row-identifier space
// from here on. cat itself is only read.
func New(cat *engine.Catalog, n int, opts core.Options) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	names := cat.Tables()
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: catalog has no tables")
	}
	nrows := make(map[string]int, len(names))
	for _, name := range names {
		t, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		nrows[name] = t.NumRows()
	}
	c := &Cluster{shards: make([]*engine.Engine, n), nrows: nrows}
	for s := range c.shards {
		part, err := Stripe(cat, s, n)
		if err != nil {
			return nil, err
		}
		c.shards[s] = engine.New(part, opts)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Engines exposes the per-shard engines, in shard order, for snapshot
// plumbing and tests. Callers must respect the cluster's
// single-caller contract.
func (c *Cluster) Engines() []*engine.Engine { return c.shards }

// Run executes one query on every shard concurrently and merges the
// per-shard results: counts are summed, row identifiers are mapped
// back to the global space and concatenated in shard order, and
// projected columns follow their rows. A one-shard cluster delegates
// directly, so its results, spans and cost counters are byte-identical
// to a bare engine's. For traced queries the fan-out and merge are
// recorded as a shard_gather span whose children are the slowest
// shard's engine phases.
func (c *Cluster) Run(q engine.Query) (*engine.Result, error) {
	if len(c.shards) == 1 {
		return c.shards[0].Run(q)
	}
	rec := q.Trace
	q.Trace = nil
	var subRecs []*trace.Recorder
	if rec != nil {
		rec.Begin(trace.PhaseShardGather)
		subRecs = make([]*trace.Recorder, len(c.shards))
	}
	results := make([]*engine.Result, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sq := q
			if rec != nil {
				subRecs[s] = trace.NewRecorder()
				sq.Trace = subRecs[s]
			}
			results[s], errs[s] = c.shards[s].Run(sq)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if rec != nil {
				rec.End(trace.Work{})
			}
			return nil, err
		}
	}

	parts := make([]StripeResult, len(results))
	for s, r := range results {
		parts[s] = StripeResult{Count: r.Count, Rows: r.Rows, Columns: r.Columns}
	}
	merged := MergeStriped(parts, q.Project, q.CountOnly)
	out := &engine.Result{
		Path: results[0].Path, Count: merged.Count,
		Rows: merged.Rows, Columns: merged.Columns,
	}
	if rec != nil {
		// The gather span's children are the slowest shard's engine
		// phases — the ones on the query's critical path — and its work
		// delta is the summed work of all shards, so span work still
		// reconciles with the movement of the cluster's counters.
		slowest := 0
		for s := range subRecs {
			if subRecs[s].Root().ChildDurUs() > subRecs[slowest].Root().ChildDurUs() {
				slowest = s
			}
		}
		rec.Import(subRecs[slowest].Root().Spans)
		var w trace.Work
		for s := range subRecs {
			w.Add(subRecs[s].Root().SumWork())
		}
		rec.End(w)
	}
	return out, nil
}

// InsertRow appends one row to the table, returning its global row
// identifier. The row lands on shard g mod N, where g is the next
// global row slot; by the striping invariant the owning shard's local
// append position is exactly g div N.
func (c *Cluster) InsertRow(table string, vals []column.Value) (column.RowID, error) {
	g, ok := c.nrows[table]
	if !ok {
		// Unknown table: let a shard engine produce the canonical error.
		return c.shards[0].InsertRow(table, vals)
	}
	s := Owner(g, len(c.shards))
	local, err := c.shards[s].InsertRow(table, vals)
	if err != nil {
		return 0, err
	}
	c.nrows[table] = g + 1
	want := column.RowID(Local(g, len(c.shards)))
	if local != want {
		panic(fmt.Sprintf("shard: stripe invariant broken: table %q global row %d landed at local %d on shard %d, want %d",
			table, g, local, s, want))
	}
	return column.RowID(g), nil
}

// DeleteRow tombstones the global row on its owning shard.
func (c *Cluster) DeleteRow(table string, row column.RowID) error {
	n := column.RowID(len(c.shards))
	return c.shards[int(row%n)].DeleteRow(table, row/n)
}

// Tables aggregates the catalog summary across shards: row and
// live-row counts are summed over the stripes; schema and merge policy
// are identical on every shard and reported from shard 0.
func (c *Cluster) Tables() []engine.TableInfo {
	infos := c.shards[0].Tables()
	for s := 1; s < len(c.shards); s++ {
		for i, ti := range c.shards[s].Tables() {
			infos[i].Rows += ti.Rows
			infos[i].LiveRows += ti.LiveRows
		}
	}
	return infos
}

// Structures sums the adaptive-structure inventory over the shards.
func (c *Cluster) Structures() engine.StructureStats {
	var agg engine.StructureStats
	for _, e := range c.shards {
		s := e.Structures()
		agg.Crackers += s.Crackers
		agg.MapSets += s.MapSets
		agg.CrackerPieces += s.CrackerPieces
		agg.MapPieces += s.MapPieces
		agg.Pieces += s.Pieces
		agg.MapHistory += s.MapHistory
	}
	return agg
}

// PlanStats reports shard 0's planner state as the cluster's. Every
// shard sees the same query stream over the same data distribution, so
// the planners converge on the same choices; reporting one keeps the
// surface identical to a single engine's.
func (c *Cluster) PlanStats() []engine.PlanStats { return c.shards[0].PlanStats() }

// Cost sums the cumulative logical work over the shards, in shard
// order. Each shard's counters are deterministic for a given stream,
// so the sum is too — goroutine scheduling cannot move it.
func (c *Cluster) Cost() cost.Counters {
	var agg cost.Counters
	for _, e := range c.shards {
		agg.Add(e.Cost())
	}
	return agg
}

// WriteStats sums the write-path state over the shards.
func (c *Cluster) WriteStats() engine.WriteStats {
	var agg engine.WriteStats
	for _, e := range c.shards {
		ws := e.WriteStats()
		agg.Inserts += ws.Inserts
		agg.Deletes += ws.Deletes
		agg.Invalidations += ws.Invalidations
		agg.PendingInserts += ws.PendingInserts
		agg.PendingDeletes += ws.PendingDeletes
		agg.MergedInserts += ws.MergedInserts
		agg.MergedDeletes += ws.MergedDeletes
	}
	return agg
}

// ShardStats reports each shard's stripe size, logical work and
// pending-update depth, so stripe or write skew is visible.
func (c *Cluster) ShardStats() []engine.ShardStat {
	out := make([]engine.ShardStat, len(c.shards))
	for s, e := range c.shards {
		cc := e.Cost()
		ws := e.WriteStats()
		st := engine.ShardStat{
			Shard:          s,
			WorkTotal:      cc.Total(),
			MergeWork:      cc.MergeWork,
			PendingInserts: ws.PendingInserts,
			PendingDeletes: ws.PendingDeletes,
		}
		for _, ti := range e.Tables() {
			st.Rows += ti.Rows
			st.LiveRows += ti.LiveRows
		}
		out[s] = st
	}
	return out
}

// SetEventLog routes every shard's reorganisation events into the same
// log (trace.Log is internally synchronised, so concurrent shard
// executions may append to it).
func (c *Cluster) SetEventLog(l *trace.Log) {
	for _, e := range c.shards {
		e.SetEventLog(l)
	}
}

// SetMergePolicy sets the default write merge policy on every shard.
func (c *Cluster) SetMergePolicy(p updates.MergePolicy) {
	for _, e := range c.shards {
		e.SetMergePolicy(p)
	}
}

// SetTableMergePolicy overrides one table's merge policy on every
// shard.
func (c *Cluster) SetTableMergePolicy(table string, p updates.MergePolicy) error {
	for _, e := range c.shards {
		if err := e.SetTableMergePolicy(table, p); err != nil {
			return err
		}
	}
	return nil
}

// SetPlannerOptions tunes the PathAuto planner on every shard.
func (c *Cluster) SetPlannerOptions(opts engine.PlannerOptions) {
	for _, e := range c.shards {
		e.SetPlannerOptions(opts)
	}
}

// Validate checks every shard's adaptive structures against its
// stripe.
func (c *Cluster) Validate() error {
	for s, e := range c.shards {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// SnapshotTo writes the cluster's adaptive state — one engine state
// per shard, in shard order — as a persist cluster snapshot.
func (c *Cluster) SnapshotTo(w io.Writer) error {
	states := make([]engine.State, len(c.shards))
	for s, e := range c.shards {
		states[s] = e.Snapshot()
	}
	return persist.SaveCluster(w, states)
}

// Restore applies per-shard engine states, as written by SnapshotTo,
// to a freshly built cluster over the same striped base data. The
// snapshot's shard count must match: re-striping cracked state across
// a different shard count would scramble the row identifier mapping.
func (c *Cluster) Restore(states []engine.State) error {
	if len(states) != len(c.shards) {
		return fmt.Errorf("shard: snapshot holds %d shard states, cluster has %d shards; restart with -shards %d or delete the snapshot",
			len(states), len(c.shards), len(states))
	}
	for s, e := range c.shards {
		if err := e.Restore(states[s]); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	// Appended rows arrived through the cluster's global row space:
	// recover each table's global slot count as the sum of the shard
	// slot counts (the stripes partition the global identifiers).
	for name := range c.nrows {
		total := 0
		for _, e := range c.shards {
			for _, ti := range e.Tables() {
				if ti.Name == name {
					total += ti.Rows
				}
			}
		}
		c.nrows[name] = total
	}
	return nil
}
