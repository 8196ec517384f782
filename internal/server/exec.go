package server

import (
	"io"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/persist"
	"adaptiveindex/internal/trace"
)

// Exec is what the service hosts: a query/write executor over a
// catalog. A bare engine.Engine (wrapped by singleExec) and a
// shard-per-core cluster (internal/shard.Cluster) both satisfy it.
// Implementations are not required to be concurrency-safe; the service
// serialises every call — the executor goroutine owns the Exec in
// batched mode, the service latch does in direct mode — exactly as it
// always did for the bare engine.
type Exec interface {
	// Run executes one query.
	Run(q engine.Query) (*engine.Result, error)
	// InsertRow appends a row, returning its (global) row identifier;
	// DeleteRow tombstones one.
	InsertRow(table string, vals []column.Value) (column.RowID, error)
	DeleteRow(table string, row column.RowID) error
	// Tables summarises the hosted catalog, sorted by table name.
	Tables() []api.TableStats
	// Structures, PlanStats, Cost and WriteStats are the observable
	// adaptive state behind /stats and /metrics.
	Structures() api.StructureStats
	PlanStats() []api.PlanStats
	Cost() cost.Counters
	WriteStats() api.WriteStats
	// SetEventLog routes reorganisation events into the service's ring.
	SetEventLog(l *trace.Log)
	// Shards is the number of engine shards answering each query (1
	// for a bare engine); ShardStats breaks the state down per shard
	// (nil for a bare engine).
	Shards() int
	ShardStats() []api.ShardStat
	// SnapshotTo persists the executor's adaptive state through
	// internal/persist. Only called on a quiescent executor.
	SnapshotTo(w io.Writer) error
	// PublishEpoch captures the executor's state as the next immutable
	// epoch and returns its sequence number. Owner-goroutine only,
	// like every mutating call.
	PublishEpoch() uint64
	// EpochRead answers one read-only query against the current epoch
	// without touching live state; safe from any goroutine, concurrent
	// with the owner's writes and reorganisation. The caller must
	// invoke the returned info's Release exactly once.
	EpochRead(q engine.Query) (*engine.Result, engine.EpochInfo, error)
	// ApplyIntent applies one deferred crack intent (owner-goroutine
	// only); EpochStats reports the epoch machinery's counters (safe
	// from any goroutine).
	ApplyIntent(in engine.Intent) error
	EpochStats() api.EpochStats
	// MergeDue reports whether some cracked column's pending backlog
	// has reached its batch-merge threshold; MergePending drains those
	// backlogs (every backlog when all is set) with one batched sweep
	// per column and returns the rows merged. Owner-goroutine only.
	MergeDue() bool
	MergePending(all bool) int
}

// singleExec adapts a bare engine to the Exec surface.
type singleExec struct {
	eng *engine.Engine
}

func (x singleExec) Run(q engine.Query) (*engine.Result, error) { return x.eng.Run(q) }

func (x singleExec) InsertRow(table string, vals []column.Value) (column.RowID, error) {
	return x.eng.InsertRow(table, vals)
}

func (x singleExec) DeleteRow(table string, row column.RowID) error {
	return x.eng.DeleteRow(table, row)
}

func (x singleExec) Tables() []api.TableStats       { return x.eng.Tables() }
func (x singleExec) Structures() api.StructureStats { return x.eng.Structures() }
func (x singleExec) PlanStats() []api.PlanStats     { return x.eng.PlanStats() }
func (x singleExec) Cost() cost.Counters            { return x.eng.Cost() }
func (x singleExec) WriteStats() api.WriteStats     { return x.eng.WriteStats() }
func (x singleExec) SetEventLog(l *trace.Log)       { x.eng.SetEventLog(l) }
func (x singleExec) Shards() int                    { return 1 }
func (x singleExec) ShardStats() []api.ShardStat    { return nil }

func (x singleExec) SnapshotTo(w io.Writer) error { return persist.SaveEngine(w, x.eng) }

func (x singleExec) PublishEpoch() uint64 { return x.eng.PublishEpoch().Seq }

func (x singleExec) EpochRead(q engine.Query) (*engine.Result, engine.EpochInfo, error) {
	return x.eng.EpochRead(q)
}

func (x singleExec) ApplyIntent(in engine.Intent) error { return x.eng.ApplyIntent(in) }
func (x singleExec) EpochStats() api.EpochStats         { return x.eng.EpochStats() }
func (x singleExec) MergeDue() bool                     { return x.eng.MergeDue() }
func (x singleExec) MergePending(all bool) int          { return x.eng.MergePending(all) }
