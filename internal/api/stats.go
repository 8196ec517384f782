package api

import (
	"runtime"

	"adaptiveindex/internal/trace"
)

// The /stats payload. The engine fills the adaptive-state summaries,
// but they are plain data, so front ends and clients read them without
// linking it; clusters and the router aggregate stripes with Add.

// TableStats describes one catalog table. Rows counts row slots
// (tombstones included — it is one past the largest row identifier);
// LiveRows counts live tuples; Columns lists the column names in schema
// order. MergePolicy names when buffered writes merge into the table's
// cracked columns. The engine reports its catalog in this shape, so
// hosts that are not a single engine — a shard cluster, the router —
// describe theirs by summing stripes with Add.
type TableStats struct {
	Table       string   `json:"table"`
	Rows        int      `json:"rows"`
	LiveRows    int      `json:"live_rows"`
	Columns     []string `json:"columns"`
	MergePolicy string   `json:"merge_policy"`
}

// LatencyStats summarises a latency distribution, in microseconds.
type LatencyStats struct {
	Count   uint64 `json:"count"`
	MeanUs  uint64 `json:"mean_us"`
	P50Us   uint64 `json:"p50_us"`
	P95Us   uint64 `json:"p95_us"`
	P99Us   uint64 `json:"p99_us"`
	MaxUs   uint64 `json:"max_us"`
	TotalUs uint64 `json:"total_us"`
}

// PhaseStats is the latency summary of one execution phase, aggregated
// over traced queries.
type PhaseStats struct {
	Phase   string       `json:"phase"`
	Latency LatencyStats `json:"latency"`
}

// ProcessStats is process-level health: scheduler pressure and memory
// behaviour that no query counter exposes.
type ProcessStats struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	GCPauseTotalUs uint64 `json:"gc_pause_total_us"`
	NumGC          uint32 `json:"num_gc"`
	// SnapshotAgeSeconds is how old the restored snapshot is (zero when
	// the engine started cold) — a proxy for how much adaptive
	// convergence was inherited rather than earned by this process.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
}

// EventLogStats describes the reorganisation event ring served at
// /debug/events. LastSeq is also the total number of events ever
// appended, so its rate is the reorganisation rate.
type EventLogStats struct {
	LastSeq  uint64 `json:"last_seq"`
	Capacity int    `json:"capacity"`
}

// NodeStats is one backend's row in a router's cluster /stats view.
type NodeStats struct {
	Node        int    `json:"node"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Queries     uint64 `json:"queries"`
	Errors      uint64 `json:"errors"`
	WorkTotal   uint64 `json:"work_total"`
	Rows        int    `json:"rows"`
	LiveRows    int    `json:"live_rows"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Stats is the service's observable state, served by /stats. A
// crackserve node reports its own engine; a crackrouter reports the
// merged cluster view in the same shape (tables, structures, work and
// write state summed across stripes) plus a per-node breakdown in
// Nodes, so /stats consumers work unchanged against either.
type Stats struct {
	// Tables lists the hosted catalog; Structures counts the adaptive
	// structures (and cracked pieces) the workload has built so far;
	// Planner is the per-column PathAuto state; WorkTotal is the
	// engine's cumulative logical work.
	Tables     []TableStats   `json:"tables"`
	Structures StructureStats `json:"structures"`
	Planner    []PlanStats    `json:"planner"`
	WorkTotal  uint64         `json:"work_total"`

	// WriteState is the engine's write-path state: applied and merged
	// update counts plus the current pending-buffer depth.
	WriteState WriteStats `json:"write_state"`

	// DefaultTable, DefaultColumn and DefaultPath echo what queries get
	// when they omit the fields.
	DefaultTable  string `json:"default_table"`
	DefaultColumn string `json:"default_column"`
	DefaultPath   string `json:"default_path"`

	// Mode is "batched", "direct", or "router"; BatchWindowUs and
	// MaxBatch echo the scheduler configuration.
	Mode          string `json:"mode"`
	BatchWindowUs int64  `json:"batch_window_us"`
	MaxBatch      int    `json:"max_batch"`

	// Queries is the number of answered queries; Writes the number of
	// applied write requests; Rejected counts admissions refused at the
	// in-flight limit.
	Queries  uint64 `json:"queries"`
	Writes   uint64 `json:"writes"`
	Rejected uint64 `json:"rejected"`
	// Batches is the number of executed batches; SharedScans counts
	// queries answered by an execution shared with an identical query
	// in the same batch; MaxBatchSeen is the largest batch executed so
	// far.
	Batches      uint64 `json:"batches"`
	SharedScans  uint64 `json:"shared_scans"`
	MaxBatchSeen int64  `json:"max_batch_seen"`
	// EncodeFailures counts responses (JSON or binary) whose encode or
	// write back to the client failed; those clients saw a truncated or
	// empty body, not the result.
	EncodeFailures uint64 `json:"encode_failures"`

	// InFlight and MaxInFlight describe the admission state.
	InFlight    int64 `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`

	Latency LatencyStats `json:"latency"`

	// TracedQueries counts queries that asked for span tracing; Phases
	// aggregates their per-phase durations (phases never observed are
	// omitted).
	TracedQueries uint64       `json:"traced_queries"`
	Phases        []PhaseStats `json:"phases,omitempty"`

	// Shards is the number of engine shards answering each query (1 for
	// a single-engine service); ShardStats breaks the adaptive state
	// down per shard when the service fronts a cluster.
	Shards     int         `json:"shards"`
	ShardStats []ShardStat `json:"shard_stats,omitempty"`

	// Readers is the epoch read concurrency (0 or 1: every query on the
	// serialised executor); Reorg describes the epoch read machinery
	// when Readers > 1.
	Readers int         `json:"readers"`
	Reorg   *ReorgStats `json:"reorg,omitempty"`

	// Nodes breaks a router's cluster view down per backend node;
	// absent on a crackserve node's own stats.
	Nodes []NodeStats `json:"nodes,omitempty"`

	Process  ProcessStats  `json:"process"`
	EventLog EventLogStats `json:"event_log"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReorgStats describes the epoch read machinery behind Readers > 1:
// the epoch lifecycle counters, the crack-intent queue, and the
// reorganiser's lag behind the readers.
type ReorgStats struct {
	// Epoch is the executor's epoch lifecycle state (publications,
	// retirements, applied intents, epoch reads and their summed work).
	Epoch EpochStats `json:"epoch"`
	// Backlog is the current depth of the crack-intent queue;
	// IntentsQueued and IntentsDropped count enqueues and queue-full
	// drops over the service's lifetime.
	Backlog        int    `json:"backlog"`
	IntentsQueued  uint64 `json:"intents_queued"`
	IntentsDropped uint64 `json:"intents_dropped"`
	// LagUs is the queue delay of the most recently applied intent, in
	// microseconds — how far the reorganiser runs behind the readers.
	LagUs uint64 `json:"lag_us"`
}

// Add sums another stripe's row and live-row counts into t; schema and
// merge policy are the same on every stripe and stay as they are.
func (t *TableStats) Add(o TableStats) {
	t.Rows += o.Rows
	t.LiveRows += o.LiveRows
}

// StructureStats summarises the adaptive structures an engine has
// built so far.
type StructureStats struct {
	// Crackers and MapSets count the per-column structures of each
	// kind.
	Crackers int `json:"crackers"`
	MapSets  int `json:"map_sets"`
	// CrackerPieces and MapPieces break the cracked pieces down by
	// structure kind; Pieces is their total.
	CrackerPieces int `json:"cracker_pieces"`
	MapPieces     int `json:"map_pieces"`
	Pieces        int `json:"pieces"`
	// MapHistory is the crack history the map sets still keep: bounds
	// some materialised map has not applied yet (0 while every set has
	// a single map).
	MapHistory int `json:"map_history"`
}

// Add sums another stripe's inventory into s.
func (s *StructureStats) Add(o StructureStats) {
	s.Crackers += o.Crackers
	s.MapSets += o.MapSets
	s.CrackerPieces += o.CrackerPieces
	s.MapPieces += o.MapPieces
	s.Pieces += o.Pieces
	s.MapHistory += o.MapHistory
}

// PlanPathStats is the observable per-path state of one column's
// planner.
type PlanPathStats struct {
	Path    string  `json:"path"`
	Queries uint64  `json:"queries"`
	AvgWork float64 `json:"avg_work"`
	EWMA    float64 `json:"ewma_work"`
	WallUs  int64   `json:"wall_us"`
	Probes  int     `json:"probes"`
}

// PlanStats is the observable planner state for one (table, column).
type PlanStats struct {
	Table      string          `json:"table"`
	Column     string          `json:"column"`
	Phase      string          `json:"phase"`
	Chosen     string          `json:"chosen"`
	Baseline   float64         `json:"baseline_work"`
	ReExplores int             `json:"re_explores"`
	Paths      []PlanPathStats `json:"paths"`
}

// WriteCounters counts the writes an engine has applied.
type WriteCounters struct {
	// Inserts and Deletes count applied row operations.
	Inserts uint64 `json:"inserts"`
	Deletes uint64 `json:"deletes"`
	// Invalidations counts sideways map sets dropped by writes.
	Invalidations uint64 `json:"invalidations"`
}

// WriteStats is the observable write-path state of an engine.
type WriteStats struct {
	WriteCounters
	// PendingInserts and PendingDeletes are the current buffered depth
	// summed over every cracked selection column.
	PendingInserts int `json:"pending_inserts"`
	PendingDeletes int `json:"pending_deletes"`
	// MergedInserts and MergedDeletes count updates that have reached
	// the cracked layouts (immediately applied ones included).
	MergedInserts uint64 `json:"merged_inserts"`
	MergedDeletes uint64 `json:"merged_deletes"`
}

// Add sums another stripe's write-path state into w.
func (w *WriteStats) Add(o WriteStats) {
	w.Inserts += o.Inserts
	w.Deletes += o.Deletes
	w.Invalidations += o.Invalidations
	w.PendingInserts += o.PendingInserts
	w.PendingDeletes += o.PendingDeletes
	w.MergedInserts += o.MergedInserts
	w.MergedDeletes += o.MergedDeletes
}

// EpochStats is a point-in-time summary of the epoch machinery.
type EpochStats struct {
	// Seq is the current epoch's sequence number (0 before the first
	// publication).
	Seq uint64 `json:"seq"`
	// Published and Retired count epoch lifecycle transitions.
	Published uint64 `json:"published"`
	Retired   uint64 `json:"retired"`
	// IntentsApplied counts reorganiser-applied crack intents.
	IntentsApplied uint64 `json:"intents_applied"`
	// Reads counts epoch-pinned reads; ReadWork is their summed
	// logical work (kept apart from the engine's deterministic
	// counters).
	Reads    uint64 `json:"reads"`
	ReadWork uint64 `json:"read_work"`
	// Pins is the current epoch's live pin count, publisher reference
	// included.
	Pins int64 `json:"pins"`
}

// Add sums another stripe's lifecycle counters into e. Seq and Pins
// describe one epoch, not a total, and stay as they are.
func (e *EpochStats) Add(o EpochStats) {
	e.Published += o.Published
	e.Retired += o.Retired
	e.IntentsApplied += o.IntentsApplied
	e.Reads += o.Reads
	e.ReadWork += o.ReadWork
}

// ShardStat is one engine shard's share of a cluster's state: the row
// slots and live tuples of its stripe, its cumulative logical work and
// the slice of it caused by write merging, and its buffered update
// depth. A cluster of row-striped shards sends every query to every
// shard, so a skewed WorkTotal or LiveRows column is the signal that
// the stripes — or the write stream — are unbalanced.
type ShardStat struct {
	Shard          int    `json:"shard"`
	Rows           int    `json:"rows"`
	LiveRows       int    `json:"live_rows"`
	WorkTotal      uint64 `json:"work_total"`
	MergeWork      uint64 `json:"merge_work"`
	PendingInserts int    `json:"pending_inserts"`
	PendingDeletes int    `json:"pending_deletes"`
}

// Latency summarises a histogram's samples.
func Latency(h *trace.Histogram) LatencyStats {
	count, sum := h.Count(), h.SumUs()
	st := LatencyStats{
		Count:   count,
		P50Us:   h.Percentile(0.50),
		P95Us:   h.Percentile(0.95),
		P99Us:   h.Percentile(0.99),
		MaxUs:   h.MaxUs(),
		TotalUs: sum,
	}
	if count > 0 {
		st.MeanUs = sum / count
	}
	return st
}

// ReadProcessStats reads this process's goroutine count and memory
// behaviour. SnapshotAgeSeconds is left for the caller.
func ReadProcessStats() ProcessStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ProcessStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		GCPauseTotalUs: ms.PauseTotalNs / 1000,
		NumGC:          ms.NumGC,
	}
}
