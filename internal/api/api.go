// Package api is the shared wire contract of the crack service: the
// JSON request/response shapes spoken on /query, /update, /stats,
// /healthz and /fingerprint, an explicit schema version, and the typed
// client every in-repo HTTP consumer uses.
//
// The shapes used to live as private structs in internal/server's HTTP
// layer, re-declared ad hoc by crackload; a third consumer — the
// multi-node router — made that untenable. They live here now, consumed
// by the server, by crackload, and by internal/router, so there is
// exactly one definition of the wire surface and exactly one
// HTTP-consumer code path (Client).
//
// Versioning: every request may carry "v"; absent means v1. Servers
// reject unknown versions and unknown fields with a clear error naming
// the supported version, so schema drift fails loudly at the edge
// instead of being silently ignored.
package api

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
)

// SchemaVersion is the wire schema this package speaks. Requests carry
// it in "v"; absent means version 1 (the shape predates the field).
const SchemaVersion = 1

// checkVersion rejects any explicit version this package does not
// speak. Zero means the field was absent, i.e. v1.
func checkVersion(v int) error {
	if v != 0 && v != SchemaVersion {
		return fmt.Errorf("unsupported schema version %d (this server speaks v%d)", v, SchemaVersion)
	}
	return nil
}

// QueryRequest is the wire form of one query.
//
//	POST /query {"op":"count","table":"orders","column":"c0","low":10,"high":20}
//	POST /query {"op":"select","table":"orders","column":"c0","low":10,"high":20,
//	             "project":["c1","c2"],"path":"auto"}
//
// Omitted bounds are unbounded; incLow defaults to true and incHigh to
// false, so {low, high} is the canonical half-open interval [low, high).
// Omitted table, column and path fall back to the service defaults
// (the daemon's first table, its first column, and "auto").
type QueryRequest struct {
	// V is the wire schema version; absent (0) means v1.
	V int `json:"v,omitempty"`
	// Op is "count" (default) or "select".
	Op      string `json:"op,omitempty"`
	Table   string `json:"table,omitempty"`
	Column  string `json:"column,omitempty"`
	Low     *int64 `json:"low,omitempty"`
	High    *int64 `json:"high,omitempty"`
	IncLow  *bool  `json:"incLow,omitempty"`
	IncHigh *bool  `json:"incHigh,omitempty"`
	// Project names the columns to return alongside the qualifying
	// rows (select only).
	Project []string `json:"project,omitempty"`
	// Path selects the access path ("scan", "cracking", "sideways",
	// "auto"); empty means the service default.
	Path string `json:"path,omitempty"`
	// Trace asks for the query's phase span tree in the response (the
	// X-Crack-Trace header does the same without touching the body).
	Trace bool `json:"trace,omitempty"`
}

// Range converts the wire form to the internal predicate.
func (q QueryRequest) Range() column.Range {
	r := column.Range{IncLow: true}
	if q.Low != nil {
		r.HasLow, r.Low = true, *q.Low
	}
	if q.High != nil {
		r.HasHigh, r.High = true, *q.High
	}
	if q.IncLow != nil {
		r.IncLow = *q.IncLow
	}
	if q.IncHigh != nil {
		r.IncHigh = *q.IncHigh
	}
	return r
}

// DecodeQuery parses one QueryRequest strictly: unknown fields and
// unknown schema versions are rejected.
func DecodeQuery(r io.Reader) (QueryRequest, error) {
	var q QueryRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return q, err
	}
	return q, checkVersion(q.V)
}

// QueryResponse is the wire form of a query result.
type QueryResponse struct {
	Count int `json:"count"`
	// Rows carries the qualifying row identifiers for select queries.
	Rows []column.RowID `json:"rows,omitempty"`
	// Columns holds the projected values, positionally aligned with
	// Rows, for select-project queries.
	Columns map[string][]column.Value `json:"columns,omitempty"`
	// Path is the access path that executed the query (the planner's
	// choice when the request said "auto").
	Path string `json:"path"`
	// LatencyUs is the server-side latency of this query, queueing
	// included.
	LatencyUs int64 `json:"latency_us"`
	// Partial marks a router answer assembled without every stripe:
	// nodes already marked down are skipped and named in MissingNodes.
	// Counts and rows then cover only the surviving stripes.
	Partial      bool  `json:"partial,omitempty"`
	MissingNodes []int `json:"missing_nodes,omitempty"`
	// Trace is the phase span tree for traced queries (see
	// trace.Span); absent unless the request asked for it.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ErrorResponse is the wire form of a failure.
type ErrorResponse struct {
	Error string `json:"error"`
	// Nodes carries the per-backend breakdown when a router request
	// failed against a multi-node cluster.
	Nodes []NodeError `json:"nodes,omitempty"`
}

// NodeError describes one backend node's part in a failed router
// request.
type NodeError struct {
	Node  int    `json:"node"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// UpdateOp is the wire form of one mutation.
//
//	{"op":"insert","table":"orders","rows":[[7,8,9],[1,2,3]]}
//	{"op":"delete","table":"orders","rows":[17,42]}
//
// For "insert", rows holds one array of values per inserted row (one
// value per table column, in column order); a single-column table may
// give bare numbers instead of one-element arrays. For "delete", rows
// holds row identifiers. An omitted table falls back to the service
// default.
type UpdateOp struct {
	// Op is "insert" or "delete".
	Op    string          `json:"op"`
	Table string          `json:"table,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// UpdateRequest is the wire form of one write request: a single
// mutation, or a batch of them via ops (applied in order).
//
//	POST /update {"op":"insert","table":"orders","rows":[[7,8,9]]}
//	POST /update {"ops":[{"op":"insert","rows":[[7,8,9]]},
//	              {"op":"delete","rows":[3]}]}
type UpdateRequest struct {
	// V is the wire schema version; absent (0) means v1.
	V int `json:"v,omitempty"`
	UpdateOp
	Ops []UpdateOp `json:"ops,omitempty"`
}

// DecodeUpdate parses one UpdateRequest strictly: unknown fields and
// unknown schema versions are rejected.
func DecodeUpdate(r io.Reader) (UpdateRequest, error) {
	var u UpdateRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		return u, err
	}
	return u, checkVersion(u.V)
}

// UpdateResponse is the wire form of a write result.
type UpdateResponse struct {
	// Inserted holds the row identifiers assigned to inserted rows, in
	// submission order.
	Inserted []column.RowID `json:"inserted,omitempty"`
	// Deleted is the number of deleted rows.
	Deleted int `json:"deleted"`
	// PendingInserts and PendingDeletes echo the engine-wide buffered
	// update depth after this request.
	PendingInserts int `json:"pending_inserts"`
	PendingDeletes int `json:"pending_deletes"`
	// LatencyUs is the server-side latency of this request, queueing
	// included.
	LatencyUs int64 `json:"latency_us"`
}

// WriteOp is one resolved mutation: an insert of whole rows or a
// delete of row identifiers against one table.
type WriteOp struct {
	Table  string
	Insert [][]column.Value
	Delete []column.RowID
}

// WriteOps converts the wire form to resolved write ops. With "ops",
// a top-level "table" is the default for every op that does not name
// its own.
func (u UpdateRequest) WriteOps() ([]WriteOp, error) {
	ops := u.Ops
	if len(ops) == 0 {
		ops = []UpdateOp{u.UpdateOp}
	} else if u.Op != "" || len(u.Rows) > 0 {
		return nil, fmt.Errorf("give either a single op or \"ops\", not both")
	}
	out := make([]WriteOp, 0, len(ops))
	for _, op := range ops {
		if op.Table == "" {
			op.Table = u.Table
		}
		w := WriteOp{Table: op.Table}
		switch op.Op {
		case "insert":
			rows, err := DecodeInsertRows(op.Rows)
			if err != nil {
				return nil, err
			}
			w.Insert = rows
		case "delete":
			if err := json.Unmarshal(op.Rows, &w.Delete); err != nil {
				return nil, fmt.Errorf("delete rows must be row identifiers: %v", err)
			}
		default:
			return nil, fmt.Errorf("unknown op %q (want insert or delete)", op.Op)
		}
		out = append(out, w)
	}
	return out, nil
}

// DecodeInsertRows accepts rows as arrays of values (one per column)
// or, for single-column tables, bare numbers.
func DecodeInsertRows(raw json.RawMessage) ([][]column.Value, error) {
	var rows [][]column.Value
	if err := json.Unmarshal(raw, &rows); err == nil {
		return rows, nil
	}
	var flat []column.Value
	if err := json.Unmarshal(raw, &flat); err != nil {
		return nil, fmt.Errorf("insert rows must be arrays of column values (or bare values for a one-column table)")
	}
	rows = make([][]column.Value, len(flat))
	for i, v := range flat {
		rows[i] = []column.Value{v}
	}
	return rows, nil
}

// Health is the wire form of /healthz. OK means the process is alive;
// Ready means the engine is restored and serving (a booting daemon
// answers 503 with Ready false until its snapshot restore completes).
type Health struct {
	OK    bool `json:"ok"`
	Ready bool `json:"ready"`
}

// FingerprintResponse is the wire form of /fingerprint: a stable hash
// of the node's catalog shape and row population, used by the router to
// verify that a restarted backend restored the same stripe it owned
// before it died.
type FingerprintResponse struct {
	Fingerprint string `json:"fingerprint"`
}

// CatalogFingerprint hashes a catalog summary — table names, column
// names, row-slot and live-row counts — into a stable hex string. Two
// nodes fingerprint equal iff they host the same schema with the same
// row population, which is exactly the re-admission condition for a
// restarted stripe owner: its v5 snapshot restored the rows it owned.
func CatalogFingerprint(tables []TableStats) string {
	h := fnv.New64a()
	for _, t := range tables {
		io.WriteString(h, t.Table)
		h.Write([]byte{0})
		for _, c := range t.Columns {
			io.WriteString(h, c)
			h.Write([]byte{0})
		}
		io.WriteString(h, strconv.Itoa(t.Rows))
		h.Write([]byte{0})
		io.WriteString(h, strconv.Itoa(t.LiveRows))
		h.Write([]byte{0xff})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// TableStats describes one catalog table. Rows counts row slots
// (tombstones included — it is one past the largest row identifier);
// LiveRows counts live tuples. MergePolicy names when buffered writes
// merge into the table's cracked columns.
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
	Tables     []TableStats          `json:"tables"`
	Structures engine.StructureStats `json:"structures"`
	Planner    []engine.PlanStats    `json:"planner"`
	WorkTotal  uint64                `json:"work_total"`

	// WriteState is the engine's write-path state: applied and merged
	// update counts plus the current pending-buffer depth.
	WriteState engine.WriteStats `json:"write_state"`

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
	Shards     int                `json:"shards"`
	ShardStats []engine.ShardStat `json:"shard_stats,omitempty"`

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
	Epoch engine.EpochStats `json:"epoch"`
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
