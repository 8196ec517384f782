// Package api is the front-end contract of the crack service: the JSON
// request/response shapes spoken on /query, /update, /stats, /healthz
// and /fingerprint, an explicit schema version, the /stats types the
// engine fills, the row-stripe arithmetic, the reply writers, and the
// typed client every in-repo HTTP consumer uses.
//
// The crackserve node, the multi-node router and crackload all speak
// through it: one definition of the wire surface, one way to put a
// reply on it (reply.go), one HTTP-consumer code path (Client). It
// links no engine code, so neither the router nor crackload does.
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

// UpdateErrorResponse is the wire form of a failed write: ops apply in
// order, so it carries the prefix applied before the failure.
type UpdateErrorResponse struct {
	ErrorResponse
	Inserted []column.RowID `json:"inserted,omitempty"`
	Deleted  int            `json:"deleted"`
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
