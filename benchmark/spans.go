package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
)

// Span names, outermost first. A span's parent is the span of the same
// op one layer out (and, below the router, on the same node).
const (
	spanOp      = "op"             // client root: one operation as the caller sees it
	spanClient  = "api.client"     // around api.Client.Query / Update
	spanRouter  = "router.handler" // middleware around router.Handler()
	spanServer  = "server.handler" // middleware around server.Service.Handler()
	spanExecRun = "exec.run"       // delegating server.Exec: Run / EpochRead
	spanExecWr  = "exec.write"     // delegating server.Exec: InsertRow / DeleteRow
)

var spanLayer = map[string]int{spanOp: 0, spanClient: 1, spanRouter: 2, spanServer: 3, spanExecRun: 4, spanExecWr: 4}

// execKey is what an executor call is about — all the delegating wrapper
// can see of the op that caused it. Reads are keyed by their range,
// inserts by the row tag in c2, deletes by the row id.
type execKey struct {
	kind   opKind
	lo, hi int64
}

// span is one benchmark-owned interval around a layer boundary.
type span struct {
	Name   string `json:"name"`
	Node   int    `json:"node"` // backend node; -1 above the nodes
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op"`     // op sequence number; -1 when unresolved
	Parent int    `json:"parent"` // index of the parent span; -1 for roots and unresolved
	SelfNs int64  `json:"self_ns"`

	conn string  // handlers: the remote address the request arrived from
	key  execKey // exec spans
}

// connUse records that a client-side span obtained a connection (named by
// its local address) at a point in time. HTTP/1.1 carries one request at
// a time per connection, so the handler span that starts on that
// connection next belongs to the same op.
type connUse struct {
	at   int64
	span int
}

// tracer records spans in memory while on and resolves them after the
// run. All recording goes through one mutex: the traced section is never
// the source of an end-to-end number, and harness.tracing_overhead_ratio
// reports what it costs.
type tracer struct {
	on     atomic.Bool
	origin time.Time

	mu    sync.Mutex
	spans []span
	conns map[string][]connUse
	// keyOps maps what an executor call is about to the ops that asked
	// for it (more than one when a range repeats).
	keyOps map[execKey][]int64

	// Counted at the executor boundary, where the work happens.
	reads, zeroCrack atomic.Int64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), conns: make(map[string][]connUse), keyOps: make(map[execKey][]int64)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens s — its name, node and whatever else the caller knows of it —
// and returns its index; end closes it.
func (t *tracer) begin(s span) int {
	s.Parent, s.Start = -1, int64(time.Since(t.origin))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// expect tells the tracer which op is about to cause executor calls
// about key.
func (t *tracer) expect(key execKey, op int64) {
	t.mu.Lock()
	t.keyOps[key] = append(t.keyOps[key], op)
	t.mu.Unlock()
}

// clientTrace returns the httptrace hooks that tie the connections span
// id obtains to it. net/http composes them with any hooks the callee
// (api.Client) registers itself.
func (t *tracer) clientTrace(id int) *httptrace.ClientTrace {
	return &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		addr := info.Conn.LocalAddr().String()
		t.mu.Lock()
		t.conns[addr] = append(t.conns[addr], connUse{at: int64(time.Since(t.origin)), span: id})
		t.mu.Unlock()
	}}
}

// wrapHandler is the middleware around a layer's Handler(): it times the
// data-plane requests (/query, /update) and, for the router, hooks the
// outbound connections the request opens so the nodes' handler spans can
// find their parent. A nil tracer returns h unchanged.
func (t *tracer) wrapHandler(name string, node int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || (r.URL.Path != "/query" && r.URL.Path != "/update") {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(span{Name: name, Node: node, Op: -1, conn: r.RemoteAddr})
		if name == spanRouter {
			r = r.WithContext(httptrace.WithClientTrace(r.Context(), t.clientTrace(id)))
		}
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// tracedExec is the delegating wrapper passed as server.Config.Exec (or
// called directly by the embedded workloads): it times the calls that do
// work and counts, from the cost deltas the Exec surface already exposes,
// how many reads needed no reorganisation.
type tracedExec struct {
	server.Exec
	t    *tracer
	node int
}

// wrapExec wraps ex for node; a nil tracer returns ex unchanged.
func (t *tracer) wrapExec(node int, ex server.Exec) server.Exec {
	if t == nil {
		return ex
	}
	return &tracedExec{Exec: ex, t: t, node: node}
}

func readKey(q engine.Query) execKey {
	kind := opSelect
	if q.CountOnly {
		kind = opCount
	}
	return execKey{kind: kind, lo: q.R.Low, hi: q.R.High}
}

func (x *tracedExec) keyed(name string, key execKey) int {
	return x.t.begin(span{Name: name, Node: x.node, Op: -1, key: key})
}

func (x *tracedExec) Run(q engine.Query) (*engine.Result, error) {
	if !x.t.on.Load() {
		return x.Exec.Run(q)
	}
	// Run is owner-serialised, so reading Cost around it is safe.
	before := x.Exec.Cost()
	id := x.keyed(spanExecRun, readKey(q))
	res, err := x.Exec.Run(q)
	x.t.end(id)
	delta := x.Exec.Cost().Sub(before)
	x.t.reads.Add(1)
	if delta.Total() == delta.TuplesCopied+4*delta.RandomTouches {
		x.t.zeroCrack.Add(1)
	}
	return res, err
}

func (x *tracedExec) EpochRead(q engine.Query) (*engine.Result, engine.EpochInfo, error) {
	if !x.t.on.Load() {
		return x.Exec.EpochRead(q)
	}
	id := x.keyed(spanExecRun, readKey(q))
	res, info, err := x.Exec.EpochRead(q)
	x.t.end(id)
	x.t.reads.Add(1)
	if err == nil && !info.NeedsReorg {
		x.t.zeroCrack.Add(1)
	}
	return res, info, err
}

func (x *tracedExec) InsertRow(table string, vals []column.Value) (column.RowID, error) {
	if !x.t.on.Load() {
		return x.Exec.InsertRow(table, vals)
	}
	id := x.keyed(spanExecWr, execKey{kind: opInsert, lo: vals[len(vals)-1]})
	row, err := x.Exec.InsertRow(table, vals)
	x.t.end(id)
	return row, err
}

func (x *tracedExec) DeleteRow(table string, row column.RowID) error {
	if !x.t.on.Load() {
		return x.Exec.DeleteRow(table, row)
	}
	id := x.keyed(spanExecWr, execKey{kind: opDelete, lo: int64(row)})
	err := x.Exec.DeleteRow(table, row)
	x.t.end(id)
	return err
}

// resolve gives every span its op and parent and computes self times: a
// span's duration minus the part of it its children cover. It returns how
// many spans stayed without an op.
func (t *tracer) resolve() (unresolved int) {
	sp := t.spans
	byLayer := make([][]int, 5)
	for i := range sp {
		l := spanLayer[sp[i].Name]
		byLayer[l] = append(byLayer[l], i)
	}
	// Roots by op, for the containment check on key-resolved spans.
	root := make(map[int64]int, len(byLayer[0]))
	for _, i := range byLayer[0] {
		root[sp[i].Op] = i
	}
	// Handlers inherit the op of whoever held their connection when they
	// started; the router's handlers first, since they in turn own the
	// connections the nodes' handlers arrive on.
	for _, layer := range []int{2, 3} {
		for _, i := range byLayer[layer] {
			uses := t.conns[sp[i].conn]
			k := sort.Search(len(uses), func(k int) bool { return uses[k].at > sp[i].Start }) - 1
			if k < 0 {
				continue
			}
			p := uses[k].span
			if sp[p].End != 0 && sp[p].End < sp[i].Start {
				continue
			}
			sp[i].Op, sp[i].Parent = sp[p].Op, p
		}
	}
	// Executor calls find their op by what they are about, checked
	// against the op's own interval when a key repeats; their parent is
	// the same op's handler on the same node, or the root when the
	// caller is embedded.
	handler := make(map[[2]int64]int, len(byLayer[3]))
	for _, i := range byLayer[3] {
		if sp[i].Op >= 0 {
			handler[[2]int64{sp[i].Op, int64(sp[i].Node)}] = i
		}
	}
	for _, i := range byLayer[4] {
		for _, op := range t.keyOps[sp[i].key] {
			r, ok := root[op]
			if ok && sp[r].Start <= sp[i].Start && sp[i].End <= sp[r].End {
				sp[i].Op = op
				break
			}
		}
		if sp[i].Op < 0 {
			continue
		}
		if h, ok := handler[[2]int64{sp[i].Op, int64(sp[i].Node)}]; ok {
			sp[i].Parent = h
		} else {
			sp[i].Parent = root[sp[i].Op]
		}
	}
	// api.client spans carry their op from birth; their parent is the root.
	for _, i := range byLayer[1] {
		if r, ok := root[sp[i].Op]; ok {
			sp[i].Parent = r
		}
	}
	// Self time: subtract the union of the children's intervals.
	children := make(map[int][]int)
	for i := range sp {
		if sp[i].Op < 0 {
			unresolved++
		}
		if sp[i].Parent >= 0 {
			children[sp[i].Parent] = append(children[sp[i].Parent], i)
		}
	}
	for i := range sp {
		sp[i].SelfNs = selfTime(sp, i, children[i])
	}
	return unresolved
}

// selfTime is span i's duration minus the part covered by its children,
// which may overlap one another (two nodes answering in parallel).
func selfTime(sp []span, i int, kids []int) int64 {
	self := sp[i].End - sp[i].Start
	sort.Slice(kids, func(a, b int) bool { return sp[kids[a]].Start < sp[kids[b]].Start })
	covered := sp[i].Start
	for _, k := range kids {
		s, e := sp[k].Start, sp[k].End
		if s < covered {
			s = covered
		}
		if e > sp[i].End {
			e = sp[i].End
		}
		if e > s {
			self -= e - s
			covered = e
		}
	}
	return self
}

// selfByName sums self time per span name, in nanoseconds.
func (t *tracer) selfByName() map[string]int64 {
	out := make(map[string]int64)
	for i := range t.spans {
		out[t.spans[i].Name] += t.spans[i].SelfNs
	}
	return out
}

// maxSpanFile caps the span file: it is for reading, the metrics use
// every span.
const maxSpanFile = 50_000

// writeFile writes the first maxSpanFile resolved spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(len(t.spans), maxSpanFile)
	for i := 0; i < n && err == nil; i++ {
		err = enc.Encode(&t.spans[i])
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
