// Package router is the multi-node half of scale-out: a thin,
// stateless-by-design front that fans /query and /update out to N
// crackserve backend nodes, each hosting one row stripe of the same
// logical catalog, and merges the per-node answers into one.
//
// The striping contract is the in-process shard cluster's, lifted over
// the wire; both take it from internal/api: global row g lives on node
// g mod N at local identifier g div N, appends in global order land at
// the next local slot of the owning node, and N=1 is the identity — a
// router over one backend is byte-identical to that backend on every
// deterministic cost counter. Every read fans out to all nodes (a
// stripe holds a slice of every value range), counts are summed and
// ID-lists/projections gathered in node order by api.MergeStriped;
// writes route to the single owning node, serialised by the router so
// the global row space stays densely striped.
//
// The router speaks only the front-end contract: its replies, /stats
// sums, latency histogram and /metrics exposition come from
// internal/api and internal/trace, the same code a crackserve node
// runs, and it links no engine code.
//
// Robustness is first-class. Each node is health-probed on an interval
// and walks an up → degraded → down state machine: a failed probe (or
// data-path failure) degrades it, DownAfter consecutive failures take
// it down, and a recovered node is re-admitted only once its health
// probe passes AND its catalog fingerprint matches what the router
// expects its stripe to hold — which proves its v5 snapshot restored
// the rows it owned. Reads retry idempotently with bounded exponential
// backoff; a read that loses a node believed up fails fast with 503 and
// a per-node error breakdown, while nodes already marked down are
// skipped and the answer is explicitly partial. Writes to a down
// stripe owner are refused with 503 naming the node — never retried,
// never rerouted — so the fingerprint the router expects of the dead
// node stays valid until it returns.
package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/trace"
)

// Node states.
const (
	stateUp int32 = iota
	stateDegraded
	stateDown
)

func stateName(s int32) string {
	switch s {
	case stateUp:
		return "up"
	case stateDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// Config configures a Router.
type Config struct {
	// Nodes lists the backend crackserve addresses, in stripe order:
	// Nodes[s] owns global rows g with g mod N == s.
	Nodes []string
	// Proto is the router→backend query protocol: "json" (default) or
	// "binary"; Block is the streamed block size for binary.
	Proto string
	Block int
	// Sessions sizes each backend client's keep-alive pool (default 64).
	Sessions int
	// Timeout bounds each backend request (default 5s).
	Timeout time.Duration
	// Retries is how many times an idempotent read against one node is
	// retried after its first failure (zero or negative: no retries;
	// crackrouter's -retries defaults to 2); RetryBackoff is the initial
	// backoff, doubled per retry (default 25ms).
	Retries      int
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe cadence (default 250ms);
	// DownAfter is how many consecutive probe failures take a degraded
	// node down (default 2).
	ProbeInterval time.Duration
	DownAfter     int
}

func (c Config) withDefaults() Config {
	if c.Proto == "" {
		c.Proto = "json"
	}
	if c.Sessions < 1 {
		c.Sessions = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.DownAfter < 1 {
		c.DownAfter = 2
	}
	return c
}

// tableShape is the router's bookkeeping for one table on one node:
// enough to recompute the node's catalog fingerprint locally.
type tableShape struct {
	rows int // row slots (tombstones included)
	live int // live tuples
}

// node is one backend and its health state.
type node struct {
	id     int
	addr   string
	client *api.Client

	state atomic.Int32
	fails atomic.Int32 // consecutive probe/data-path failures

	queries atomic.Uint64
	errors  atomic.Uint64

	// shape is the router's view of the node's stripe (guarded by the
	// router's mu): table name → row population. The expected
	// fingerprint for re-admission is computed from it, so it must
	// track every write the router routes to this node.
	shape map[string]tableShape
}

func (n *node) stateName() string { return stateName(n.state.Load()) }

// Router fans queries and updates out to N striped backends. Construct
// with New; the zero value is not usable. Safe for concurrent use:
// reads fan out concurrently, writes are serialised by an internal
// mutex (the global row space demands it), health probing runs in a
// background goroutine until Close.
type Router struct {
	cfg   Config
	nodes []*node

	// mu guards nrows, per-node shapes, and write forwarding: global
	// row identifiers are assigned g = nrows[table], nrows[table]+1, …
	// in submission order, so writes must not interleave.
	mu    sync.Mutex
	nrows map[string]int

	// Catalog facts learned at boot (schema is identical across nodes).
	columns      map[string][]string // table → column names
	mergePolicy  map[string]string
	tableOrder   []string
	defaultTable string
	defaultCol   string
	defaultPath  string

	hist        trace.Histogram // client-observed read latency
	queries     atomic.Uint64
	writes      atomic.Uint64
	errs        atomic.Uint64
	partials    atomic.Uint64
	retries     atomic.Uint64
	readmits    atomic.Uint64
	encFailures atomic.Uint64
	traced      atomic.Uint64

	started  time.Time
	probeCtx context.Context
	stop     context.CancelFunc
	probes   sync.WaitGroup
}

// New connects to the configured backends, verifies they form a
// consistent striped cluster, and starts health probing. Every node
// must be up and ready at boot: the striping contract cannot be
// learned from a partial cluster.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("router: need at least one backend node")
	}
	r := &Router{
		cfg:         cfg,
		nrows:       make(map[string]int),
		columns:     make(map[string][]string),
		mergePolicy: make(map[string]string),
		started:     time.Now(),
	}
	n := len(cfg.Nodes)
	for i, addr := range cfg.Nodes {
		nd := &node{
			id:   i,
			addr: addr,
			client: api.NewClient(addr, api.ClientOptions{
				Proto: cfg.Proto, Block: cfg.Block,
				Sessions: cfg.Sessions, Timeout: cfg.Timeout,
			}),
			shape: make(map[string]tableShape),
		}
		r.nodes = append(r.nodes, nd)
	}
	// Learn each node's catalog and verify the cluster is consistent.
	for i, nd := range r.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		h, err := nd.client.Health(ctx)
		if err == nil && !(h.OK && h.Ready) {
			err = fmt.Errorf("not ready")
		}
		var st api.Stats
		if err == nil {
			st, err = nd.client.Stats(ctx)
		}
		cancel()
		if err != nil {
			return nil, fmt.Errorf("router: node %d (%s): %w", i, nd.addr, err)
		}
		if i == 0 {
			r.defaultTable = st.DefaultTable
			r.defaultCol = st.DefaultColumn
			r.defaultPath = st.DefaultPath
			for _, t := range st.Tables {
				r.tableOrder = append(r.tableOrder, t.Table)
				r.columns[t.Table] = t.Columns
				r.mergePolicy[t.Table] = t.MergePolicy
			}
		}
		seen := make(map[string]bool, len(st.Tables))
		for _, t := range st.Tables {
			cols, ok := r.columns[t.Table]
			if !ok || len(cols) != len(t.Columns) {
				return nil, fmt.Errorf("router: node %d (%s) serves a different catalog (table %q)", i, nd.addr, t.Table)
			}
			for ci, c := range cols {
				if t.Columns[ci] != c {
					return nil, fmt.Errorf("router: node %d (%s) serves a different schema for table %q", i, nd.addr, t.Table)
				}
			}
			seen[t.Table] = true
			nd.shape[t.Table] = tableShape{rows: t.Rows, live: t.LiveRows}
			r.nrows[t.Table] += t.Rows
		}
		if len(seen) != len(r.tableOrder) {
			return nil, fmt.Errorf("router: node %d (%s) serves %d tables, node 0 serves %d", i, nd.addr, len(seen), len(r.tableOrder))
		}
	}
	// Verify the row populations actually form stripes of one global
	// space: node s must hold ceil((nr-s)/n) slots of each table.
	for _, name := range r.tableOrder {
		nr := r.nrows[name]
		for s, nd := range r.nodes {
			want := (nr - s + n - 1) / n
			if want < 0 {
				want = 0
			}
			if got := nd.shape[name].rows; got != want {
				return nil, fmt.Errorf("router: table %q: node %d holds %d row slots, want %d for stripe %d/%d — nodes are not stripes of one catalog (start each crackserve with -stripe s/%d over the same -tables)",
					name, s, got, want, s, n, n)
			}
		}
	}
	r.probeCtx, r.stop = context.WithCancel(context.Background())
	r.probes.Add(1)
	go r.probeLoop()
	return r, nil
}

// Close stops health probing. In-flight requests finish normally.
func (r *Router) Close() {
	r.stop()
	r.probes.Wait()
}

// Nodes returns the node count.
func (r *Router) Nodes() int { return len(r.nodes) }

// expectedFingerprint computes what a node's catalog fingerprint must
// be for its stripe, from the router's own write bookkeeping. Caller
// holds r.mu.
func (r *Router) expectedFingerprint(nd *node) string {
	tables := make([]api.TableStats, 0, len(r.tableOrder))
	for _, name := range r.tableOrder {
		sh := nd.shape[name]
		tables = append(tables, api.TableStats{
			Table: name, Rows: sh.rows, LiveRows: sh.live,
			Columns: r.columns[name],
		})
	}
	return api.CatalogFingerprint(tables)
}

// registerFailure records a data-path or probe failure against a node:
// an up node degrades immediately; DownAfter consecutive failures take
// it down.
func (r *Router) registerFailure(nd *node) {
	fails := nd.fails.Add(1)
	switch nd.state.Load() {
	case stateUp:
		nd.state.Store(stateDegraded)
	case stateDegraded:
		if int(fails) >= r.cfg.DownAfter {
			nd.state.Store(stateDown)
		}
	}
}

// probeLoop walks each node's health on the configured cadence.
func (r *Router) probeLoop() {
	defer r.probes.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.probeCtx.Done():
			return
		case <-ticker.C:
		}
		for _, nd := range r.nodes {
			r.probe(nd)
		}
	}
}

// probe checks one node and advances its state machine.
func (r *Router) probe(nd *node) {
	ctx, cancel := context.WithTimeout(r.probeCtx, r.cfg.Timeout)
	defer cancel()
	h, err := nd.client.Health(ctx)
	healthy := err == nil && h.OK && h.Ready
	if !healthy {
		if r.probeCtx.Err() != nil {
			return // shutting down, not a node failure
		}
		r.registerFailure(nd)
		return
	}
	switch nd.state.Load() {
	case stateUp, stateDegraded:
		nd.fails.Store(0)
		nd.state.Store(stateUp)
	case stateDown:
		// Re-admission: the probe passed, but the node must also prove
		// it restored the stripe it owned — its catalog fingerprint has
		// to match the router's bookkeeping. A node that came back
		// empty (lost its snapshot) stays out rather than serving holes.
		fp, err := nd.client.Fingerprint(ctx)
		if err != nil {
			return
		}
		r.mu.Lock()
		want := r.expectedFingerprint(nd)
		r.mu.Unlock()
		if fp != want {
			return
		}
		nd.fails.Store(0)
		nd.state.Store(stateUp)
		r.readmits.Add(1)
	}
}

// nodeError is one node's failure in a fan-out.
type nodeError struct {
	node *node
	err  error
}

// errorBreakdown renders the per-node state for a 503 body.
func (r *Router) errorBreakdown(failed []nodeError) []api.NodeError {
	byID := make(map[int]error, len(failed))
	for _, f := range failed {
		byID[f.node.id] = f.err
	}
	out := make([]api.NodeError, 0, len(r.nodes))
	for _, nd := range r.nodes {
		ne := api.NodeError{Node: nd.id, Addr: nd.addr, State: nd.stateName()}
		if err, ok := byID[nd.id]; ok && err != nil {
			ne.Error = err.Error()
		}
		out = append(out, ne)
	}
	return out
}

// retryable reports whether a read failure is worth retrying against
// the same node: transport errors and 5xx are; 4xx are deterministic
// client mistakes and are not.
func retryable(err error) bool {
	var se *api.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true
}

// sortedInts returns xs ascending (small helper for MissingNodes).
func sortedInts(xs []int) []int {
	sort.Ints(xs)
	return xs
}
