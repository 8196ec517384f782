package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// Handler returns the router's HTTP surface — the same contract a
// single crackserve node speaks, so clients (crackload included) work
// unchanged against a cluster:
//
//	POST /query         scatter-gather one query across the nodes
//	POST /update        route inserts/deletes to their stripe owners
//	GET  /stats         merged cluster view (api.Stats + per-node rows)
//	GET  /metrics       Prometheus text exposition (crackrouter_*)
//	GET  /healthz       ready iff every node is up
//	GET  /fingerprint   fingerprint of the merged logical catalog
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/query", methodGate(http.MethodPost, r.handleQuery))
	mux.Handle("/update", methodGate(http.MethodPost, r.handleUpdate))
	mux.Handle("/stats", methodGate(http.MethodGet, r.handleStats))
	mux.Handle("/metrics", methodGate(http.MethodGet, r.handleMetrics))
	mux.Handle("/healthz", methodGate(http.MethodGet, r.handleHealthz))
	mux.Handle("/fingerprint", methodGate(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		st := r.clusterStats()
		writeJSON(w, http.StatusOK, api.FingerprintResponse{
			Fingerprint: api.CatalogFingerprint(st.Tables),
		})
	}))
	return mux
}

// methodGate rejects every method but the given one with 405 and an
// Allow header.
func methodGate(method string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: method + " required"})
			return
		}
		h(w, req)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("router: response encode failed: %v", err)
	}
}

// wantTrace mirrors the server's trace opt-in: "trace":true in the
// body or an X-Crack-Trace header.
func wantTrace(q api.QueryRequest, req *http.Request) bool {
	if q.Trace {
		return true
	}
	switch v := req.Header.Get("X-Crack-Trace"); v {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	q, err := api.DecodeQuery(req.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid query: %v", err)})
		return
	}
	countOnly := q.Op == "" || q.Op == "count"
	if !countOnly && q.Op != "select" {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("unknown op %q (want count or select)", q.Op)})
		return
	}
	binary, blockRows := wire.Negotiate(req.Header.Get("Accept"))
	var rec *trace.Recorder
	if wantTrace(q, req) {
		rec = trace.NewRecorder()
		r.traced.Add(1)
	}
	r.queries.Add(1)
	start := time.Now()
	g := r.gather(req.Context(), q, countOnly, rec)
	switch {
	case g.badReq != nil:
		r.errs.Add(1)
		writeJSON(w, g.badReq.Status, api.ErrorResponse{Error: g.badReq.Resp.Error})
		return
	case len(g.failed) > 0:
		// Fail fast: a stripe owner we believed up is unreachable.
		r.errs.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
			Error: gatherError(g.failed),
			Nodes: r.errorBreakdown(g.failed),
		})
		return
	case len(g.missing) == len(r.nodes):
		r.errs.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
			Error: "all nodes down",
			Nodes: r.errorBreakdown(nil),
		})
		return
	}
	r.hist.Observe(time.Since(start))
	partial := len(g.missing) > 0
	if partial {
		r.partials.Add(1)
	}
	if binary && !partial {
		// Partial answers carry flags the binary format has no frame
		// for, so they fall back to JSON — like errors, they are for
		// clients that look, not for blind column decoders.
		r.writeBinary(w, q, g, blockRows, start, rec)
		return
	}
	resp := api.QueryResponse{
		Count:        g.merged.Count,
		Rows:         g.merged.Rows,
		Columns:      g.merged.Columns,
		Path:         g.path,
		LatencyUs:    time.Since(start).Microseconds(),
		Partial:      partial,
		MissingNodes: g.missing,
	}
	if rec != nil {
		rec.Begin(trace.PhaseEncode)
		rec.End(trace.Work{})
		root := rec.Finish()
		if spanJSON, err := json.Marshal(root); err == nil {
			resp.Trace = spanJSON
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeBinary streams one merged result in the binary columnar format,
// exactly as a single node would.
func (r *Router) writeBinary(w http.ResponseWriter, q api.QueryRequest, g gathered, blockRows int, start time.Time, rec *trace.Recorder) {
	w.Header().Set("Content-Type", wire.ContentType)
	enc := wire.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if rec != nil {
		rec.Begin(trace.PhaseEncode)
	}
	h := wire.Header{Count: g.merged.Count, Path: g.path, Columns: q.Project}
	if err := enc.WriteHeader(h); err != nil {
		r.encFailed(err)
		return
	}
	res := engine.Result{Count: g.merged.Count, Rows: g.merged.Rows, Columns: g.merged.Columns}
	err := res.Blocks(q.Project, blockRows, func(rows column.IDList, cols [][]column.Value) error {
		if err := enc.WriteBlock(rows, cols); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		r.encFailed(err)
		return
	}
	if rec != nil {
		rec.End(trace.Work{})
		root := rec.Finish()
		spanJSON, err := json.Marshal(root)
		if err == nil {
			err = enc.WriteTrace(spanJSON)
		}
		if err != nil {
			r.encFailed(err)
			return
		}
	}
	f := wire.Footer{TotalRows: uint64(len(g.merged.Rows)), LatencyUs: uint64(time.Since(start).Microseconds())}
	if err := enc.WriteFooter(f); err != nil {
		r.encFailed(err)
	}
}

func (r *Router) encFailed(err error) {
	r.encFailures.Add(1)
	log.Printf("router: response encode failed: %v", err)
}

func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	u, err := api.DecodeUpdate(req.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid update: %v", err)})
		return
	}
	ops, err := u.WriteOps()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	start := time.Now()
	reply, we := r.apply(req.Context(), ops)
	if we != nil {
		r.errs.Add(1)
		writeJSON(w, we.status, struct {
			api.ErrorResponse
			Inserted []column.RowID `json:"inserted,omitempty"`
			Deleted  int            `json:"deleted"`
		}{api.ErrorResponse{Error: we.msg, Nodes: we.nodes}, we.inserted, we.deleted})
		return
	}
	r.writes.Add(1)
	reply.LatencyUs = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, reply)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var down []api.NodeError
	for _, nd := range r.nodes {
		if nd.state.Load() != stateUp {
			down = append(down, api.NodeError{Node: nd.id, Addr: nd.addr, State: nd.stateName()})
		}
	}
	body := struct {
		api.Health
		Nodes []api.NodeError `json:"nodes,omitempty"`
	}{api.Health{OK: true, Ready: len(down) == 0}, down}
	status := http.StatusOK
	if len(down) > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// clusterStats assembles the merged cluster view: per-up-node /stats
// fetched concurrently, tables and counters summed across stripes, and
// a per-node breakdown. Down nodes contribute the router's bookkeeping
// of their stripe (rows/live) but no live counters.
func (r *Router) clusterStats() api.Stats {
	n := len(r.nodes)
	stats := make([]*api.Stats, n)
	var wg sync.WaitGroup
	for i, nd := range r.nodes {
		if nd.state.Load() == stateDown {
			continue
		}
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
			defer cancel()
			if st, err := nd.client.Stats(ctx); err == nil {
				stats[i] = &st
			}
		}(i, nd)
	}
	wg.Wait()

	r.mu.Lock()
	tables := make([]api.TableStats, 0, len(r.tableOrder))
	for _, name := range r.tableOrder {
		t := api.TableStats{Table: name, Columns: r.columns[name], MergePolicy: r.mergePolicy[name]}
		for _, nd := range r.nodes {
			sh := nd.shape[name]
			t.Rows += sh.rows
			t.LiveRows += sh.live
		}
		tables = append(tables, t)
	}
	nodeRows := make([]api.NodeStats, n)
	for i, nd := range r.nodes {
		ns := api.NodeStats{
			Node: i, Addr: nd.addr, State: nd.stateName(),
			Queries: nd.queries.Load(), Errors: nd.errors.Load(),
		}
		for _, name := range r.tableOrder {
			sh := nd.shape[name]
			ns.Rows += sh.rows
			ns.LiveRows += sh.live
		}
		ns.Fingerprint = r.expectedFingerprint(nd)
		nodeRows[i] = ns
	}
	r.mu.Unlock()

	out := api.Stats{
		Tables:        tables,
		Mode:          "router",
		DefaultTable:  r.defaultTable,
		DefaultColumn: r.defaultCol,
		DefaultPath:   r.defaultPath,
		Queries:       r.queries.Load(),
		Writes:        r.writes.Load(),
		TracedQueries: r.traced.Load(),
		Latency:       r.hist.Snapshot(),
		Nodes:         nodeRows,
		UptimeSeconds: time.Since(r.started).Seconds(),
	}
	out.EncodeFailures = r.encFailures.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Process = api.ProcessStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		GCPauseTotalUs: ms.PauseTotalNs / 1000,
		NumGC:          ms.NumGC,
	}
	for i, st := range stats {
		if st == nil {
			continue
		}
		out.WorkTotal += st.WorkTotal
		out.Shards += st.Shards
		out.Batches += st.Batches
		out.SharedScans += st.SharedScans
		out.Rejected += st.Rejected
		ws := st.WriteState
		out.WriteState.Inserts += ws.Inserts
		out.WriteState.Deletes += ws.Deletes
		out.WriteState.Invalidations += ws.Invalidations
		out.WriteState.PendingInserts += ws.PendingInserts
		out.WriteState.PendingDeletes += ws.PendingDeletes
		out.WriteState.MergedInserts += ws.MergedInserts
		out.WriteState.MergedDeletes += ws.MergedDeletes
		s := st.Structures
		out.Structures.Crackers += s.Crackers
		out.Structures.MapSets += s.MapSets
		out.Structures.CrackerPieces += s.CrackerPieces
		out.Structures.MapPieces += s.MapPieces
		out.Structures.Pieces += s.Pieces
		out.Structures.MapHistory += s.MapHistory
		nodeRows[i].WorkTotal = st.WorkTotal
		if out.Planner == nil {
			// Every node sees the same query stream over the same data
			// distribution, so one node's planner is representative —
			// the same argument shard.Cluster makes for shard 0.
			out.Planner = st.Planner
		}
	}
	return out
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.clusterStats())
}

// handleMetrics renders the router's own counters plus the summed
// cluster view in the Prometheus text exposition, prefixed
// crackrouter_ so a scrape of router and nodes never collides.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := r.clusterStats()
	var b strings.Builder

	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(&b, "%s %s\n", name, promFloat(v))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		fmt.Fprintf(&b, "%s %s\n", name, promFloat(v))
	}

	counter("crackrouter_queries_total", "Read queries routed.", float64(st.Queries))
	counter("crackrouter_writes_total", "Write requests routed.", float64(st.Writes))
	counter("crackrouter_errors_total", "Requests answered with an error.", float64(r.errs.Load()))
	counter("crackrouter_partials_total", "Reads answered without every stripe.", float64(r.partials.Load()))
	counter("crackrouter_retries_total", "Per-node read retries issued.", float64(r.retries.Load()))
	counter("crackrouter_readmissions_total", "Down nodes re-admitted after a matching fingerprint.", float64(r.readmits.Load()))
	counter("crackrouter_traced_queries_total", "Queries that requested span tracing.", float64(st.TracedQueries))
	counter("crackrouter_encode_failures_total", "Responses whose encode or write to the client failed.", float64(st.EncodeFailures))
	counter("crackrouter_cluster_work_units_total", "Cluster-wide cumulative logical work, summed over serving nodes.", float64(st.WorkTotal))

	up := 0
	for _, nd := range r.nodes {
		if nd.state.Load() == stateUp {
			up++
		}
	}
	gauge("crackrouter_nodes", "Backend nodes configured.", float64(len(r.nodes)))
	gauge("crackrouter_nodes_up", "Backend nodes currently up.", float64(up))
	gauge("crackrouter_cluster_shards", "Engine shards answering each query, summed over serving nodes.", float64(st.Shards))
	gauge("crackrouter_cluster_cracked_pieces", "Cracked pieces across serving nodes.", float64(st.Structures.Pieces))
	gauge("crackrouter_uptime_seconds", "Seconds since the router started.", st.UptimeSeconds)

	fmt.Fprintf(&b, "# HELP crackrouter_node_queries_total Reads fanned to each node.\n# TYPE crackrouter_node_queries_total counter\n")
	for _, ns := range st.Nodes {
		fmt.Fprintf(&b, "crackrouter_node_queries_total{node=%q} %d\n", strconv.Itoa(ns.Node), ns.Queries)
	}
	fmt.Fprintf(&b, "# HELP crackrouter_node_errors_total Failed requests per node.\n# TYPE crackrouter_node_errors_total counter\n")
	for _, ns := range st.Nodes {
		fmt.Fprintf(&b, "crackrouter_node_errors_total{node=%q} %d\n", strconv.Itoa(ns.Node), ns.Errors)
	}
	fmt.Fprintf(&b, "# HELP crackrouter_node_up Node state (1 up, 0.5 degraded, 0 down).\n# TYPE crackrouter_node_up gauge\n")
	for _, nd := range r.nodes {
		v := 0.0
		switch nd.state.Load() {
		case stateUp:
			v = 1
		case stateDegraded:
			v = 0.5
		}
		fmt.Fprintf(&b, "crackrouter_node_up{node=%q} %s\n", strconv.Itoa(nd.id), promFloat(v))
	}
	fmt.Fprintf(&b, "# HELP crackrouter_node_live_rows Live tuples in each node's stripe.\n# TYPE crackrouter_node_live_rows gauge\n")
	for _, ns := range st.Nodes {
		fmt.Fprintf(&b, "crackrouter_node_live_rows{node=%q} %d\n", strconv.Itoa(ns.Node), ns.LiveRows)
	}

	fmt.Fprintf(&b, "# HELP crackrouter_query_latency_seconds Router-side read latency, fan-out and merge included.\n# TYPE crackrouter_query_latency_seconds histogram\n")
	r.hist.WriteProm(&b, "crackrouter_query_latency_seconds", "")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := io.WriteString(w, b.String()); err != nil {
		r.encFailed(err)
	}
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
