package router

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"adaptiveindex/internal/api"
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
	mux.Handle("/query", api.MethodGate(http.MethodPost, r.encFailed, r.handleQuery))
	mux.Handle("/update", api.MethodGate(http.MethodPost, r.encFailed, r.handleUpdate))
	mux.Handle("/stats", api.MethodGate(http.MethodGet, r.encFailed, r.handleStats))
	mux.Handle("/metrics", api.MethodGate(http.MethodGet, r.encFailed, r.handleMetrics))
	mux.Handle("/healthz", api.MethodGate(http.MethodGet, r.encFailed, r.handleHealthz))
	mux.Handle("/fingerprint", api.MethodGate(http.MethodGet, r.encFailed, func(w http.ResponseWriter, _ *http.Request) {
		st := r.clusterStats()
		r.writeJSON(w, http.StatusOK, api.FingerprintResponse{
			Fingerprint: api.CatalogFingerprint(st.Tables),
		})
	}))
	return mux
}

// writeJSON writes one JSON reply, counting a failed encode.
func (r *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	if err := api.WriteJSON(w, status, v); err != nil {
		r.encFailed(err)
	}
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	q, err := api.DecodeQuery(req.Body)
	if err != nil {
		r.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid query: %v", err)})
		return
	}
	countOnly := q.Op == "" || q.Op == "count"
	if !countOnly && q.Op != "select" {
		r.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("unknown op %q (want count or select)", q.Op)})
		return
	}
	binary, blockRows := wire.Negotiate(req.Header.Get("Accept"))
	var rec *trace.Recorder
	if api.WantTrace(q, req) {
		rec = trace.NewRecorder()
		r.traced.Add(1)
	}
	r.queries.Add(1)
	start := time.Now()
	g := r.gather(req.Context(), q, countOnly, rec)
	switch {
	case g.badReq != nil:
		r.errs.Add(1)
		r.writeJSON(w, g.badReq.Status, api.ErrorResponse{Error: g.badReq.Resp.Error})
		return
	case len(g.failed) > 0:
		// Fail fast: a stripe owner we believed up is unreachable.
		r.errs.Add(1)
		r.writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
			Error: gatherError(g.failed),
			Nodes: r.errorBreakdown(g.failed),
		})
		return
	case len(g.missing) == len(r.nodes):
		r.errs.Add(1)
		r.writeJSON(w, http.StatusServiceUnavailable, api.ErrorResponse{
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
	out := api.QueryReply{
		Resp: api.QueryResponse{
			Count:        g.merged.Count,
			Rows:         g.merged.Rows,
			Columns:      g.merged.Columns,
			Path:         g.path,
			Partial:      partial,
			MissingNodes: g.missing,
		},
		Project: q.Project,
		Start:   start,
		Trace:   rec,
	}
	if binary && !partial {
		// Partial answers carry flags the binary format has no frame
		// for, so they fall back to JSON — like errors, they are for
		// clients that look, not for blind column decoders.
		err = out.WriteBinary(w, blockRows)
	} else {
		err = out.WriteJSON(w)
	}
	if err != nil {
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
		r.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("invalid update: %v", err)})
		return
	}
	ops, err := u.WriteOps()
	if err != nil {
		r.writeJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	start := time.Now()
	reply, we := r.apply(req.Context(), ops)
	if we != nil {
		r.errs.Add(1)
		r.writeJSON(w, we.status, api.UpdateErrorResponse{
			ErrorResponse: api.ErrorResponse{Error: we.msg, Nodes: we.nodes}, Inserted: we.inserted, Deleted: we.deleted})
		return
	}
	r.writes.Add(1)
	reply.LatencyUs = time.Since(start).Microseconds()
	r.writeJSON(w, http.StatusOK, reply)
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
	r.writeJSON(w, status, body)
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
		Tables:         tables,
		Mode:           "router",
		DefaultTable:   r.defaultTable,
		DefaultColumn:  r.defaultCol,
		DefaultPath:    r.defaultPath,
		Queries:        r.queries.Load(),
		Writes:         r.writes.Load(),
		TracedQueries:  r.traced.Load(),
		Latency:        api.Latency(&r.hist),
		Nodes:          nodeRows,
		EncodeFailures: r.encFailures.Load(),
		Process:        api.ReadProcessStats(),
		UptimeSeconds:  time.Since(r.started).Seconds(),
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
		out.WriteState.Add(st.WriteState)
		out.Structures.Add(st.Structures)
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
	r.writeJSON(w, http.StatusOK, r.clusterStats())
}

// handleMetrics renders the router's own counters plus the summed
// cluster view in the Prometheus text exposition, prefixed
// crackrouter_ so a scrape of router and nodes never collides.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := r.clusterStats()
	var p trace.PromWriter
	counter, gauge := p.Counter, p.Gauge

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

	perNode := func(name, typ, help string, value func(api.NodeStats) float64) {
		p.Meta(name, typ, help)
		for _, ns := range st.Nodes {
			p.Sample(name, trace.PromLabel("node", strconv.Itoa(ns.Node)), value(ns))
		}
	}
	perNode("crackrouter_node_queries_total", "counter", "Reads fanned to each node.",
		func(ns api.NodeStats) float64 { return float64(ns.Queries) })
	perNode("crackrouter_node_errors_total", "counter", "Failed requests per node.",
		func(ns api.NodeStats) float64 { return float64(ns.Errors) })
	perNode("crackrouter_node_up", "gauge", "Node state (1 up, 0.5 degraded, 0 down).",
		func(ns api.NodeStats) float64 { return nodeUp[ns.State] })
	perNode("crackrouter_node_live_rows", "gauge", "Live tuples in each node's stripe.",
		func(ns api.NodeStats) float64 { return float64(ns.LiveRows) })

	p.Meta("crackrouter_query_latency_seconds", "histogram", "Router-side read latency, fan-out and merge included.")
	p.Histogram("crackrouter_query_latency_seconds", "", &r.hist)

	w.Header().Set("Content-Type", trace.PromContentType)
	if _, err := io.WriteString(w, p.String()); err != nil {
		r.encFailed(err)
	}
}

// nodeUp is crackrouter_node_up's value for each node state.
var nodeUp = map[string]float64{"up": 1, "degraded": 0.5, "down": 0}
