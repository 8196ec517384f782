package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/trace"
)

// gathered is the outcome of one read fan-out.
type gathered struct {
	merged  api.StripeResult
	path    string
	missing []int       // nodes skipped because they were already down
	failed  []nodeError // nodes believed up whose request failed
	badReq  *api.StatusError
	// spans holds each answering node's decoded trace root, indexed by
	// node, for traced queries.
	spans []*trace.Span
}

// queryNode runs one read against one node with bounded
// exponential-backoff retries — reads are idempotent, so retrying a
// timed-out request cannot double-apply anything.
func (r *Router) queryNode(ctx context.Context, nd *node, q api.QueryRequest) (*api.QueryResult, error) {
	backoff := r.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, lastErr
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		actx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		res, err := nd.client.Query(actx, q)
		cancel()
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

// gather fans one read out to every serving node and merges the
// stripes. rec, when non-nil, must only be touched by this goroutine.
func (r *Router) gather(ctx context.Context, q api.QueryRequest, countOnly bool, rec *trace.Recorder) gathered {
	n := len(r.nodes)
	upstream := q
	upstream.Trace = rec != nil
	if rec != nil {
		rec.Begin(trace.PhaseNodeGather)
	}
	results := make([]*api.QueryResult, n)
	errs := make([]error, n)
	skipped := make([]bool, n)
	var wg sync.WaitGroup
	for i, nd := range r.nodes {
		if nd.state.Load() == stateDown {
			skipped[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, nd *node) {
			defer wg.Done()
			nd.queries.Add(1)
			results[i], errs[i] = r.queryNode(ctx, nd, upstream)
			if errs[i] != nil {
				nd.errors.Add(1)
			}
		}(i, nd)
	}
	wg.Wait()

	var g gathered
	for i, nd := range r.nodes {
		switch {
		case skipped[i]:
			g.missing = append(g.missing, i)
		case errs[i] != nil:
			var se *api.StatusError
			if errors.As(errs[i], &se) && se.Status < 500 {
				g.badReq = se
				continue
			}
			// A node we believed up failed the read: degrade it and
			// fail the whole request fast — silently answering without
			// a live stripe would turn a fault into wrong results.
			r.registerFailure(nd)
			g.failed = append(g.failed, nodeError{node: nd, err: errs[i]})
		}
	}
	if g.badReq != nil || len(g.failed) > 0 {
		if rec != nil {
			rec.End(trace.Work{})
		}
		return g
	}

	parts := make([]api.StripeResult, n)
	for i, res := range results {
		if res == nil {
			continue // skipped node: its stripe contributes nothing
		}
		parts[i] = api.StripeResult{Count: res.Count, Rows: res.Rows, Columns: res.Columns}
		if g.path == "" {
			g.path = res.Path
		}
	}
	g.merged = api.MergeStriped(parts, q.Project, countOnly)
	g.missing = sortedInts(g.missing)

	if rec != nil {
		// Mirror shard.Cluster's gather-span contract: the node_gather
		// span's children are the slowest node's server-side phases (the
		// ones on the query's critical path) and its work delta is the
		// summed work of all nodes, so span work still reconciles with
		// the movement of the cluster's summed counters.
		g.spans = make([]*trace.Span, n)
		for i, res := range results {
			if res == nil || len(res.Trace) == 0 {
				continue
			}
			var root trace.Span
			if err := json.Unmarshal(res.Trace, &root); err == nil {
				g.spans[i] = &root
			}
		}
		var slowest *trace.Span
		var w trace.Work
		for _, sp := range g.spans {
			if sp == nil {
				continue
			}
			w.Add(sp.SumWork())
			if slowest == nil || sp.DurUs > slowest.DurUs {
				slowest = sp
			}
		}
		if slowest != nil {
			rec.Import(slowest.Spans)
		}
		rec.End(w)
	}
	return g
}

// gatherError formats the fail-fast 503 message for a lost node.
func gatherError(failed []nodeError) string {
	if len(failed) == 1 {
		f := failed[0]
		return fmt.Sprintf("node %d (%s) unreachable: %v", f.node.id, f.node.addr, f.err)
	}
	return fmt.Sprintf("%d nodes unreachable (first: node %d: %v)", len(failed), failed[0].node.id, failed[0].err)
}
