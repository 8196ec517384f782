package router

import (
	"context"
	"fmt"
	"net/http"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
)

// writeError carries a write failure plus the applied prefix — ops
// apply in order and whatever was forwarded before the failure stays
// applied, so the client must get the assigned identifiers back.
type writeError struct {
	status   int
	msg      string
	nodes    []api.NodeError
	inserted []column.RowID
	deleted  int
}

func (e *writeError) Error() string { return e.msg }

// apply routes one update request's ops row by row to their owning
// nodes. The caller holds no locks; apply serialises on r.mu for the
// whole request so global row identifiers are assigned densely in
// submission order (the striping contract's append rule).
func (r *Router) apply(ctx context.Context, ops []api.WriteOp) (api.UpdateResponse, *writeError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.nodes)
	var out api.UpdateResponse
	// pending tracks the last engine-wide buffered-update depth each
	// touched node reported, so the response can sum a consistent view.
	pending := make(map[int]api.UpdateResponse, n)
	fail := func(nd *node, status int, msg string) *writeError {
		we := &writeError{status: status, msg: msg, inserted: out.Inserted, deleted: out.Deleted}
		if nd != nil {
			we.nodes = r.errorBreakdown([]nodeError{{node: nd, err: fmt.Errorf("%s", msg)}})
		}
		return we
	}
	forward := func(nd *node, u api.UpdateRequest) (api.UpdateResponse, error) {
		actx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
		ur, err := nd.client.Update(actx, u)
		if err != nil {
			nd.errors.Add(1)
			return ur, err
		}
		pending[nd.id] = ur
		return ur, nil
	}
	for _, op := range ops {
		table := op.Table
		if table == "" {
			table = r.defaultTable
		}
		for _, row := range op.Insert {
			g, known := r.nrows[table]
			owner := 0
			if known {
				owner = api.Owner(g, n)
			}
			// An unknown table routes to node 0, which produces the
			// canonical 400 for it.
			nd := r.nodes[owner]
			if nd.state.Load() == stateDown {
				return out, fail(nd, http.StatusServiceUnavailable,
					fmt.Sprintf("stripe owner node %d (%s) is down; insert refused", nd.id, nd.addr))
			}
			u, err := api.InsertOp(table, [][]column.Value{row})
			if err != nil {
				return out, fail(nil, http.StatusBadRequest, err.Error())
			}
			ur, err := forward(nd, u)
			if err != nil {
				// A failed write is NOT retried: the request may have
				// been applied before the response was lost, and
				// double-appending would shift the stripe forever.
				status := http.StatusServiceUnavailable
				if se, ok := err.(*api.StatusError); ok {
					status = se.Status
					if status < 500 {
						// The node's verdict on the request (unknown
						// table, wrong arity), not a node failure.
						return out, fail(nd, status, fmt.Sprintf("insert: %v", err))
					}
				}
				r.registerFailure(nd)
				return out, fail(nd, status,
					fmt.Sprintf("insert to node %d (%s) failed: %v", nd.id, nd.addr, err))
			}
			if len(ur.Inserted) != 1 || ur.Inserted[0] != column.RowID(api.Local(g, n)) {
				return out, fail(nd, http.StatusInternalServerError,
					fmt.Sprintf("stripe invariant broken: table %q global row %d landed at local %v on node %d, want %d",
						table, g, ur.Inserted, nd.id, api.Local(g, n)))
			}
			r.nrows[table] = g + 1
			sh := nd.shape[table]
			sh.rows++
			sh.live++
			nd.shape[table] = sh
			out.Inserted = append(out.Inserted, column.RowID(g))
		}
		for _, id := range op.Delete {
			owner := api.Owner(int(id), n)
			nd := r.nodes[owner]
			if nd.state.Load() == stateDown {
				return out, fail(nd, http.StatusServiceUnavailable,
					fmt.Sprintf("stripe owner node %d (%s) is down; delete of row %d refused", nd.id, nd.addr, id))
			}
			u, err := api.DeleteOp(table, []column.RowID{id / column.RowID(n)})
			if err != nil {
				return out, fail(nil, http.StatusBadRequest, err.Error())
			}
			ur, err := forward(nd, u)
			if err != nil {
				status := http.StatusServiceUnavailable
				if se, ok := err.(*api.StatusError); ok {
					status = se.Status
					if status < 500 {
						// 400/404 are the node's verdict on the row, not
						// a node failure.
						return out, fail(nd, status, fmt.Sprintf("delete of row %d: %v", id, err))
					}
				}
				r.registerFailure(nd)
				return out, fail(nd, status,
					fmt.Sprintf("delete to node %d (%s) failed: %v", nd.id, nd.addr, err))
			}
			out.Deleted += ur.Deleted
			if ur.Deleted > 0 {
				sh := nd.shape[table]
				sh.live -= ur.Deleted
				nd.shape[table] = sh
			}
		}
	}
	for _, ur := range pending {
		out.PendingInserts += ur.PendingInserts
		out.PendingDeletes += ur.PendingDeletes
	}
	return out, nil
}
