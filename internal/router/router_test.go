package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// testNode hosts one in-process crackserve-equivalent: a server.Service
// over a striped catalog behind an httptest server whose handler can be
// "killed" (every request answered 503, which is how the router sees a
// dead backend after the transport gives up) and swapped (simulating a
// restart from — or without — the right snapshot).
type testNode struct {
	srv   *httptest.Server
	alive atomic.Bool

	mu  sync.Mutex
	svc *server.Service
}

func (tn *testNode) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tn.alive.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"node killed"}`)
			return
		}
		tn.mu.Lock()
		h := tn.svc.Handler()
		tn.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (tn *testNode) swap(svc *server.Service) {
	tn.mu.Lock()
	old := tn.svc
	tn.svc = svc
	tn.mu.Unlock()
	old.Close()
}

// buildService builds one node's service over stripe s of n (n<2: the
// whole catalog) with the given number of in-process engine shards.
func buildService(t *testing.T, tables string, seed int64, s, n, shards int) *server.Service {
	t.Helper()
	specs, err := server.ParseTableSpecs(tables)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := server.BuildCatalog(specs, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		if cat, err = shard.Stripe(cat, s, n); err != nil {
			t.Fatal(err)
		}
	}
	built, err := server.BuildExec(cat, server.EngineOptions{Shards: shards, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.NewService(server.Config{
		Exec:         built.Exec,
		DefaultTable: specs[0].Name,
		DefaultPath:  "auto",
		EventLog:     trace.NewLog(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// startCluster boots n striped nodes and a router over them, all
// in-process. Returned nodes can be killed and revived.
func startCluster(t *testing.T, tables string, seed int64, n int, cfg Config) (*Router, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for s := 0; s < n; s++ {
		tn := &testNode{svc: buildService(t, tables, seed, s, n, 1)}
		tn.alive.Store(true)
		tn.srv = httptest.NewServer(tn.handler())
		nodes[s] = tn
		addrs[s] = tn.srv.URL
		t.Cleanup(tn.srv.Close)
		t.Cleanup(func() { tn.mu.Lock(); defer tn.mu.Unlock(); tn.svc.Close() })
	}
	cfg.Nodes = addrs
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, nodes
}

// fastCfg keeps probe and retry cadences test-sized.
func fastCfg() Config {
	return Config{
		Timeout: 2 * time.Second, Retries: 1, RetryBackoff: 2 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond, DownAfter: 2,
	}
}

func countQuery(lo, hi int64) api.QueryRequest {
	return api.QueryRequest{Op: "count", Low: &lo, High: &hi}
}

func selectQuery(lo, hi int64, project ...string) api.QueryRequest {
	return api.QueryRequest{Op: "select", Low: &lo, High: &hi, Project: project}
}

func nodeState(rt *Router, id int) string { return rt.nodes[id].stateName() }

// canonical sorts a result's rows by global id, reordering any
// projected columns in lockstep. Two answers to the same query are the
// same result iff their canonical forms are equal — the engine's row
// order is scan/crack order, which legitimately drifts as the adaptive
// index reorganises between queries.
func canonical(res *api.QueryResult) (column.IDList, map[string][]column.Value) {
	idx := make([]int, len(res.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return res.Rows[idx[a]] < res.Rows[idx[b]] })
	rows := make(column.IDList, len(res.Rows))
	cols := make(map[string][]column.Value, len(res.Columns))
	for i, j := range idx {
		rows[i] = res.Rows[j]
	}
	for name, vals := range res.Columns {
		out := make([]column.Value, len(vals))
		for i, j := range idx {
			out[i] = vals[j]
		}
		cols[name] = out
	}
	return rows, cols
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleNodeIdentity pins the N=1 contract: a router over one
// backend returns the same rows and drives the same deterministic cost
// counters as querying that backend directly.
func TestSingleNodeIdentity(t *testing.T) {
	const tables = "data:20000:2"
	rt, _ := startCluster(t, tables, 7, 1, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	direct := buildService(t, tables, 7, 0, 1, 1)
	defer direct.Close()
	directSrv := httptest.NewServer(direct.Handler())
	defer directSrv.Close()

	rc := api.NewClient(front.URL, api.ClientOptions{})
	dc := api.NewClient(directSrv.URL, api.ClientOptions{})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		lo := int64(i * 400)
		q := selectQuery(lo, lo+900)
		rres, err := rc.Query(ctx, q)
		if err != nil {
			t.Fatalf("router query %d: %v", i, err)
		}
		dres, err := dc.Query(ctx, q)
		if err != nil {
			t.Fatalf("direct query %d: %v", i, err)
		}
		if rres.Count != dres.Count || !reflect.DeepEqual(rres.Rows, dres.Rows) {
			t.Fatalf("query %d: router (%d rows) != direct (%d rows)", i, rres.Count, dres.Count)
		}
	}
	rstats, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dstats, err := dc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.WorkTotal != dstats.WorkTotal {
		t.Fatalf("N=1 work diverged: router %d, direct %d", rstats.WorkTotal, dstats.WorkTotal)
	}
	if rstats.Mode != "router" {
		t.Fatalf("mode %q", rstats.Mode)
	}
}

// TestTwoNodesMatchShardedCluster pins the striping contract across the
// wire: a router over two striped backends answers exactly like one
// daemon running the same catalog with -shards 2 — same counts, same
// global row ids, same summed work counters.
func TestTwoNodesMatchShardedCluster(t *testing.T) {
	const tables = "data:20000:2"
	rt, _ := startCluster(t, tables, 7, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	direct := buildService(t, tables, 7, 0, 1, 2) // whole catalog, 2 engine shards
	defer direct.Close()
	directSrv := httptest.NewServer(direct.Handler())
	defer directSrv.Close()

	rc := api.NewClient(front.URL, api.ClientOptions{})
	dc := api.NewClient(directSrv.URL, api.ClientOptions{})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		lo := int64(i * 350)
		q := selectQuery(lo, lo+800)
		rres, err := rc.Query(ctx, q)
		if err != nil {
			t.Fatalf("router query %d: %v", i, err)
		}
		dres, err := dc.Query(ctx, q)
		if err != nil {
			t.Fatalf("direct query %d: %v", i, err)
		}
		if rres.Count != dres.Count {
			t.Fatalf("query %d: count %d != %d", i, rres.Count, dres.Count)
		}
		if !reflect.DeepEqual(rres.Rows, dres.Rows) {
			t.Fatalf("query %d: global row ids diverge", i)
		}
	}

	// Appends land at the same global identifiers on both.
	for i := 0; i < 5; i++ {
		row := [][]column.Value{{column.Value(10 + i), column.Value(20 + i)}}
		ru, err := api.InsertOp("data", row)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := rc.Update(ctx, ru)
		if err != nil {
			t.Fatalf("router insert: %v", err)
		}
		dres, err := dc.Update(ctx, ru)
		if err != nil {
			t.Fatalf("direct insert: %v", err)
		}
		if !reflect.DeepEqual(rres.Inserted, dres.Inserted) {
			t.Fatalf("insert %d: router assigned %v, sharded daemon %v", i, rres.Inserted, dres.Inserted)
		}
	}

	rstats, err := rc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dstats, err := dc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.WorkTotal != dstats.WorkTotal {
		t.Fatalf("work diverged: router cluster %d, sharded daemon %d", rstats.WorkTotal, dstats.WorkTotal)
	}
	if rstats.Tables[0].Rows != dstats.Tables[0].Rows {
		t.Fatalf("rows diverged: %d vs %d", rstats.Tables[0].Rows, dstats.Tables[0].Rows)
	}
}

// TestBinaryProtocol runs the same query over both response protocols
// through the router and expects identical payloads.
func TestBinaryProtocol(t *testing.T) {
	rt, _ := startCluster(t, "data:10000:2", 3, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	jc := api.NewClient(front.URL, api.ClientOptions{Proto: "json"})
	bc := api.NewClient(front.URL, api.ClientOptions{Proto: "binary", Block: 256})
	ctx := context.Background()
	q := selectQuery(100, 2000, "c0", "c1")
	jres, err := jc.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := bc.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	jrows, jcols := canonical(jres)
	brows, bcols := canonical(bres)
	if jres.Count != bres.Count || !reflect.DeepEqual(jrows, brows) {
		t.Fatalf("binary result diverges from JSON: %d vs %d rows", len(jres.Rows), len(bres.Rows))
	}
	for _, c := range q.Project {
		if !reflect.DeepEqual(jcols[c], bcols[c]) {
			t.Fatalf("projection %s diverges across protocols", c)
		}
	}
}

// TestTraceGather checks a traced query through the router carries a
// node_gather span importing the slowest node's server-side phases.
func TestTraceGather(t *testing.T) {
	rt, _ := startCluster(t, "data:10000:2", 3, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	q := countQuery(100, 4000)
	q.Trace = true
	res, err := c.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace returned")
	}
	var root trace.Span
	if err := json.Unmarshal(res.Trace, &root); err != nil {
		t.Fatal(err)
	}
	var gather *trace.Span
	for _, sp := range root.Spans {
		if sp.Phase == trace.PhaseNodeGather {
			gather = sp
		}
	}
	if gather == nil {
		t.Fatalf("no node_gather span in %s", res.Trace)
	}
	if len(gather.Spans) == 0 {
		t.Fatal("node_gather span imported no server-side phases")
	}
}

// TestFailover is the kill/restart story: reads fail fast when a stripe
// owner is lost, turn partial once it is marked down, writes to the
// dead stripe are refused naming the node, and the revived node is
// re-admitted with byte-identical answers.
func TestFailover(t *testing.T) {
	rt, nodes := startCluster(t, "data:10000:2", 11, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	ctx := context.Background()

	q := selectQuery(500, 3000)
	baseline, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Partial {
		t.Fatal("baseline partial")
	}

	// Kill node 1. The router still believes it up: the next read must
	// fail fast with 503 and a per-node breakdown naming the node.
	nodes[1].alive.Store(false)
	_, err = c.Query(ctx, q)
	se := &api.StatusError{}
	if !asStatusError(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("read against lost node: %v", err)
	}
	named := false
	for _, ne := range se.Resp.Nodes {
		if ne.Node == 1 && ne.Error != "" {
			named = true
		}
	}
	if !named {
		t.Fatalf("503 breakdown does not name node 1: %+v", se.Resp)
	}

	// Once probes take it down, reads answer from the surviving stripe,
	// explicitly partial.
	waitFor(t, "node 1 down", func() bool { return nodeState(rt, 1) == "down" })
	part, err := c.Query(ctx, q)
	if err != nil {
		t.Fatalf("partial read: %v", err)
	}
	if !part.Partial || len(part.MissingNodes) != 1 || part.MissingNodes[0] != 1 {
		t.Fatalf("partial flags wrong: partial=%v missing=%v", part.Partial, part.MissingNodes)
	}
	if part.Count >= baseline.Count {
		t.Fatalf("partial count %d not below full count %d", part.Count, baseline.Count)
	}
	for _, g := range part.Rows {
		if int(g)%2 == 1 {
			t.Fatalf("partial answer contains row %d of the dead stripe", g)
		}
	}

	// Writes: global row 10000's owner is node 0 (10000%2==0) — that
	// insert lands; the next global row 10001 belongs to the dead node
	// and must be refused with the node named.
	ins, err := api.InsertOp("data", [][]column.Value{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	ur, err := c.Update(ctx, ins)
	if err != nil {
		t.Fatalf("insert owned by surviving node: %v", err)
	}
	if len(ur.Inserted) != 1 || ur.Inserted[0] != 10000 {
		t.Fatalf("inserted %v, want [10000]", ur.Inserted)
	}
	_, err = c.Update(ctx, ins)
	if !asStatusError(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("insert to dead stripe: %v", err)
	}
	if !strings.Contains(se.Resp.Error, "node 1") {
		t.Fatalf("refusal does not name the dead node: %q", se.Resp.Error)
	}

	// Revive the node. Its stripe still holds exactly the rows the
	// router believes it owns, so the fingerprint matches and it is
	// re-admitted; the baseline query answers byte-identically again.
	nodes[1].alive.Store(true)
	waitFor(t, "node 1 re-admission", func() bool { return nodeState(rt, 1) == "up" })
	if rt.readmits.Load() == 0 {
		t.Fatal("re-admission not counted")
	}
	after, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Partial {
		t.Fatal("still partial after re-admission")
	}
	arows, _ := canonical(after)
	brows, _ := canonical(baseline)
	if after.Count != baseline.Count || !reflect.DeepEqual(arows, brows) {
		t.Fatalf("post-recovery answer diverges: %d vs %d rows", after.Count, baseline.Count)
	}
	// And the write the dead stripe refused now lands, at the id the
	// contract promised all along.
	ur, err = c.Update(ctx, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(ur.Inserted) != 1 || ur.Inserted[0] != 10001 {
		t.Fatalf("inserted %v, want [10001]", ur.Inserted)
	}
}

// TestMismatchedNodeStaysOut: a node that comes back without the rows
// it owned (lost snapshot) must not be re-admitted.
func TestMismatchedNodeStaysOut(t *testing.T) {
	rt, nodes := startCluster(t, "data:10000:2", 11, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	ctx := context.Background()

	// Grow node 0's stripe so a cold-rebuilt node 1 would still match —
	// then break node 1's expected shape instead by inserting a row it
	// owns, which a cold rebuild cannot have.
	for i := 0; i < 2; i++ {
		ins, err := api.InsertOp("data", [][]column.Value{{9, 9}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Update(ctx, ins); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].alive.Store(false)
	waitFor(t, "node 1 down", func() bool { return nodeState(rt, 1) == "down" })
	// "Restart" node 1 from scratch: the generated stripe without the
	// insert it owned. The probe passes but the fingerprint must not.
	nodes[1].swap(buildService(t, "data:10000:2", 11, 1, 2, 1))
	nodes[1].alive.Store(true)
	time.Sleep(150 * time.Millisecond) // several probe intervals
	if got := nodeState(rt, 1); got != "down" {
		t.Fatalf("node with missing rows re-admitted (state %q)", got)
	}
	if rt.readmits.Load() != 0 {
		t.Fatal("re-admission counted for a mismatched node")
	}
}

// TestAllNodesDown: a cluster with every stripe lost answers 503, not
// an empty 200.
func TestAllNodesDown(t *testing.T) {
	rt, nodes := startCluster(t, "data:4000:2", 5, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	for _, tn := range nodes {
		tn.alive.Store(false)
	}
	waitFor(t, "both nodes down", func() bool {
		return nodeState(rt, 0) == "down" && nodeState(rt, 1) == "down"
	})
	_, err := c.Query(context.Background(), countQuery(0, 100))
	se := &api.StatusError{}
	if !asStatusError(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("want 503, got %v", err)
	}
}

// TestNodeBadRequestPassesThrough: a request every node rejects as bad
// (here the retired "parallel" path) reaches the client as the nodes'
// 400, without retries, node degradation or a partial answer.
func TestNodeBadRequestPassesThrough(t *testing.T) {
	rt, _ := startCluster(t, "data:4000:2", 5, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	q := selectQuery(0, 500, "c1")
	q.Path = "parallel"
	res, err := c.Query(context.Background(), q)
	se := &api.StatusError{}
	if !asStatusError(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("want 400, got %+v, %v", res, err)
	}
	if want := strings.Join(engine.PathNames(), ", "); !strings.Contains(se.Resp.Error, want) {
		t.Fatalf("error %q does not list the known paths %q", se.Resp.Error, want)
	}
	if n := rt.retries.Load(); n != 0 {
		t.Fatalf("router retried a bad request %d times", n)
	}
	if n := rt.partials.Load(); n != 0 {
		t.Fatalf("%d partial answers to a bad request", n)
	}
	for id := range rt.nodes {
		if st := nodeState(rt, id); st != "up" {
			t.Fatalf("node %d is %s after a bad request", id, st)
		}
	}
}

// TestHealthzAndMetrics: the router's own health endpoint follows the
// cluster, and its merged /metrics pass the Prometheus lint.
func TestHealthzAndMetrics(t *testing.T) {
	rt, nodes := startCluster(t, "data:4000:2", 5, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := api.NewClient(front.URL, api.ClientOptions{})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || !h.OK || !h.Ready {
		t.Fatalf("healthy cluster reports %+v, %v", h, err)
	}
	if _, err := c.Query(ctx, countQuery(0, 500)); err != nil {
		t.Fatal(err)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if problems := trace.LintProm(strings.NewReader(body)); len(problems) > 0 {
		t.Fatalf("router /metrics fails lint: %v", problems)
	}
	if !strings.Contains(body, "crackrouter_nodes_up 2") {
		t.Fatalf("metrics missing nodes_up:\n%s", body)
	}

	nodes[1].alive.Store(false)
	waitFor(t, "node 1 down", func() bool { return nodeState(rt, 1) == "down" })
	if h, _ := c.Health(ctx); h.Ready {
		t.Fatal("router ready with a node down")
	}
}

// asStatusError unwraps err into *api.StatusError.
func asStatusError(err error, out **api.StatusError) bool {
	if err == nil {
		return false
	}
	se, ok := err.(*api.StatusError)
	if ok {
		*out = se
	}
	return ok
}

// TestConcurrentMixedLoad exercises the router under -race: concurrent
// readers and one writer while a node flaps.
func TestConcurrentMixedLoad(t *testing.T) {
	rt, nodes := startCluster(t, "data:8000:2", 13, 2, fastCfg())
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := api.NewClient(front.URL, api.ClientOptions{})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := int64((g*997 + i*131) % 7000)
				// Errors are expected while the node flaps; the race
				// detector is the assertion here.
				c.Query(ctx, countQuery(lo, lo+400)) //nolint:errcheck
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := api.NewClient(front.URL, api.ClientOptions{})
		for i := 0; i < 50; i++ {
			ins, _ := api.InsertOp("data", [][]column.Value{{column.Value(i), 1}})
			c.Update(ctx, ins) //nolint:errcheck
		}
	}()
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(30 * time.Millisecond)
		nodes[1].alive.Store(false)
		time.Sleep(60 * time.Millisecond)
		nodes[1].alive.Store(true)
		waitFor(t, fmt.Sprintf("revival %d", cycle), func() bool { return nodeState(rt, 1) == "up" })
	}
	close(stop)
	wg.Wait()
}

// failingWriter accepts headers but fails every body write, standing
// in for a client that hung up mid-response.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client went away") }
func (f *failingWriter) WriteHeader(int)           {}

// TestEncodeFailuresAreCounted checks that a reply the client never
// saw moves crackrouter_encode_failures_total on both encodings.
func TestEncodeFailuresAreCounted(t *testing.T) {
	rt, _ := startCluster(t, "data:2000:2", 5, 1, fastCfg())
	for i, accept := range []string{"application/json", wire.ContentType} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"op":"select","low":0,"high":500}`))
		req.Header.Set("Accept", accept)
		rt.Handler().ServeHTTP(&failingWriter{header: make(http.Header)}, req)
		if got := rt.clusterStats().EncodeFailures; got != uint64(i+1) {
			t.Fatalf("after a failed %s reply: encode_failures = %d, want %d", accept, got, i+1)
		}
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\ncrackrouter_encode_failures_total 2\n") {
		t.Fatalf("metrics do not count both failures:\n%s", rec.Body.String())
	}
}

// TestTracedJSONSpanShape checks that a traced JSON query through a
// one-node router carries the same span structure as the node's own
// reply: a trace field whose last child is the wire_encode span. It
// asserts structure only, never a duration.
func TestTracedJSONSpanShape(t *testing.T) {
	rt, nodes := startCluster(t, "data:2000:2", 5, 1, fastCfg())
	for name, h := range map[string]http.Handler{"node": nodes[0].handler(), "router": rt.Handler()} {
		rec := httptest.NewRecorder()
		body := `{"op":"select","low":0,"high":500,"project":["c1"],"trace":true}`
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		var resp api.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var root trace.Span
		if err := json.Unmarshal(resp.Trace, &root); err != nil {
			t.Fatalf("%s: trace field: %v (%s)", name, err, resp.Trace)
		}
		if n := len(root.Spans); n == 0 || root.Spans[n-1].Phase != trace.PhaseEncode {
			t.Fatalf("%s: last child of the trace is not %s: %s", name, trace.PhaseEncode, resp.Trace)
		}
		if resp.Count == 0 || len(resp.Rows) != resp.Count {
			t.Fatalf("%s: traced reply lost its answer: count %d, %d rows", name, resp.Count, len(resp.Rows))
		}
	}
}
