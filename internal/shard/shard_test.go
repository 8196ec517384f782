package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
	"adaptiveindex/internal/workload"
)

// testCatalog builds a deterministic two-table catalog. Both the
// baseline engine and the cluster under test get their own copy (the
// cluster only reads it, but the baseline engine cracks in place).
func testCatalog(t *testing.T, seed int64, n int) *engine.Catalog {
	t.Helper()
	specs := []server.TableSpec{
		{Name: "orders", Rows: n, Cols: 3},
		{Name: "events", Rows: n/2 + 7, Cols: 2},
	}
	cat, err := server.BuildCatalog(specs, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// selection is one query answer in comparable form: (row, projected
// values) tuples sorted by row identifier. Shards return rows in
// shard-concatenation order and a cracked single engine in cracked
// physical order, so only the set — with projections still aligned to
// their rows — is comparable.
type selection struct {
	rows []column.RowID
	cols map[string][]column.Value
}

func canonical(rows []column.RowID, cols map[string][]column.Value) selection {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return rows[idx[a]] < rows[idx[b]] })
	out := selection{rows: make([]column.RowID, len(rows))}
	if len(cols) > 0 {
		out.cols = make(map[string][]column.Value, len(cols))
	}
	for name, vals := range cols {
		aligned := make([]column.Value, len(vals))
		for i, j := range idx {
			aligned[i] = vals[j]
		}
		out.cols[name] = aligned
	}
	for i, j := range idx {
		out.rows[i] = rows[j]
	}
	return out
}

func requireSameSelection(t *testing.T, label string, want, got selection) {
	t.Helper()
	if len(want.rows) != len(got.rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if want.rows[i] != got.rows[i] {
			t.Fatalf("%s: row[%d] = %d, want %d", label, i, got.rows[i], want.rows[i])
		}
	}
	if len(want.cols) != len(got.cols) {
		t.Fatalf("%s: %d projected columns, want %d", label, len(got.cols), len(want.cols))
	}
	for name, wv := range want.cols {
		gv, ok := got.cols[name]
		if !ok || len(gv) != len(wv) {
			t.Fatalf("%s: projection %q: %d values, want %d", label, name, len(gv), len(wv))
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("%s: projection %q[%d] = %d, want %d", label, name, i, gv[i], wv[i])
			}
		}
	}
}

// TestClusterMatchesEngineDirect is the core differential contract: a
// cluster of any shard count answers every query — counts, row sets,
// projections — identically to a single engine over the same data,
// including after interleaved inserts and deletes routed through the
// global row space.
func TestClusterMatchesEngineDirect(t *testing.T) {
	const n = 6000
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := engine.New(testCatalog(t, 11, n), core.DefaultOptions())
			cl, err := shard.New(testCatalog(t, 11, n), shards, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			live := []column.RowID{}
			for g := 0; g < n; g++ {
				live = append(live, column.RowID(g))
			}
			for i := 0; i < 300; i++ {
				table, col := "orders", "c0"
				if i%3 == 1 {
					table, col = "events", "c1"
				}
				lo := column.Value(rng.Intn(n))
				hi := lo + column.Value(rng.Intn(n/20)+1)
				q := engine.Query{
					Table: table, Column: col,
					R:    column.Range{HasLow: true, Low: int64(lo), HasHigh: true, High: int64(hi), IncLow: true},
					Path: engine.PathCracking,
				}
				if i%4 == 0 {
					q.Project = []string{"c1"}
					if table == "events" {
						q.Project = []string{"c0"}
					}
				}
				if i%5 == 0 {
					q.Path = engine.PathAuto
				}
				want, err := eng.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cl.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				if want.Count != got.Count {
					t.Fatalf("query %d: cluster count %d, engine count %d", i, got.Count, want.Count)
				}
				requireSameSelection(t, fmt.Sprintf("query %d", i),
					canonical(want.Rows, want.Columns), canonical(got.Rows, got.Columns))

				// Interleave writes: both sides must assign the same global
				// row identifiers and agree on every later answer.
				if i%7 == 3 {
					vals := []column.Value{column.Value(rng.Intn(n)), column.Value(rng.Intn(n)), column.Value(rng.Intn(n))}
					wr, err := eng.InsertRow("orders", vals)
					if err != nil {
						t.Fatal(err)
					}
					gr, err := cl.InsertRow("orders", vals)
					if err != nil {
						t.Fatal(err)
					}
					if wr != gr {
						t.Fatalf("insert %d: cluster assigned row %d, engine %d", i, gr, wr)
					}
					live = append(live, gr)
				}
				if i%11 == 5 && len(live) > 0 {
					j := rng.Intn(len(live))
					row := live[j]
					live = append(live[:j], live[j+1:]...)
					if err := eng.DeleteRow("orders", row); err != nil {
						t.Fatal(err)
					}
					if err := cl.DeleteRow("orders", row); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cl.Validate(); err != nil {
				t.Fatal(err)
			}
			// The stripes must partition the global rows.
			et, ct := eng.Tables(), cl.Tables()
			for i := range et {
				if et[i].Rows != ct[i].Rows || et[i].LiveRows != ct[i].LiveRows {
					t.Fatalf("table %s: cluster %d/%d rows, engine %d/%d", et[i].Table,
						ct[i].Rows, ct[i].LiveRows, et[i].Rows, et[i].LiveRows)
				}
			}
		})
	}
}

// TestOneShardByteIdentical: a one-shard cluster is the identity — its
// deterministic work counters match a bare engine's exactly.
func TestOneShardByteIdentical(t *testing.T) {
	const n = 4000
	eng := engine.New(testCatalog(t, 3, n), core.DefaultOptions())
	cl, err := shard.New(testCatalog(t, 3, n), 1, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range workload.Queries(workload.NewUniform(9, 0, n, 0.02), 150) {
		q := engine.Query{Table: "orders", Column: "c0", R: r, Path: engine.PathCracking}
		if _, err := eng.Run(q); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if ec, cc := eng.Cost(), cl.Cost(); ec != cc {
		t.Fatalf("one-shard cluster counters %+v diverge from engine %+v", cc, ec)
	}
	if es, cs := eng.Structures(), cl.Structures(); es != cs {
		t.Fatalf("one-shard cluster structures %+v diverge from engine %+v", cs, es)
	}
}

// TestClusterTraceGather: a traced query against a multi-shard cluster
// reports the scatter-gather as a shard_gather span whose work delta
// matches the movement of the cluster's own counters.
func TestClusterTraceGather(t *testing.T) {
	const n = 3000
	cl, err := shard.New(testCatalog(t, 5, n), 4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Cost().Total()
	rec := trace.NewRecorder()
	_, err = cl.Run(engine.Query{
		Table: "orders", Column: "c0",
		R:     column.Range{HasLow: true, Low: 100, HasHigh: true, High: 900, IncLow: true},
		Path:  engine.PathCracking,
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Finish()
	root := rec.Root()
	var gather *trace.Span
	for _, sp := range root.Spans {
		if sp.Phase == trace.PhaseShardGather {
			gather = sp
		}
	}
	if gather == nil {
		t.Fatalf("traced cluster query has no %s span; got %+v", trace.PhaseShardGather, root.Spans)
	}
	if len(gather.Spans) == 0 {
		t.Fatal("shard_gather span carries no per-shard engine phases")
	}
	moved := cl.Cost().Total() - before
	if got := gather.Work.Total; got != moved {
		t.Fatalf("shard_gather work %d, counters moved %d", got, moved)
	}
}

// TestClusterRestoreShardCountMismatch: per-shard snapshot segments
// only restore at the shard count that wrote them.
func TestClusterRestoreShardCountMismatch(t *testing.T) {
	const n = 1000
	cl2, err := shard.New(testCatalog(t, 7, n), 2, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	states := make([]engine.State, 0, 2)
	for _, e := range cl2.Engines() {
		states = append(states, e.Snapshot())
	}
	cl3, err := shard.New(testCatalog(t, 7, n), 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl3.Restore(states); err == nil {
		t.Fatal("restoring 2 shard states into 3 shards must fail")
	} else if want := "-shards 2"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("mismatch error must tell the operator to restart with %s, got: %v", want, err)
	}
}

// TestClusterRejectsDirtyCatalog: striping owns the global row space,
// so a catalog that already carries writes cannot be striped.
func TestClusterRejectsDirtyCatalog(t *testing.T) {
	const n = 500
	cat := testCatalog(t, 13, n)
	eng := engine.New(cat, core.DefaultOptions())
	if _, err := eng.InsertRow("orders", []column.Value{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.New(cat, 2, core.DefaultOptions()); err == nil {
		t.Fatal("striping a catalog with appended rows must fail")
	}
}

// httpPair hosts the same catalog behind a single-engine service and a
// sharded one, both in batched mode, for wire-level differential runs.
func httpPair(t *testing.T, seed int64, n, shards int) (base, sharded *httptest.Server) {
	t.Helper()
	mk := func(exec server.Exec, eng *engine.Engine) *httptest.Server {
		svc, err := server.NewService(server.Config{
			Exec:          exec,
			Engine:        eng,
			DefaultTable:  "orders",
			DefaultColumn: "c0",
			DefaultPath:   "cracking",
			MaxInFlight:   64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		return ts
	}
	eng := engine.New(testCatalog(t, seed, n), core.DefaultOptions())
	cl, err := shard.New(testCatalog(t, seed, n), shards, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return mk(nil, eng), mk(cl, nil)
}

func postJSON(t *testing.T, url, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", path, body, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func postBinaryQuery(t *testing.T, url, body string) *wire.Result {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.AcceptValue(0))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("binary %s: status %d: %s", body, resp.StatusCode, buf.String())
	}
	res, err := wire.Decode(resp.Body)
	if err != nil {
		t.Fatalf("binary %s: decode: %v", body, err)
	}
	return res
}

// TestShardedServiceMatchesSingleHTTP replays one random query/update
// stream against a single-engine service and a sharded one over real
// HTTP — JSON and binary protocols interleaved — and requires
// identical answers from both, including identical assigned row
// identifiers for inserts.
func TestShardedServiceMatchesSingleHTTP(t *testing.T) {
	const n = 4000
	for _, shards := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base, sharded := httpPair(t, 21, n, shards)
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 120; i++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n/25) + 1
				table := "orders"
				if i%3 == 2 {
					table = "events"
				}
				proj := ""
				if i%2 == 0 {
					proj = `,"project":["c1"]`
				}
				body := fmt.Sprintf(`{"op":"select","table":%q,"column":"c0","low":%d,"high":%d%s}`,
					table, lo, hi, proj)
				if i%4 == 3 {
					// Binary protocol leg.
					wb, gb := postBinaryQuery(t, base.URL, body), postBinaryQuery(t, sharded.URL, body)
					if wb.Count != gb.Count {
						t.Fatalf("binary query %d: sharded count %d, single %d", i, gb.Count, wb.Count)
					}
					requireSameSelection(t, fmt.Sprintf("binary query %d", i),
						canonical(wb.Rows, wb.Columns), canonical(gb.Rows, gb.Columns))
				} else {
					var wr, gr api.QueryResponse
					if err := json.Unmarshal(postJSON(t, base.URL, "/query", body), &wr); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(postJSON(t, sharded.URL, "/query", body), &gr); err != nil {
						t.Fatal(err)
					}
					if wr.Count != gr.Count {
						t.Fatalf("query %d: sharded count %d, single %d", i, gr.Count, wr.Count)
					}
					requireSameSelection(t, fmt.Sprintf("query %d", i),
						canonical(wr.Rows, wr.Columns), canonical(gr.Rows, gr.Columns))
				}
				if i%6 == 1 {
					up := fmt.Sprintf(`{"op":"insert","table":"orders","rows":[[%d,%d,%d]]}`,
						rng.Intn(n), rng.Intn(n), rng.Intn(n))
					var wu, gu api.UpdateResponse
					if err := json.Unmarshal(postJSON(t, base.URL, "/update", up), &wu); err != nil {
						t.Fatal(err)
					}
					if err := json.Unmarshal(postJSON(t, sharded.URL, "/update", up), &gu); err != nil {
						t.Fatal(err)
					}
					if len(wu.Inserted) != 1 || len(gu.Inserted) != 1 || wu.Inserted[0] != gu.Inserted[0] {
						t.Fatalf("update %d: sharded assigned %v, single %v", i, gu.Inserted, wu.Inserted)
					}
					if i%12 == 7 {
						del := fmt.Sprintf(`{"op":"delete","table":"orders","rows":[%d]}`, wu.Inserted[0])
						postJSON(t, base.URL, "/update", del)
						postJSON(t, sharded.URL, "/update", del)
					}
				}
			}

			// The sharded /stats must expose the per-shard breakdown and a
			// row partition that sums to the whole table.
			var st api.Stats
			resp, err := http.Get(sharded.URL + "/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.Shards != shards || len(st.ShardStats) != shards {
				t.Fatalf("sharded stats: shards=%d with %d shard stats, want %d", st.Shards, len(st.ShardStats), shards)
			}
			rows := 0
			for _, ss := range st.ShardStats {
				rows += ss.Rows
			}
			total := 0
			for _, ts := range st.Tables {
				total += ts.Rows
			}
			if rows != total {
				t.Fatalf("shard stripes hold %d row slots, tables hold %d", rows, total)
			}

			// The sharded /metrics document must still lint clean.
			mresp, err := http.Get(sharded.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			if errs := trace.LintProm(mresp.Body); len(errs) != 0 {
				t.Fatalf("sharded /metrics fails lint: %v", errs)
			}
		})
	}
}
