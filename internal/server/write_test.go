package server

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// writeTestService builds a service over a generated two-column table.
func writeTestService(t *testing.T, n int, window time.Duration, policy updates.MergePolicy) *Service {
	t.Helper()
	specs := []TableSpec{{Name: "data", Rows: n, Cols: 2}}
	cat, err := BuildCatalog(specs, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildEngine(cat, EngineOptions{Seed: 42, MergePolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Engine: built.Engine, BatchWindow: window, MaxInFlight: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestApplyThroughScheduler(t *testing.T) {
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{{"batched", 200 * time.Microsecond}, {"direct", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			const n = 5000
			svc := writeTestService(t, n, mode.window, updates.MergeGradually)

			// Build the cracked column first: pending buffers belong to
			// adaptive structures, and those materialise on first use.
			if _, err := svc.CountQuery(Query{R: column.NewRange(100, 200), Path: "cracking"}); err != nil {
				t.Fatal(err)
			}
			reply, err := svc.Apply([]api.WriteOp{{Insert: [][]column.Value{{n + 100, 1}, {n + 101, 2}}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(reply.Inserted) != 2 || reply.PendingInserts != 2 {
				t.Fatalf("insert reply: %+v", reply)
			}
			reply, err = svc.Apply([]api.WriteOp{{Delete: []column.RowID{0}}})
			if err != nil {
				t.Fatal(err)
			}
			if reply.Deleted != 1 {
				t.Fatalf("delete reply: %+v", reply)
			}
			// The write is visible to a query through the same scheduler.
			count, err := svc.CountQuery(Query{R: column.NewRange(n+100, n+102), Path: "cracking"})
			if err != nil {
				t.Fatal(err)
			}
			if count != 2 {
				t.Fatalf("count after insert = %d, want 2", count)
			}
			st := svc.Stats()
			if st.Writes != 2 {
				t.Fatalf("stats writes = %d, want 2", st.Writes)
			}
			if st.WriteState.PendingInserts != 0 {
				t.Fatalf("query must have merged the pending inserts: %+v", st.WriteState)
			}
			if st.Tables[0].LiveRows != n+1 {
				t.Fatalf("live rows = %d, want %d", st.Tables[0].LiveRows, n+1)
			}
		})
	}
}

func TestApplyValidation(t *testing.T) {
	svc := writeTestService(t, 1000, 0, updates.MergeGradually)
	if _, err := svc.Apply(nil); !errors.Is(err, ErrEmptyWrite) {
		t.Errorf("empty request: got %v", err)
	}
	if _, err := svc.Apply([]api.WriteOp{{}}); !errors.Is(err, ErrEmptyWrite) {
		t.Errorf("empty op: got %v", err)
	}
	if _, err := svc.Apply([]api.WriteOp{{Insert: [][]column.Value{{1, 2}}, Delete: []column.RowID{0}}}); !errors.Is(err, ErrEmptyWrite) {
		t.Errorf("mixed op: got %v", err)
	}
	if _, err := svc.Apply([]api.WriteOp{{Table: "nope", Insert: [][]column.Value{{1, 2}}}}); !errors.Is(err, engine.ErrUnknownTable) {
		t.Errorf("unknown table: got %v", err)
	}
	if _, err := svc.Apply([]api.WriteOp{{Insert: [][]column.Value{{1}}}}); !errors.Is(err, engine.ErrRowArity) {
		t.Errorf("arity: got %v", err)
	}
	if _, err := svc.Apply([]api.WriteOp{{Delete: []column.RowID{99999}}}); !errors.Is(err, engine.ErrRowNotFound) {
		t.Errorf("missing row: got %v", err)
	}
}

// TestConcurrentReadersAndWriters storms the batched scheduler with
// interleaved sessions; the executor owns the engine, so the
// not-concurrency-safe write path must survive -race and every reader
// must see a consistent row count at the end.
func TestConcurrentReadersAndWriters(t *testing.T) {
	const n = 20000
	svc := writeTestService(t, n, 300*time.Microsecond, updates.MergeGradually)

	const writers, readers, perSession = 4, 8, 50
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perSession; i++ {
				v := column.Value(n + id*perSession + i)
				if _, err := svc.Apply([]api.WriteOp{{Insert: [][]column.Value{{v, v}}}}); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			gen := workload.NewUniform(int64(id), 0, n, 0.02)
			for i := 0; i < perSession; i++ {
				if _, err := svc.CountQuery(Query{R: gen.Next()}); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	count, err := svc.CountQuery(Query{R: column.NewRange(n, n+writers*perSession), Path: "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*perSession {
		t.Fatalf("scan sees %d inserted rows, want %d", count, writers*perSession)
	}
	st := svc.Stats()
	if st.Writes != writers*perSession {
		t.Fatalf("stats writes = %d, want %d", st.Writes, writers*perSession)
	}
}

// TestUpdateHTTP exercises POST /update end to end: single ops,
// batched ops, scalar insert rows on a one-column wire form, and the
// error statuses.
func TestUpdateHTTP(t *testing.T) {
	const n = 3000
	svc := writeTestService(t, n, 200*time.Microsecond, updates.MergeGradually)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}

	if code, body := post(fmt.Sprintf(`{"op":"insert","table":"data","rows":[[%d,7],[%d,8]]}`, n+1, n+2)); code != 200 ||
		!strings.Contains(body, `"inserted":[`) {
		t.Fatalf("insert: %d %s", code, body)
	}
	if code, body := post(`{"ops":[{"op":"delete","rows":[0,1]},{"op":"insert","rows":[[9,9]]}]}`); code != 200 ||
		!strings.Contains(body, `"deleted":2`) {
		t.Fatalf("batched ops: %d %s", code, body)
	}
	if code, _ := post(`{"op":"delete","rows":[0]}`); code != 404 {
		t.Fatalf("double delete: want 404, got %d", code)
	}
	if code, _ := post(`{"op":"frobnicate","rows":[1]}`); code != 400 {
		t.Fatalf("unknown op: want 400, got %d", code)
	}
	if code, _ := post(`{"op":"insert","rows":[[1]]}`); code != 400 {
		t.Fatalf("arity: want 400, got %d", code)
	}
	if code, _ := post(`{"op":"insert","rows":[[1,2]],"ops":[{"op":"delete","rows":[5]}]}`); code != 400 {
		t.Fatalf("single op and ops together: want 400, got %d", code)
	}
	// A top-level table is the default for batched ops.
	if code, body := post(`{"table":"nope","ops":[{"op":"delete","rows":[5]}]}`); code != 400 ||
		!strings.Contains(body, "nope") {
		t.Fatalf("batched ops must inherit the top-level table: %d %s", code, body)
	}
	if code, _ := post(`{"table":"data","ops":[{"op":"delete","rows":[5]}]}`); code != 200 {
		t.Fatalf("batched delete with top-level table: want 200, got %d", code)
	}
	// A partially-failed batch reports the applied prefix: the first
	// insert lands (and its row id must come back), the second fails.
	code, body := post(fmt.Sprintf(`{"op":"insert","rows":[[%d,1],[7]]}`, n+50))
	if code != 400 {
		t.Fatalf("partial failure: want 400, got %d %s", code, body)
	}
	if !strings.Contains(body, `"inserted":[`) || !strings.Contains(body, `"error"`) {
		t.Fatalf("partial-failure response must carry the applied prefix: %s", body)
	}
}
