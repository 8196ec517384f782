package server

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
)

// TestEpochReadersRaceWithWrites is the service-level concurrency
// contract for Readers > 1, meant to run under -race: N client
// goroutines hammer the epoch read pool with counts and projected
// selects while a writer streams inserts and deletes through the
// serialised write path and the background reorganiser cracks off the
// query path and merges the write backlog in batches. The writer only
// ever touches values outside the queried band, so every answer stays
// checkable against the initial brute-force reference even while the
// write stream runs; closing the service drains the backlog.
func TestEpochReadersRaceWithWrites(t *testing.T) {
	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"batched", 200 * time.Microsecond},
		{"direct", 0},
	} {
		t.Run(mode.name, func(t *testing.T) {
			const (
				n       = 50_000
				clients = 8
				queries = 300
			)
			eng, vals := testEngine(t, n)
			svc, err := NewService(Config{
				Engine:       eng,
				DefaultTable: "data",
				DefaultPath:  "auto",
				BatchWindow:  mode.window,
				Readers:      4,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Queried ranges live in [0, n/4); the writer inserts values
			// in [n/2, n) and deletes only its own rows, so reference
			// counts computed up front stay exact for the whole run.
			stop := make(chan struct{})
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				rng := rand.New(rand.NewSource(99))
				var mine []column.RowID
				for {
					select {
					case <-stop:
						return
					default:
					}
					v := column.Value(n/2 + rng.Intn(n/2))
					rep, err := svc.Apply([]api.WriteOp{{Table: "data", Insert: [][]column.Value{{v, v, v}}}})
					if err == nil {
						mine = append(mine, rep.Inserted...)
					}
					if len(mine) > 8 {
						row := mine[0]
						mine = mine[1:]
						svc.Apply([]api.WriteOp{{Table: "data", Delete: []column.RowID{row}}})
					}
				}
			}()

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < queries; i++ {
						lo := column.Value(rng.Intn(n / 4))
						r := column.NewRange(lo, lo+column.Value(1+rng.Intn(400)))
						want := refCount(vals, r)
						if i%2 == 0 {
							got, err := svc.CountQuery(Query{R: r})
							if err != nil {
								errs <- err
								return
							}
							if got != want {
								errs <- fmt.Errorf("client %d: count(%s) = %d, want %d", g, r, got, want)
								return
							}
						} else {
							reply, err := svc.SelectQuery(Query{R: r, Project: []string{"c1"}})
							if err != nil {
								errs <- err
								return
							}
							if reply.Count != want || len(reply.Rows) != want || len(reply.Columns["c1"]) != want {
								if reply.Done != nil {
									reply.Done()
								}
								errs <- fmt.Errorf("client %d: select(%s) = %d rows, want %d", g, r, reply.Count, want)
								return
							}
							if reply.Done != nil {
								reply.Done()
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			writerWG.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}

			st := svc.Stats()
			if st.Readers != 4 || st.Reorg == nil {
				t.Fatalf("stats must report the epoch machinery: readers=%d reorg=%v", st.Readers, st.Reorg)
			}
			if st.Reorg.Epoch.Reads == 0 {
				t.Fatal("no epoch reads recorded; the pool never engaged")
			}
			svc.Close()
			st = svc.Stats()
			if st.Reorg.Epoch.Published == 0 {
				t.Fatalf("no epochs published: %+v", st.Reorg)
			}
			if st.Reorg.Epoch.IntentsApplied == 0 {
				t.Fatal("the reorganiser never applied a crack intent")
			}
			if ws := st.WriteState; ws.PendingInserts+ws.PendingDeletes != 0 || ws.MergedInserts == 0 {
				t.Fatalf("closing must leave the write backlog merged: %+v", ws)
			}
		})
	}
}

// TestEpochReadOverPendingRowsRaisesNoIntent pins that buffered writes
// alone never ask the reorganiser for work: a read whose bounds are
// already cracked answers over a non-empty pending buffer by patching
// the pending rows in, and enqueues no intent.
func TestEpochReadOverPendingRowsRaisesNoIntent(t *testing.T) {
	const n = 20_000
	eng, vals := testEngine(t, n)
	r := column.NewRange(1000, 2000)
	if _, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: r, CountOnly: true, Path: engine.PathCracking}); err != nil {
		t.Fatal(err)
	}
	want := refCount(vals, r)
	svc, err := NewService(Config{Engine: eng, DefaultTable: "data", DefaultPath: "auto", Readers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tab, err := eng.Catalog().Table("data")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]column.Value, len(tab.Columns()))
	row[0] = 1500
	if _, err := svc.Apply([]api.WriteOp{{Table: "data", Insert: [][]column.Value{row}}}); err != nil {
		t.Fatal(err)
	}
	if ws := eng.WriteStats(); ws.PendingInserts != 1 {
		t.Fatalf("the insert should be buffered: %+v", ws)
	}
	got, err := svc.CountQuery(Query{R: r})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := svc.SelectQuery(Query{R: r})
	if err != nil {
		t.Fatal(err)
	}
	reply.Done()
	if got != want+1 || len(reply.Rows) != want+1 {
		t.Fatalf("count %d, select %d rows, want %d", got, len(reply.Rows), want+1)
	}
	if st := svc.Stats(); st.Reorg.IntentsQueued != 0 || st.Reorg.IntentsDropped != 0 {
		t.Fatalf("reads over cracked bounds raised intents: %+v", st.Reorg)
	}
}
