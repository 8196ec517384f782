package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
)

// TestEpochReadsRaceWithReorganiser is the epoch machinery's
// concurrency contract, meant to run under -race: N reader goroutines
// hammer one column with epoch-pinned reads while the owner goroutine
// interleaves writes, crack-intent application (crack splits only),
// batched merges of the pending backlog once it is due, and epoch
// publication. Every read must observe exactly the
// visible row set of the epoch it pinned: the owner records the
// expected count for a fixed probe range before each publication, and
// readers check whatever epoch they land on against that record.
// Random-range reads are checked intrinsically — the projected
// selection values must all fall inside the predicate.
func TestEpochReadsRaceWithReorganiser(t *testing.T) {
	const (
		n       = 20000
		domain  = 10000
		readers = 4
		rounds  = 60
	)
	rng := rand.New(rand.NewSource(11))
	tab := NewTable("orders")
	amounts := make([]column.Value, n)
	ids := make([]column.Value, n)
	for i := 0; i < n; i++ {
		amounts[i] = column.Value(rng.Intn(domain))
		ids[i] = column.Value(i)
	}
	if err := tab.AddColumn("amount", amounts); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("id", ids); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	eng := New(cat, core.DefaultOptions())

	// truth is the owner's source of record: live row -> amount.
	probe := column.NewRange(2000, 4000)
	truth := make(map[column.RowID]column.Value, n)
	for i, v := range amounts {
		truth[column.RowID(i)] = v
	}
	countTruth := func() int {
		c := 0
		for _, v := range truth {
			if probe.Contains(v) {
				c++
			}
		}
		return c
	}

	// Drive the batch threshold down before the readers start, so a
	// batched merge must run during the rounds whatever the schedule.
	// MergeThreshold is about 4n/P rows for P pieces: cracking the
	// column into a few thousand pieces here takes it to its floor, and
	// the rounds insert far more rows than that. Readers' intents only
	// add pieces, so the threshold cannot climb back.
	crackRng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		lo := column.Value(crackRng.Intn(domain))
		q := Query{Table: "orders", Column: "amount", R: column.NewRange(lo, lo+column.Value(1+crackRng.Intn(500))), CountOnly: true, Path: PathCracking}
		if _, err := eng.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if th := eng.crackers[key("orders", "amount")].MergeThreshold(); 2*th > 4*rounds {
		t.Fatalf("pre-cracking left the batch threshold at %d rows; the rounds insert only %d", th, 4*rounds)
	}

	// expected maps epoch seq -> visible probe count; each entry is
	// stored before its epoch is published and never overwritten.
	var expected sync.Map
	ep := eng.PublishEpoch()
	expected.Store(ep.Seq, countTruth())
	lastSeq := ep.Seq

	intents := make(chan Intent, 256)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if i%2 == 0 {
					// Fixed probe: the count must be exactly the pinned
					// epoch's visible row count.
					res, info, err := eng.EpochRead(Query{Table: "orders", Column: "amount", R: probe, CountOnly: true})
					if err != nil {
						fail("reader %d: %v", g, err)
						return
					}
					want, ok := expected.Load(info.Seq)
					if !ok {
						info.Release()
						fail("reader %d: epoch %d has no expected count", g, info.Seq)
						return
					}
					if res.Count != want.(int) {
						info.Release()
						fail("reader %d: epoch %d: count %d, want %d", g, info.Seq, res.Count, want.(int))
						return
					}
					if info.NeedsReorg {
						select {
						case intents <- Intent{Table: "orders", Column: "amount", R: probe}:
						default:
						}
					}
					info.Release()
				} else {
					// Random range with projection: every projected value
					// must satisfy the predicate, and count must match the
					// row list.
					lo := column.Value(rng.Intn(domain))
					r := column.NewRange(lo, lo+column.Value(1+rng.Intn(500)))
					res, info, err := eng.EpochRead(Query{Table: "orders", Column: "amount", R: r, Project: []string{"amount"}})
					if err != nil {
						fail("reader %d: %v", g, err)
						return
					}
					if res.Count != len(res.Rows) || len(res.Columns["amount"]) != len(res.Rows) {
						info.Release()
						fail("reader %d: count %d, %d rows, %d projected", g, res.Count, len(res.Rows), len(res.Columns["amount"]))
						return
					}
					for _, v := range res.Columns["amount"] {
						if !r.Contains(v) {
							info.Release()
							fail("reader %d: projected value %d outside %s", g, v, r)
							return
						}
					}
					if info.NeedsReorg {
						select {
						case intents <- Intent{Table: "orders", Column: "amount", R: r}:
						default:
						}
					}
					info.Release()
				}
			}
		}(g)
	}

	// The owner goroutine: writes, reorganisation, publication.
	ownerRng := rand.New(rand.NewSource(7))
	live := make([]column.RowID, 0, n)
	for row := range truth {
		live = append(live, row)
	}
	for round := 0; round < rounds; round++ {
		for k := 0; k < 4; k++ {
			v := column.Value(ownerRng.Intn(domain))
			row, err := eng.InsertRow("orders", []column.Value{v, column.Value(n + round*4 + k)})
			if err != nil {
				t.Fatal(err)
			}
			truth[row] = v
			live = append(live, row)
		}
		if len(live) > 0 && round%3 == 0 {
			i := ownerRng.Intn(len(live))
			row := live[i]
			if err := eng.DeleteRow("orders", row); err != nil {
				t.Fatal(err)
			}
			delete(truth, row)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	drain:
		for {
			select {
			case in := <-intents:
				if err := eng.ApplyIntent(in); err != nil {
					t.Fatal(err)
				}
			default:
				break drain
			}
		}
		eng.MergePending(false)
		count := countTruth()
		expected.Store(lastSeq+1, count)
		ep := eng.PublishEpoch()
		if ep.Seq != lastSeq && ep.Seq != lastSeq+1 {
			t.Fatalf("publish jumped from seq %d to %d", lastSeq, ep.Seq)
		}
		if want, _ := expected.Load(ep.Seq); want.(int) != count {
			t.Fatalf("epoch %d expected count %v, owner computed %d", ep.Seq, want, count)
		}
		lastSeq = ep.Seq
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// The backlog reached its threshold during the rounds (the
	// pre-cracking above guarantees it): batched merges ran beside the
	// readers, not only at quiesce.
	if ws := eng.WriteStats(); ws.MergedInserts == 0 {
		t.Fatalf("no batched merge ran during the rounds: %+v", ws)
	}

	// Convergence: apply everything still queued, drain the backlog,
	// publish, and the final epoch must agree with the owner's truth.
	for {
		select {
		case in := <-intents:
			if err := eng.ApplyIntent(in); err != nil {
				t.Fatal(err)
			}
			continue
		default:
		}
		break
	}
	eng.MergePending(true)
	if ws := eng.WriteStats(); ws.PendingInserts+ws.PendingDeletes != 0 {
		t.Fatalf("pending updates left after a full merge: %+v", ws)
	}
	eng.PublishEpoch()
	res, info, err := eng.EpochRead(Query{Table: "orders", Column: "amount", R: probe, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	info.Release()
	if res.Count != countTruth() {
		t.Fatalf("final epoch count %d, truth %d", res.Count, countTruth())
	}
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
	st := eng.EpochStats()
	if st.Published == 0 || st.Reads == 0 {
		t.Fatalf("epoch stats not recording: %+v", st)
	}
	if st.IntentsApplied == 0 {
		t.Fatal("no crack intents were applied; the stress never reorganised")
	}
}
