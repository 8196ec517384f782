package engine

import (
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
)

// crackedEngine returns an engine over one 100k-row table whose column
// "v" has been cracked by the given number of random range counts.
func crackedEngine(t *testing.T, queries int) *Engine {
	t.Helper()
	const n = 100_000
	rng := rand.New(rand.NewSource(5))
	vals := make([]column.Value, n)
	for i := range vals {
		vals[i] = column.Value(rng.Intn(n))
	}
	tab := NewTable("t")
	if err := tab.AddColumn("v", vals); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	eng := New(cat, core.DefaultOptions())
	for q := 0; q < queries; q++ {
		lo := column.Value(rng.Intn(n))
		if _, err := eng.Run(Query{Table: "t", Column: "v", R: column.NewRange(lo, lo+50), CountOnly: true, Path: PathCracking}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestPublishAfterBufferedWriteCostsNoPieceWalk pins that publishing an
// epoch after a write that only buffered a row does not depend on the
// piece count: the column's catalog is reused outright and the pending
// rows are shared log prefixes, so the allocations are the same at a
// thousand pieces and at forty thousand.
func TestPublishAfterBufferedWriteCostsNoPieceWalk(t *testing.T) {
	allocs := map[int]float64{}
	for _, queries := range []int{500, 30_000} {
		eng := crackedEngine(t, queries)
		pieces := eng.crackers[key("t", "v")].Cracker().NumPieces()
		eng.PublishEpoch()
		v := column.Value(0)
		allocs[queries] = testing.AllocsPerRun(100, func() {
			v++
			if _, err := eng.InsertRow("t", []column.Value{v}); err != nil {
				t.Fatal(err)
			}
			eng.PublishEpoch()
		})
		t.Logf("%d pieces: %.0f allocations per buffered write and publication", pieces, allocs[queries])
	}
	if allocs[500] != allocs[30_000] {
		t.Fatalf("publication allocates %v at ~1k pieces and %v at ~40k", allocs[500], allocs[30_000])
	}
}

// TestEpochReadsStayExactUnderPendingChurn publishes after every write
// while most writes insert a row and delete it again before any merge:
// the backlog stays small, every epoch must count exactly the live
// rows, and the pending pairs each epoch patches in must stay within
// twice the backlog plus a constant instead of growing with the writes.
func TestEpochReadsStayExactUnderPendingChurn(t *testing.T) {
	eng := crackedEngine(t, 200)
	uc := eng.crackers[key("t", "v")]
	base := eng.cat.tables["t"].cols["v"]
	probe := column.NewRange(20_000, 60_000)
	countEpoch := func() int {
		t.Helper()
		res, info, err := eng.EpochRead(Query{Table: "t", Column: "v", R: probe, CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		info.Release()
		return res.Count
	}
	eng.PublishEpoch()
	want := countEpoch()
	rng := rand.New(rand.NewSource(8))
	deleted := map[column.RowID]bool{}
	for step := 0; step < 3000; step++ {
		if step%10 == 0 {
			row := column.RowID(rng.Intn(len(base)))
			if !deleted[row] {
				if err := eng.DeleteRow("t", row); err != nil {
					t.Fatal(err)
				}
				deleted[row] = true
				if probe.Contains(base[row]) {
					want--
				}
			}
		}
		v := column.Value(rng.Intn(100_000))
		row, err := eng.InsertRow("t", []column.Value{v})
		if err != nil {
			t.Fatal(err)
		}
		eng.PublishEpoch()
		if probe.Contains(v) {
			if got := countEpoch(); got != want+1 {
				t.Fatalf("step %d: epoch counts %d after an insert, want %d", step, got, want+1)
			}
		}
		if err := eng.DeleteRow("t", row); err != nil {
			t.Fatal(err)
		}
		eng.MergePending(false)
		eng.PublishEpoch()
		if got := countEpoch(); got != want {
			t.Fatalf("step %d: epoch counts %d, want %d", step, got, want)
		}
		ec := eng.epoch.Load().cols[key("t", "v")]
		if got, pending := len(ec.pendIns)+len(ec.pendDel), uc.PendingRows(); got > 2*pending+64 {
			t.Fatalf("step %d: the epoch patches %d pending pairs for a backlog of %d", step, got, pending)
		}
	}
}
