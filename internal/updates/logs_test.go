package updates

import (
	"errors"
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
)

// checkLogs fails unless the pending logs hold at most
// 2×PendingRows()+logSlack pairs and, when they are kept, patch to
// exactly the backlog: +1 for every pending insert, −1 for every
// pending delete, 0 for every other row.
func checkLogs(t *testing.T, u *Column, step int) {
	t.Helper()
	if got, bound := len(u.insLog)+len(u.delLog), 2*u.PendingRows()+logSlack; got > bound {
		t.Fatalf("step %d: logs hold %d pairs for a backlog of %d (bound %d)", step, got, u.PendingRows(), bound)
	}
	if u.logsStale {
		return
	}
	net := make(map[column.RowID]int)
	for _, p := range u.insLog {
		if v, ok := u.pendingIns[p.Row]; ok && v != p.Val {
			t.Fatalf("step %d: insert log has row %d = %d, buffer has %d", step, p.Row, p.Val, v)
		}
		net[p.Row]++
	}
	for _, p := range u.delLog {
		net[p.Row]--
	}
	for row := range u.pendingIns {
		net[row]--
	}
	for row := range u.pendingDel {
		net[row]++
	}
	for row, d := range net {
		if d != 0 {
			t.Fatalf("step %d: logs patch row %d off the backlog by %d", step, row, d)
		}
	}
}

// TestPendingLogsStayBoundedWithPerQueryMerges drives the paper's
// per-query merges (no epoch readers): the logs must not grow with the
// writes, whether or not a reader ever asked for them.
func TestPendingLogsStayBoundedWithPerQueryMerges(t *testing.T) {
	const n, domain = 2000, 5000
	for _, policy := range []MergePolicy{MergeGradually, MergeCompletely} {
		rng := rand.New(rand.NewSource(3))
		u := New(randomValues(rng, n, domain), core.DefaultOptions(), policy)
		m := newModel(randomValues(rand.New(rand.NewSource(3)), n, domain))
		for step := 0; step < 6000; step++ {
			if step == 3000 {
				// From here on the logs are kept, as after a publication.
				u.PendingLogs()
			}
			switch op := rng.Intn(10); {
			case op < 5:
				v := column.Value(rng.Intn(domain))
				if got, want := u.Insert(v), m.insert(v); got != want {
					t.Fatalf("%v step %d: insert row %d, model %d", policy, step, got, want)
				}
			case op < 7:
				if row, ok := m.someRow(rng); ok {
					m.delete(row)
					if err := u.Delete(row); err != nil {
						t.Fatal(err)
					}
				}
			default:
				lo := column.Value(rng.Intn(domain))
				r := column.NewRange(lo, lo+column.Value(rng.Intn(200)))
				if got, want := len(u.Select(r)), len(m.selectRange(r)); got != want {
					t.Fatalf("%v step %d: select %v returned %d rows, model %d", policy, step, r, got, want)
				}
			}
			checkLogs(t, u, step)
		}
	}
}

// TestPendingLogsStayBoundedUnderChurn is the epoch-reader side: the
// logs are read after every write, a batch merge runs only once the
// backlog is due, and most writes insert a row and delete it again
// while it is still pending — a churn that grows the logs but not the
// backlog, so no merge ever resets them.
func TestPendingLogsStayBoundedUnderChurn(t *testing.T) {
	const n, domain = 3000, 5000
	rng := rand.New(rand.NewSource(9))
	u := New(randomValues(rng, n, domain), core.DefaultOptions(), MergeGradually)
	for q := 0; q < 200; q++ {
		lo := column.Value(rng.Intn(domain))
		u.Crack(column.NewRange(lo, lo+20))
	}
	u.PendingLogs()
	merges := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(20); {
		case op == 0:
			// A deletion of a merged row: the backlog grows slowly.
			if err := u.Delete(column.RowID(rng.Intn(n))); err != nil && !errors.Is(err, ErrRowNotFound) {
				t.Fatal(err)
			}
		case op == 1:
			u.Insert(column.Value(rng.Intn(domain)))
		default:
			// A row inserted and deleted again before any merge.
			if err := u.Delete(u.Insert(column.Value(rng.Intn(domain)))); err != nil {
				t.Fatal(err)
			}
		}
		if u.PendingRows() >= u.MergeThreshold() {
			u.MergeBatch()
			merges++
		}
		u.PendingLogs()
		checkLogs(t, u, step)
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d batch merges; logs end at %d pairs for a backlog of %d", merges, len(u.insLog)+len(u.delLog), u.PendingRows())
}
