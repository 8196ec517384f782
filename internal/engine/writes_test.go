package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// testCatalog builds a deterministic two-column table.
func testCatalog(t *testing.T, name string, n int, seed int64) *Catalog {
	t.Helper()
	tab := NewTable(name)
	for ci := 0; ci < 2; ci++ {
		if err := tab.AddColumn(fmt.Sprintf("c%d", ci), workload.DataUniform(seed+int64(ci), n, n)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestInsertDeleteVisibleToAllPaths(t *testing.T) {
	const n = 2000
	for _, policy := range []updates.MergePolicy{updates.MergeGradually, updates.MergeCompletely, updates.MergeImmediately} {
		t.Run(policy.String(), func(t *testing.T) {
			eng := New(testCatalog(t, "data", n, 7), core.DefaultOptions())
			eng.SetMergePolicy(policy)

			// Touch every path once so existing structures must absorb
			// the writes rather than being built after them.
			warm := column.NewRange(100, 200)
			for _, path := range []AccessPath{PathScan, PathCracking, PathSideways} {
				if _, err := eng.Run(Query{Table: "data", Column: "c0", R: warm, Path: path}); err != nil {
					t.Fatal(err)
				}
			}

			// Insert rows with a sentinel value far outside the domain,
			// delete every base row holding value 0.
			const sentinel = column.Value(n + 500)
			var inserted []column.RowID
			for i := 0; i < 5; i++ {
				row, err := eng.InsertRow("data", []column.Value{sentinel, column.Value(i)})
				if err != nil {
					t.Fatal(err)
				}
				inserted = append(inserted, row)
			}
			tab, _ := eng.Catalog().Table("data")
			c0, _ := tab.Column("c0")
			deleted := 0
			for i, v := range c0[:n] {
				if v < 20 {
					if err := eng.DeleteRow("data", column.RowID(i)); err != nil {
						t.Fatal(err)
					}
					deleted++
				}
			}
			if deleted == 0 {
				t.Fatal("test needs at least one deleted row")
			}

			wantSentinels := toSet(inserted)
			for _, path := range []AccessPath{PathScan, PathCracking, PathSideways} {
				res, err := eng.Run(Query{Table: "data", Column: "c0", R: column.NewRange(sentinel, sentinel+1), Project: []string{"c1"}, Path: path})
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if got := toSet(res.Rows); !sameSet(got, wantSentinels) {
					t.Errorf("%s: sentinel rows = %v, want %v", path, res.Rows, inserted)
				}
				low, err := eng.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 20), Path: path})
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if low.Count != 0 {
					t.Errorf("%s: %d deleted rows still visible", path, low.Count)
				}
			}
			if err := eng.Validate(); err != nil {
				t.Fatal(err)
			}
			ws := eng.WriteStats()
			if ws.Inserts != 5 || ws.Deletes != uint64(deleted) {
				t.Errorf("WriteStats = %+v, want 5 inserts, %d deletes", ws, deleted)
			}
		})
	}
}

func TestDeleteErrors(t *testing.T) {
	eng := New(testCatalog(t, "data", 100, 3), core.DefaultOptions())
	if err := eng.DeleteRow("data", 5); err != nil {
		t.Fatal(err)
	}
	if err := eng.DeleteRow("data", 5); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("double delete: got %v, want ErrRowNotFound", err)
	}
	if err := eng.DeleteRow("data", 10_000); !errors.Is(err, ErrRowNotFound) {
		t.Errorf("out-of-range delete: got %v, want ErrRowNotFound", err)
	}
	if _, err := eng.InsertRow("data", []column.Value{1}); !errors.Is(err, ErrRowArity) {
		t.Errorf("short insert: got %v, want ErrRowArity", err)
	}
	if _, err := eng.InsertRow("nope", []column.Value{1, 2}); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("unknown table: got %v, want ErrUnknownTable", err)
	}
}

// TestDifferentialUnderInterleavedWrites replays one interleaved
// insert/delete/select stream against an engine per access path (auto
// included) and asserts every path returns identical rows and
// projections after every read — the cross-path correctness contract
// the write path must preserve.
func TestDifferentialUnderInterleavedWrites(t *testing.T) {
	const n = 1500
	const steps = 400
	paths := []AccessPath{PathScan, PathCracking, PathSideways, PathAuto}
	engines := make([]*Engine, len(paths))
	for i := range paths {
		engines[i] = New(testCatalog(t, "data", n, 11), core.DefaultOptions())
	}

	rng := rand.New(rand.NewSource(99))
	reads := workload.NewDriftingHotSet(5, 0, n, 0.05, 0.3, 8, 1.3, 40)
	var own []column.RowID // rows inserted by the stream, still live
	for step := 0; step < steps; step++ {
		switch x := rng.Float64(); {
		case x < 0.15:
			vals := []column.Value{column.Value(rng.Intn(n)), column.Value(rng.Intn(n))}
			var row column.RowID
			for i, eng := range engines {
				r, err := eng.InsertRow("data", vals)
				if err != nil {
					t.Fatalf("step %d insert (%s): %v", step, paths[i], err)
				}
				if i == 0 {
					row = r
				} else if r != row {
					t.Fatalf("step %d: engines disagree on inserted row id (%d vs %d)", step, r, row)
				}
			}
			own = append(own, row)
		case x < 0.25 && len(own) > 0:
			row := own[0]
			own = own[1:]
			for i, eng := range engines {
				if err := eng.DeleteRow("data", row); err != nil {
					t.Fatalf("step %d delete (%s): %v", step, paths[i], err)
				}
			}
		default:
			r := reads.Next()
			var want column.IDList
			var wantProj []column.Value
			for i, eng := range engines {
				res, err := eng.Run(Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: paths[i]})
				if err != nil {
					t.Fatalf("step %d read (%s): %v", step, paths[i], err)
				}
				rows := append(column.IDList(nil), res.Rows...)
				proj := append([]column.Value(nil), res.Columns["c1"]...)
				sortRowsWithProj(rows, proj)
				if i == 0 {
					want, wantProj = rows, proj
					continue
				}
				if !equalIDs(rows, want) {
					t.Fatalf("step %d range %v: %s rows differ from %s (%d vs %d rows)",
						step, r, paths[i], paths[0], len(rows), len(want))
				}
				if !equalVals(proj, wantProj) {
					t.Fatalf("step %d range %v: %s projections differ from %s", step, r, paths[i], paths[0])
				}
			}
		}
	}
	for i, eng := range engines {
		if err := eng.Validate(); err != nil {
			t.Fatalf("%s: %v", paths[i], err)
		}
	}
}

func toSet(rows column.IDList) map[column.RowID]bool {
	s := make(map[column.RowID]bool, len(rows))
	for _, r := range rows {
		s[r] = true
	}
	return s
}

func sameSet(a, b map[column.RowID]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !b[r] {
			return false
		}
	}
	return true
}

func sortRowsWithProj(rows column.IDList, proj []column.Value) {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return rows[idx[i]] < rows[idx[j]] })
	r2 := make(column.IDList, len(rows))
	p2 := make([]column.Value, len(proj))
	for i, k := range idx {
		r2[i] = rows[k]
		if k < len(proj) {
			p2[i] = proj[k]
		}
	}
	copy(rows, r2)
	copy(proj, p2)
}

func equalIDs(a, b column.IDList) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalVals(a, b []column.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
