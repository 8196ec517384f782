package engine

import (
	"errors"
	"math/rand"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/workload"
)

func buildCatalog(t *testing.T, n int, seed int64) (*Catalog, *Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := NewTable("orders")
	a := make([]column.Value, n)
	b := make([]column.Value, n)
	c := make([]column.Value, n)
	d := make([]column.Value, n)
	for i := 0; i < n; i++ {
		a[i] = column.Value(rng.Intn(10000))
		b[i] = column.Value(rng.Intn(100))
		c[i] = column.Value(rng.Intn(1000000))
		d[i] = column.Value(i)
	}
	for name, vals := range map[string][]column.Value{"amount": a, "status": b, "customer": c, "id": d} {
		if err := tab.AddColumn(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	return cat, tab
}

func TestTableAndCatalogErrors(t *testing.T) {
	tab := NewTable("t")
	if err := tab.AddColumn("a", []column.Value{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AddColumn("a", []column.Value{1, 2, 3}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate column: %v", err)
	}
	if err := tab.AddColumn("b", []column.Value{1}); !errors.Is(err, ErrColumnLength) {
		t.Fatalf("length mismatch: %v", err)
	}
	if _, err := tab.Column("missing"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("unknown column: %v", err)
	}
	if tab.NumRows() != 3 || tab.Name() != "t" || len(tab.Columns()) != 1 {
		t.Fatal("table accessors wrong")
	}

	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tab); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, err := cat.Table("missing"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table: %v", err)
	}
	if len(cat.Tables()) != 1 {
		t.Fatal("catalog listing wrong")
	}
}

func TestAccessPathString(t *testing.T) {
	if PathScan.String() != "scan" || PathCracking.String() != "cracking" ||
		PathSideways.String() != "sideways" {
		t.Fatal("access path names wrong")
	}
}

func TestSelectRowsAllPathsAgree(t *testing.T) {
	cat, tab := buildCatalog(t, 5000, 1)
	eng := New(cat, core.DefaultOptions())
	amounts, _ := tab.Column("amount")
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 60; q++ {
		lo := column.Value(rng.Intn(10000))
		r := column.NewRange(lo, lo+column.Value(rng.Intn(500)))
		want := column.IDList{}
		for i, v := range amounts {
			if r.Contains(v) {
				want = append(want, column.RowID(i))
			}
		}
		for _, path := range []AccessPath{PathScan, PathCracking, PathSideways} {
			got, err := eng.SelectRows("orders", "amount", r, path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s query %s: got %d rows want %d", path, r, len(got), len(want))
			}
		}
	}
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectProjectAllPathsAgree(t *testing.T) {
	cat, tab := buildCatalog(t, 3000, 3)
	eng := New(cat, core.DefaultOptions())
	amounts, _ := tab.Column("amount")
	status, _ := tab.Column("status")
	customer, _ := tab.Column("customer")
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 40; q++ {
		lo := column.Value(rng.Intn(10000))
		r := column.NewRange(lo, lo+300)
		for _, path := range []AccessPath{PathScan, PathCracking, PathSideways} {
			res, err := eng.SelectProject("orders", "amount", r, []string{"status", "customer"}, path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(res.Columns["status"]) != len(res.Rows) || len(res.Columns["customer"]) != len(res.Rows) {
				t.Fatalf("%s: projection length mismatch", path)
			}
			for i, row := range res.Rows {
				if !r.Contains(amounts[row]) {
					t.Fatalf("%s: row %d does not satisfy %s", path, row, r)
				}
				if res.Columns["status"][i] != status[row] || res.Columns["customer"][i] != customer[row] {
					t.Fatalf("%s: misaligned projection for row %d", path, row)
				}
			}
		}
	}
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectErrors(t *testing.T) {
	cat, _ := buildCatalog(t, 100, 5)
	eng := New(cat, core.DefaultOptions())
	if _, err := eng.SelectRows("missing", "amount", column.NewRange(0, 1), PathScan); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table: %v", err)
	}
	for _, path := range []AccessPath{PathScan, PathCracking, PathSideways} {
		if _, err := eng.SelectRows("orders", "missing", column.NewRange(0, 1), path); !errors.Is(err, ErrUnknownColumn) {
			t.Fatalf("%s unknown column: %v", path, err)
		}
	}
	if _, err := eng.SelectProject("orders", "amount", column.NewRange(0, 1), []string{"missing"}, PathScan); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("unknown projection column: %v", err)
	}
	if _, err := eng.SelectProject("nope", "amount", column.NewRange(0, 1), nil, PathScan); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table in select-project: %v", err)
	}
}

func TestSidewaysBeatsCrackingForWideProjections(t *testing.T) {
	// E6's shape: with several projected attributes and a converged
	// workload, sideways cracking does less work per query than
	// cracking plus late tuple reconstruction, because reconstruction
	// after cracking is random access per projected attribute.
	n := 50000
	cat, _ := buildCatalog(t, n, 6)
	queries := workload.Queries(workload.NewUniform(7, 0, 10000, 0.02), 200)
	project := []string{"status", "customer", "id"}

	crackEng := New(cat, core.DefaultOptions())
	sideEng := New(cat, core.DefaultOptions())
	for _, r := range queries {
		if _, err := crackEng.SelectProject("orders", "amount", r, project, PathCracking); err != nil {
			t.Fatal(err)
		}
		if _, err := sideEng.SelectProject("orders", "amount", r, project, PathSideways); err != nil {
			t.Fatal(err)
		}
	}
	// Compare the work of the last 50 queries: by then both strategies
	// have converged and the reconstruction difference dominates.
	crackTail := crackEng.Cost()
	sideTail := sideEng.Cost()
	crackEng2 := crackTail
	_ = crackEng2
	// Run 50 more queries and measure the delta.
	more := workload.Queries(workload.NewUniform(8, 0, 10000, 0.02), 50)
	crackBefore, sideBefore := crackEng.Cost().Total(), sideEng.Cost().Total()
	for _, r := range more {
		if _, err := crackEng.SelectProject("orders", "amount", r, project, PathCracking); err != nil {
			t.Fatal(err)
		}
		if _, err := sideEng.SelectProject("orders", "amount", r, project, PathSideways); err != nil {
			t.Fatal(err)
		}
	}
	crackDelta := crackEng.Cost().Total() - crackBefore
	sideDelta := sideEng.Cost().Total() - sideBefore
	if sideDelta >= crackDelta {
		t.Fatalf("sideways (%d) should beat cracking+reconstruction (%d) on converged wide projections",
			sideDelta, crackDelta)
	}
	_ = sideTail
}

func TestEngineCostAccumulates(t *testing.T) {
	cat, _ := buildCatalog(t, 1000, 9)
	eng := New(cat, core.DefaultOptions())
	if !eng.Cost().IsZero() {
		t.Fatal("fresh engine must have zero cost")
	}
	if _, err := eng.SelectRows("orders", "amount", column.NewRange(0, 5000), PathScan); err != nil {
		t.Fatal(err)
	}
	afterScan := eng.Cost().Total()
	if afterScan == 0 {
		t.Fatal("scan must be charged")
	}
	if _, err := eng.SelectRows("orders", "amount", column.NewRange(0, 5000), PathCracking); err != nil {
		t.Fatal(err)
	}
	if eng.Cost().Total() <= afterScan {
		t.Fatal("cracking must be charged on top")
	}
}

// TestConvergedSidewaysRunAllocations pins the allocations of a
// converged engine.Run on the sideways path to what the cracking path
// makes: a repeated select+project copies its result out of the map
// with no per-query bookkeeping allocation, and a repeated count
// allocates nothing beyond its Result.
func TestConvergedSidewaysRunAllocations(t *testing.T) {
	cat, _ := buildCatalog(t, 20_000, 12)
	eng := New(cat, core.DefaultOptions())
	sel := Query{Table: "orders", Column: "amount", R: column.NewRange(2000, 2400), Project: []string{"customer"}, Path: PathSideways}
	cnt := Query{Table: "orders", Column: "amount", R: column.NewRange(5000, 5600), CountOnly: true, Path: PathSideways}
	for _, q := range []Query{sel, cnt} {
		if _, err := eng.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		q    Query
		max  float64
	}{{"select", sel, 5}, {"count", cnt, 1}} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := eng.Run(tc.q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("converged sideways %s makes %.0f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
		t.Logf("converged sideways %s: %.0f allocations", tc.name, allocs)
	}
}
