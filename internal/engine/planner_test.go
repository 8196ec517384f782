package engine

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/workload"
)

// randomCatalog builds a catalog with a random number of tables and
// columns, deterministic for a seed.
func randomCatalog(t *testing.T, rng *rand.Rand) *Catalog {
	t.Helper()
	cat := NewCatalog()
	tables := 1 + rng.Intn(2)
	for ti := 0; ti < tables; ti++ {
		name := []string{"orders", "events"}[ti]
		tab := NewTable(name)
		n := 2000 + rng.Intn(4000)
		cols := 1 + rng.Intn(3)
		for ci := 0; ci < cols; ci++ {
			vals := workload.DataUniform(rng.Int63(), n, 10000)
			if err := tab.AddColumn([]string{"c0", "c1", "c2"}[ci], vals); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestRunDifferentialAllPaths is the differential guard against
// planner-introduced wrong answers: for random catalogs and random
// workloads, every access path — and PathAuto, whatever it routes to —
// must return exactly the same row set and the same projected value
// for every row.
func TestRunDifferentialAllPaths(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := randomCatalog(t, rng)
		// One engine per path so adaptive state never mixes; auto gets
		// its own too.
		engines := map[AccessPath]*Engine{}
		for _, p := range []AccessPath{PathScan, PathCracking, PathSideways, PathAuto} {
			engines[p] = New(cat, core.DefaultOptions())
		}
		names := cat.Tables()
		sort.Strings(names)
		for q := 0; q < 80; q++ {
			table := names[rng.Intn(len(names))]
			tab, err := cat.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			cols := tab.Columns()
			colName := cols[rng.Intn(len(cols))]
			var project []string
			for _, c := range cols {
				if c != colName && rng.Intn(2) == 0 {
					project = append(project, c)
				}
			}
			lo := column.Value(rng.Intn(10000))
			r := column.NewRange(lo, lo+column.Value(1+rng.Intn(800)))

			type keyed struct {
				rows map[column.RowID]bool
				vals map[string]map[column.RowID]column.Value
			}
			results := map[AccessPath]keyed{}
			for _, p := range []AccessPath{PathScan, PathCracking, PathAuto, PathSideways} {
				path := p
				if path == PathSideways && len(cols) == 1 {
					continue // sideways needs a projection attribute to exist
				}
				res, err := engines[p].Run(Query{Table: table, Column: colName, R: r, Project: project, Path: path})
				if err != nil {
					t.Fatalf("seed %d query %d path %s: %v", seed, q, p, err)
				}
				k := keyed{rows: map[column.RowID]bool{}, vals: map[string]map[column.RowID]column.Value{}}
				for _, attr := range project {
					k.vals[attr] = map[column.RowID]column.Value{}
				}
				for i, row := range res.Rows {
					if k.rows[row] {
						t.Fatalf("seed %d query %d path %s: duplicate row %d", seed, q, p, row)
					}
					k.rows[row] = true
					for _, attr := range project {
						k.vals[attr][row] = res.Columns[attr][i]
					}
				}
				results[p] = k
			}
			ref := results[PathScan]
			for p, got := range results {
				if len(got.rows) != len(ref.rows) {
					t.Fatalf("seed %d query %d: %s returned %d rows, scan %d", seed, q, p, len(got.rows), len(ref.rows))
				}
				for row := range ref.rows {
					if !got.rows[row] {
						t.Fatalf("seed %d query %d: %s missing row %d", seed, q, p, row)
					}
				}
				for attr, want := range ref.vals {
					for row, v := range want {
						if got.vals[attr][row] != v {
							t.Fatalf("seed %d query %d: %s projects %s[%d]=%d, scan %d",
								seed, q, p, attr, row, got.vals[attr][row], v)
						}
					}
				}
			}
		}
		for p, eng := range engines {
			if err := eng.Validate(); err != nil {
				t.Fatalf("seed %d, %s engine: %v", seed, p, err)
			}
		}
	}
}

// TestPlannerExploresThenExploitsSideways: on a hot-set select-project
// workload, the planner must finish exploring and settle on sideways
// cracking — the path whose recurring (materialisation) cost is lowest
// when projections repeat.
func TestPlannerExploresThenExploitsSideways(t *testing.T) {
	const n = 30_000
	cat, _ := buildCatalog(t, n, 3)
	eng := New(cat, core.DefaultOptions())
	gen := workload.NewHotSet(5, 0, 10000, 0.02, 16, 1.3)
	for q := 0; q < 100; q++ {
		if _, err := eng.Run(Query{Table: "orders", Column: "amount", R: gen.Next(), Project: []string{"status", "customer"}, Path: PathAuto}); err != nil {
			t.Fatal(err)
		}
	}
	plans := eng.PlanStats()
	if len(plans) != 1 {
		t.Fatalf("got %d planner states", len(plans))
	}
	plan := plans[0]
	if plan.Phase != "exploit" {
		t.Fatalf("planner still %q after 100 queries", plan.Phase)
	}
	if plan.Chosen != "sideways" {
		t.Fatalf("planner chose %q for a repeated select-project workload, want sideways", plan.Chosen)
	}
}

// TestPlannerChoosesCrackingWithoutProjections: with no projections in
// play, cracking's recurring cost (one copy per qualifying row) is the
// lowest and the planner must find it.
func TestPlannerChoosesCrackingWithoutProjections(t *testing.T) {
	const n = 30_000
	cat, _ := buildCatalog(t, n, 4)
	eng := New(cat, core.DefaultOptions())
	gen := workload.NewHotSet(6, 0, 10000, 0.02, 16, 1.3)
	for q := 0; q < 100; q++ {
		if _, err := eng.Run(Query{Table: "orders", Column: "amount", R: gen.Next(), Path: PathAuto}); err != nil {
			t.Fatal(err)
		}
	}
	plan := eng.PlanStats()[0]
	if plan.Phase != "exploit" || plan.Chosen != "cracking" {
		t.Fatalf("planner %s/%s for a selection-only workload, want exploit/cracking", plan.Phase, plan.Chosen)
	}
}

// TestPlannerDriftReExplores feeds the planner synthetic observations:
// a settled choice whose recurring cost then rises sustainedly must
// re-open exploration; transient spikes must not.
func TestPlannerDriftReExplores(t *testing.T) {
	opts := DefaultPlannerOptions()
	p := newPlanner(opts)
	tc := TableColumn{Table: "t", Column: "c"}
	candidates := []AccessPath{PathCracking, PathSideways}
	const scanCost = 200_000

	obs := func(path AccessPath, copied uint64) {
		p.observe(tc, candidates, scanCost, path, true, cost.Counters{TuplesCopied: copied, ValuesTouched: copied}, time.Microsecond)
	}
	// Explore round: route until the planner decides.
	for i := 0; i < opts.ExplorePasses*len(candidates); i++ {
		path := p.route(tc, candidates, scanCost)
		if path == PathCracking {
			obs(path, 1000)
		} else {
			obs(path, 3000)
		}
	}
	if got := p.route(tc, candidates, scanCost); got != PathCracking {
		t.Fatalf("planner chose %s, want cracking (cheapest recurring)", got)
	}
	st := p.states[tc]
	if st.phase != phaseExploit {
		t.Fatalf("phase %s, want exploit", st.phase)
	}

	// A transient spike shorter than the drift window must not trigger.
	for i := 0; i < opts.DriftWindow-1; i++ {
		obs(PathCracking, 1000*uint64(opts.DriftFactor)*4)
	}
	obs(PathCracking, 1000) // back to normal: run resets
	if st.phase != phaseExploit || st.reExplores != 0 {
		t.Fatalf("transient spike re-explored: phase=%s reExplores=%d", st.phase, st.reExplores)
	}

	// A sustained rise must re-open exploration.
	for i := 0; i < opts.DriftWindow; i++ {
		if got := p.route(tc, candidates, scanCost); got != PathCracking {
			t.Fatalf("planner switched to %s before drift was detected", got)
		}
		obs(PathCracking, 1000*uint64(opts.DriftFactor)*4)
	}
	if st.phase != phaseExplore {
		t.Fatalf("sustained drift did not re-open exploration (phase=%s)", st.phase)
	}
	if st.reExplores != 1 {
		t.Fatalf("reExplores=%d, want 1", st.reExplores)
	}
	// The re-explore round is cheap (ReExplorePasses per candidate) and
	// must settle on the now-cheapest path.
	for i := 0; i < opts.ReExplorePasses*len(candidates); i++ {
		path := p.route(tc, candidates, scanCost)
		if path == PathCracking {
			obs(path, 20000)
		} else {
			obs(path, 3000)
		}
	}
	if got := p.route(tc, candidates, scanCost); got != PathSideways {
		t.Fatalf("after drift, planner chose %s, want sideways", got)
	}
}

// TestParsePath covers the name round-trip and the error sentinel.
func TestParsePath(t *testing.T) {
	for _, p := range []AccessPath{PathScan, PathCracking, PathSideways, PathAuto} {
		got, err := ParsePath(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePath(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePath(""); err != nil || got != PathAuto {
		t.Fatalf("empty path must parse as auto, got %v, %v", got, err)
	}
	if _, err := ParsePath("btree"); err == nil {
		t.Fatal("unknown path must fail")
	}
	if len(PathNames()) != int(numStaticPaths)+1 {
		t.Fatalf("PathNames lists %d names", len(PathNames()))
	}
}

// TestRunRejectsAutoOutsideRun: the static entry points must refuse
// PathAuto instead of silently scanning.
func TestRunRejectsAutoOutsideRun(t *testing.T) {
	cat, _ := buildCatalog(t, 100, 7)
	eng := New(cat, core.DefaultOptions())
	if _, err := eng.SelectRows("orders", "amount", column.NewRange(0, 10), PathAuto); err == nil {
		t.Fatal("SelectRows must reject PathAuto")
	}
	if _, err := eng.SelectProject("orders", "amount", column.NewRange(0, 10), []string{"status"}, PathAuto); err == nil {
		t.Fatal("SelectProject must reject PathAuto")
	}
}

// TestSingleColumnTableExcludesSideways: a single-column table has no
// projection attribute to drag along, so the planner must never route
// to sideways there.
func TestSingleColumnTableExcludesSideways(t *testing.T) {
	cat := NewCatalog()
	tab := NewTable("solo")
	if err := tab.AddColumn("c0", workload.DataUniform(1, 5000, 5000)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	eng := New(cat, core.DefaultOptions())
	gen := workload.NewUniform(2, 0, 5000, 0.02)
	for q := 0; q < 60; q++ {
		res, err := eng.Run(Query{Table: "solo", Column: "c0", R: gen.Next(), Path: PathAuto})
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == PathSideways {
			t.Fatal("planner routed a single-column table to sideways")
		}
	}
	if eng.Structures().MapSets != 0 {
		t.Fatal("a map set was built for a single-column table")
	}
}

// TestCountOnlyMatchesSelectWithoutMaterialising: counts agree with
// select lengths on every path, and a converged repeated count charges
// no recurring copy work (the old service-level regression: counting
// by materialising a discarded row vector).
func TestCountOnlyMatchesSelectWithoutMaterialising(t *testing.T) {
	cat, _ := buildCatalog(t, 10_000, 13)
	eng := New(cat, core.DefaultOptions())
	rng := rand.New(rand.NewSource(14))
	for q := 0; q < 30; q++ {
		lo := column.Value(rng.Intn(10000))
		r := column.NewRange(lo, lo+400)
		for _, path := range []AccessPath{PathScan, PathCracking, PathSideways, PathAuto} {
			sel, err := eng.Run(Query{Table: "orders", Column: "amount", R: r, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := eng.Run(Query{Table: "orders", Column: "amount", R: r, CountOnly: true, Path: path})
			if err != nil {
				t.Fatal(err)
			}
			if cnt.Rows != nil || cnt.Columns != nil {
				t.Fatalf("%s: count-only query materialised", path)
			}
			if cnt.Count != sel.Count || sel.Count != len(sel.Rows) {
				t.Fatalf("%s query %s: count %d, select %d", path, r, cnt.Count, sel.Count)
			}
		}
	}
	// A repeated count on a converged cracker must copy nothing.
	r := column.NewRange(100, 500)
	if _, err := eng.Run(Query{Table: "orders", Column: "amount", R: r, CountOnly: true, Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	before := eng.Cost()
	if _, err := eng.Run(Query{Table: "orders", Column: "amount", R: r, CountOnly: true, Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	if delta := eng.Cost().Sub(before); delta.TuplesCopied != 0 || delta.RandomTouches != 0 {
		t.Fatalf("converged count charged recurring work: %+v", delta)
	}
	// Count-only with a projection is a contradiction, not a silent
	// discard.
	if _, err := eng.Run(Query{Table: "orders", Column: "amount", R: r, CountOnly: true, Project: []string{"status"}}); err == nil {
		t.Fatal("count-only with projection must fail")
	}
}

// threeColumnCatalog is the benchmark's table shape in miniature: c0
// selected, c1 projected, c2 along for the ride, all uniform.
func threeColumnCatalog(t *testing.T, n int, seed int64) *Catalog {
	t.Helper()
	tab := NewTable("data")
	for i, name := range []string{"c0", "c1", "c2"} {
		if err := tab.AddColumn(name, workload.DataUniform(seed+int64(i), n, n)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestPlannerBalancesShapesOnAlternatingStream: on a stream that
// alternates counts and select+project reads, every candidate's explore
// window must hold both shapes in equal measure (within one), and the
// planner must settle on sideways — whose copies are sequential — for
// the column as a whole. Before the windows were balanced per shape,
// every count went to cracking and every select to sideways, and
// cracking, scored on counts alone, won.
func TestPlannerBalancesShapesOnAlternatingStream(t *testing.T) {
	const n = 40_000
	cat := threeColumnCatalog(t, n, 3)
	eng := New(cat, core.DefaultOptions())
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 200; q++ {
		query := Query{Table: "data", Column: "c0", Path: PathAuto}
		if q%2 == 0 {
			lo := column.Value(rng.Intn(n))
			query.R, query.CountOnly = column.NewRange(lo, lo+n/100), true
		} else {
			lo := column.Value(rng.Intn(n))
			query.R, query.Project = column.NewRange(lo, lo+n/2000), []string{"c1"}
		}
		if _, err := eng.Run(query); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.planner.states[TableColumn{Table: "data", Column: "c0"}]
	if st.phase != phaseExploit || st.chosen != PathSideways {
		t.Fatalf("planner %s/%s on an alternating count/select stream, want exploit/sideways", st.phase, st.chosen)
	}
	for _, c := range st.candidates {
		obs := st.paths[c]
		counts, selects := obs.shapeProbes[shapeCount], obs.shapeProbes[shapeMaterialise]
		if counts == 0 || selects == 0 || counts-selects > 1 || selects-counts > 1 {
			t.Fatalf("%s explored %d counts and %d selects, want both within one of each other", c, counts, selects)
		}
	}
}
