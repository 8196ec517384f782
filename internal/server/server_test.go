package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/workload"
)

// testSpecs is the canonical two-table test catalog: "data" with three
// columns, "aux" with two.
func testSpecs(n int) []TableSpec {
	return []TableSpec{
		{Name: "data", Rows: n, Cols: 3},
		{Name: "aux", Rows: n / 2, Cols: 2},
	}
}

// testEngine builds a deterministic engine over the test catalog and
// returns it with the base values of data.c0 (the default selection
// column).
func testEngine(t testing.TB, n int) (*engine.Engine, []column.Value) {
	t.Helper()
	cat, err := BuildCatalog(testSpecs(n), 1, n)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildEngine(cat, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := cat.Table("data")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := tab.Column("c0")
	if err != nil {
		t.Fatal(err)
	}
	return built.Engine, vals
}

// refCount answers r by brute force.
func refCount(vals []column.Value, r column.Range) int {
	n := 0
	for _, v := range vals {
		if r.Contains(v) {
			n++
		}
	}
	return n
}

func newTestService(t testing.TB, eng *engine.Engine, window time.Duration, path string) *Service {
	t.Helper()
	svc, err := NewService(Config{Engine: eng, DefaultTable: "data", DefaultPath: path, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestConcurrentSessionsGetCorrectAnswers drives the batched service
// from many goroutines and checks every answer against a brute-force
// reference. The batched scheduler is the only goroutine touching the
// (not concurrency-safe) engine.
func TestConcurrentSessionsGetCorrectAnswers(t *testing.T) {
	const n = 50_000
	eng, vals := testEngine(t, n)
	svc := newTestService(t, eng, 200*time.Microsecond, "cracking")

	const sessions = 8
	const perSession = 60
	gens, err := workload.SessionGenerators("hotset", 5, sessions, 0, n, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-resolve the reference answers (the hot set is small) so the
	// sessions stay tight loops and genuinely overlap in the scheduler.
	want := make(map[column.Range]int)
	streams := make([][]column.Range, sessions)
	for g := range streams {
		streams[g] = workload.Queries(gens[g], perSession)
		for _, r := range streams[g] {
			if _, ok := want[r]; !ok {
				want[r] = refCount(vals, r)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(stream []column.Range) {
			defer wg.Done()
			for _, r := range stream {
				got, err := svc.Count(r)
				if err != nil {
					errs <- err
					return
				}
				if got != want[r] {
					errs <- errors.New("count mismatch")
					return
				}
				rows, err := svc.Select(r)
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != got {
					errs <- errors.New("select/count mismatch")
					return
				}
				for _, row := range rows {
					if !r.Contains(vals[row]) {
						errs <- errors.New("select returned non-qualifying row")
						return
					}
				}
			}
		}(streams[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Queries != sessions*perSession*2 {
		t.Fatalf("stats counted %d queries, want %d", st.Queries, sessions*perSession*2)
	}
	if st.Mode != "batched" {
		t.Fatalf("mode %q, want batched", st.Mode)
	}
	if st.Batches == 0 || st.Batches >= st.Queries {
		t.Fatalf("expected coalescing: %d batches for %d queries", st.Batches, st.Queries)
	}
	if st.SharedScans == 0 {
		t.Fatalf("hot-set workload over %d sessions produced no shared scans", sessions)
	}
	if st.Structures.Pieces == 0 {
		t.Fatal("cracking path reported zero pieces after a query storm")
	}
	if st.Latency.Count == 0 || st.Latency.P50Us == 0 || st.Latency.P99Us < st.Latency.P50Us {
		t.Fatalf("implausible latency stats: %+v", st.Latency)
	}
}

// TestBatchingBeatsDirectDispatch: on an overlapping hot-set workload
// with 8 concurrent sessions, the batch scheduler must share scans and
// do strictly less materialisation work than per-query dispatch. The
// wall-clock side of the claim is measured by benchmark/, not here.
func TestBatchingBeatsDirectDispatch(t *testing.T) {
	const n = 300_000
	const sessions = 8
	const perSession = 200

	// Pre-generate per-session query streams, identical for both modes.
	// The sessions draw from one shared hot-set pool (concurrent users
	// of the same dashboard), so predicates overlap across sessions; a
	// small, hot pool of wide selects makes the shared-materialisation
	// savings dominate any scheduler overhead.
	pool := workload.Queries(workload.NewUniform(7, 0, n, 0.08), 8)
	streams := make([][]column.Range, sessions)
	for g := range streams {
		streams[g] = workload.Queries(workload.NewHotSetFrom(pool, int64(g+1), 1.6), perSession)
	}

	run := func(window time.Duration) (Stats, uint64) {
		eng, _ := testEngine(t, n)
		svc := newTestService(t, eng, window, "cracking")
		var wg sync.WaitGroup
		var failed atomic.Bool
		for g := 0; g < sessions; g++ {
			wg.Add(1)
			go func(stream []column.Range) {
				defer wg.Done()
				for _, r := range stream {
					if _, err := svc.Select(r); err != nil {
						failed.Store(true)
						return
					}
				}
			}(streams[g])
		}
		wg.Wait()
		if failed.Load() {
			t.Fatal("query failed")
		}
		return svc.Stats(), eng.Cost().TuplesCopied
	}

	directStats, directCopied := run(0)
	batchedStats, batchedCopied := run(500 * time.Microsecond)

	total := uint64(sessions * perSession)
	if directStats.Queries != total || batchedStats.Queries != total {
		t.Fatalf("both modes must answer %d queries (direct %d, batched %d)",
			total, directStats.Queries, batchedStats.Queries)
	}
	if batchedStats.SharedScans == 0 {
		t.Fatal("batched mode shared no scans on a hot-set workload")
	}
	// Shared scans are executions the batched mode did not run: its
	// materialisation work must be strictly lower.
	if batchedCopied >= directCopied {
		t.Fatalf("batching must materialise less: batched copied %d tuples, direct %d",
			batchedCopied, directCopied)
	}
}

// TestMultiTableSelectProject exercises the new wire surface in
// process: queries naming tables, selection columns and projections,
// verified against the base data.
func TestMultiTableSelectProject(t *testing.T) {
	const n = 20_000
	eng, _ := testEngine(t, n)
	cat := eng.Catalog()
	svc := newTestService(t, eng, 200*time.Microsecond, "auto")

	for _, tc := range []struct {
		table, col string
		project    []string
	}{
		{"data", "c0", []string{"c1", "c2"}},
		{"data", "c1", []string{"c0"}},
		{"aux", "c0", []string{"c1"}},
		{"aux", "c1", nil},
	} {
		tab, err := cat.Table(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		sel, _ := tab.Column(tc.col)
		base := make(map[string][]column.Value, len(tc.project))
		for _, p := range tc.project {
			base[p], _ = tab.Column(p)
		}
		gen := workload.NewUniform(3, 0, column.Value(n), 0.01)
		for q := 0; q < 30; q++ {
			r := gen.Next()
			reply, err := svc.SelectQuery(Query{Table: tc.table, Column: tc.col, R: r, Project: tc.project})
			if err != nil {
				t.Fatalf("%s.%s: %v", tc.table, tc.col, err)
			}
			if want := refCount(sel, r); reply.Count != want {
				t.Fatalf("%s.%s %s: count %d, want %d", tc.table, tc.col, r, reply.Count, want)
			}
			for _, p := range tc.project {
				got := reply.Columns[p]
				if len(got) != len(reply.Rows) {
					t.Fatalf("%s.%s: projection %q has %d values for %d rows", tc.table, tc.col, p, len(got), len(reply.Rows))
				}
				for i, row := range reply.Rows {
					if !r.Contains(sel[row]) {
						t.Fatalf("%s.%s: row %d does not satisfy %s", tc.table, tc.col, row, r)
					}
					if got[i] != base[p][row] {
						t.Fatalf("%s.%s: projection %q misaligned at %d", tc.table, tc.col, p, i)
					}
				}
			}
		}
	}

	// Errors must name the problem, not 500 out of the engine.
	if _, err := svc.SelectQuery(Query{Table: "nope", R: column.NewRange(0, 1)}); !errors.Is(err, engine.ErrUnknownTable) {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := svc.SelectQuery(Query{Column: "nope", R: column.NewRange(0, 1)}); !errors.Is(err, engine.ErrUnknownColumn) {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := svc.SelectQuery(Query{R: column.NewRange(0, 1), Path: "btree-of-lies"}); !errors.Is(err, engine.ErrUnknownPath) {
		t.Fatalf("unknown path: %v", err)
	}
}

// TestAutoPathServesAndPlans drives the default (auto) path and checks
// the planner reaches a decision that is visible in stats while every
// answer stays correct.
func TestAutoPathServesAndPlans(t *testing.T) {
	const n = 30_000
	eng, vals := testEngine(t, n)
	svc := newTestService(t, eng, 200*time.Microsecond, "")

	gen := workload.NewUniform(11, 0, column.Value(n), 0.02)
	for q := 0; q < 80; q++ {
		r := gen.Next()
		reply, err := svc.SelectQuery(Query{R: r, Project: []string{"c1"}})
		if err != nil {
			t.Fatal(err)
		}
		if want := refCount(vals, r); reply.Count != want {
			t.Fatalf("query %s: count %d, want %d", r, reply.Count, want)
		}
	}
	st := svc.Stats()
	if st.DefaultPath != "auto" {
		t.Fatalf("default path %q, want auto", st.DefaultPath)
	}
	if len(st.Planner) == 0 {
		t.Fatal("auto traffic left no planner state")
	}
	plan := st.Planner[0]
	if plan.Table != "data" || plan.Column != "c0" {
		t.Fatalf("planner state for %s.%s, want data.c0", plan.Table, plan.Column)
	}
	if plan.Phase != "exploit" {
		t.Fatalf("planner still %q after 80 queries", plan.Phase)
	}
	if len(plan.Paths) == 0 {
		t.Fatal("planner reported no per-path observations")
	}
}

// TestAdmissionLimit verifies queries beyond MaxInFlight are rejected
// rather than queued without bound.
func TestAdmissionLimit(t *testing.T) {
	const n = 200_000
	eng, _ := testEngine(t, n)
	// Scans of a 200k column keep the executor busy for a few
	// milliseconds while 64 concurrent clients race a limit of 2.
	svc, err := NewService(Config{
		Engine:      eng,
		DefaultPath: "scan",
		BatchWindow: 100 * time.Microsecond,
		MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const clients = 64
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Count(column.NewRange(10, 20)); errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatalf("no request was rejected at MaxInFlight=2 with %d concurrent clients", clients)
	}
	if got := svc.Stats().Rejected; got != uint64(rejected.Load()) {
		t.Fatalf("stats.Rejected=%d, clients saw %d rejections", got, rejected.Load())
	}
}

// TestCloseRejectsNewQueries verifies post-close queries fail fast and
// Close is idempotent.
func TestCloseRejectsNewQueries(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		eng, _ := testEngine(t, 1000)
		svc, err := NewService(Config{Engine: eng, BatchWindow: window})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Count(column.NewRange(1, 10)); err != nil {
			t.Fatal(err)
		}
		svc.Close()
		svc.Close()
		if _, err := svc.Count(column.NewRange(1, 10)); !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed after Close, got %v", err)
		}
		// Stats must stay readable after close.
		if st := svc.Stats(); st.Queries != 1 {
			t.Fatalf("post-close stats lost queries: %+v", st)
		}
	}
}

// TestSnapshotRestoreCycle is the kill/restart contract at the service
// level: the engine's adaptive state survives Close+SnapshotTo and a
// rebuild through BuildEngine, and the restored service answers
// identically without re-paying the cracking work.
func TestSnapshotRestoreCycle(t *testing.T) {
	const n = 50_000
	eng, vals := testEngine(t, n)
	svc := newTestService(t, eng, 200*time.Microsecond, "auto")

	gen := workload.NewUniform(9, 0, column.Value(n), 0.02)
	queries := workload.Queries(gen, 200)
	for _, r := range queries {
		if _, err := svc.SelectQuery(Query{R: r, Project: []string{"c1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.SnapshotTo(&bytes.Buffer{}); !errors.Is(err, ErrNotClosed) {
		t.Fatal("snapshotting a live service must fail")
	}
	before := svc.Stats().Structures
	svc.Close()

	path := filepath.Join(t.TempDir(), "engine.snapshot")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SnapshotTo(f); err != nil {
		t.Fatalf("snapshot failed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cat, err := BuildCatalog(testSpecs(n), 1, n)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildEngine(cat, EngineOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !built.Restored {
		t.Fatal("engine was not restored from the snapshot")
	}
	restored, err := NewService(Config{Engine: built.Engine, DefaultTable: "data", DefaultPath: "auto", BatchWindow: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	st := restored.Stats().Structures
	if st.CrackerPieces != before.CrackerPieces || st.MapPieces != before.MapPieces {
		t.Fatalf("restored structures %+v, want %+v", st, before)
	}
	// Replay the workload twice. The first replay may add a handful of
	// cracks: queries that explored the non-chosen path during the
	// original run now route to the restored planner's choice, whose
	// structure has not seen their bounds yet. The second replay must
	// add nothing — the restored knowledge converges instead of being
	// re-learned.
	replay := func() Stats {
		for _, r := range queries {
			reply, err := restored.SelectQuery(Query{R: r, Project: []string{"c1"}})
			if err != nil {
				t.Fatal(err)
			}
			if want := refCount(vals, r); reply.Count != want {
				t.Fatalf("restored service: query %s got %d want %d", r, reply.Count, want)
			}
		}
		return restored.Stats()
	}
	first := replay().Structures
	second := replay().Structures
	if second.CrackerPieces != first.CrackerPieces || second.MapPieces != first.MapPieces {
		t.Fatalf("replay did not converge after restore: %+v -> %+v", first, second)
	}
}

// TestRestoresSnapshotsListingParallel: engines that still served the
// "parallel" access path listed it in every planner state they
// snapshotted. Those files must keep restoring through BuildExec, the
// path a crackserve -snapshot boot takes, both as a single-engine
// snapshot and as a 2-shard cluster's per-shard segments, and restore
// the planner phase, chosen path and structure inventory the writing
// engine reported.
//
// The two files under testdata were written in persist format version 5
// by commit 60a0755, the last with the parallel path, with this program
// run from that commit's module root (errors elided):
//
//	specs, _ := server.ParseTableSpecs("data:2000:3")
//	for _, shards := range []int{1, 2} {
//		cat, _ := server.BuildCatalog(specs, 7, 0)
//		built, _ := server.BuildExec(cat, server.EngineOptions{Shards: shards, Seed: 7})
//		for i := 0; i < 40; i++ {
//			lo := column.Value(i * 397 % 1800)
//			q := engine.Query{Table: "data", Column: "c0", R: column.NewRange(lo, lo+100), Path: engine.PathAuto}
//			if i%2 == 0 {
//				q.CountOnly = true
//			} else {
//				q.Project = []string{"c1"}
//			}
//			built.Exec.Run(q)
//		}
//		// built.Exec.SnapshotTo(f) for the file; then print
//		// built.Exec.PlanStats() and built.Exec.Structures().
//	}
//
// It reported phase exploit, chosen sideways for data.c0 at both shard
// counts, and the inventories below with zero parallel structures.
func TestRestoresSnapshotsListingParallel(t *testing.T) {
	specs, err := ParseTableSpecs("data:2000:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file   string
		shards int
		want   engine.StructureStats
	}{
		{"engine_listing_parallel.snap", 1,
			engine.StructureStats{Crackers: 1, MapSets: 1, CrackerPieces: 16, MapPieces: 65, Pieces: 81}},
		{"cluster2_listing_parallel.snap", 2,
			engine.StructureStats{Crackers: 2, MapSets: 2, CrackerPieces: 32, MapPieces: 128, Pieces: 160}},
	} {
		cat, err := BuildCatalog(specs, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := cat.Table("data")
		if err != nil {
			t.Fatal(err)
		}
		vals, err := tab.Column("c0")
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildExec(cat, EngineOptions{Shards: c.shards, Seed: 7, SnapshotPath: filepath.Join("testdata", c.file)})
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if !built.Restored {
			t.Fatalf("%s: not restored", c.file)
		}
		if got := built.Exec.Structures(); got != c.want {
			t.Fatalf("%s: restored structures %+v, want %+v", c.file, got, c.want)
		}
		plans := built.Exec.PlanStats()
		if len(plans) != 1 || plans[0].Phase != "exploit" || plans[0].Chosen != "sideways" {
			t.Fatalf("%s: restored planner %+v, want data.c0 exploiting sideways", c.file, plans)
		}
		r := column.NewRange(500, 700)
		res, err := built.Exec.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathAuto})
		if err != nil {
			t.Fatal(err)
		}
		if want := refCount(vals, r); res.Count != want || res.Path != engine.PathSideways {
			t.Fatalf("%s: restored executor answered %d rows by %s, want %d by sideways", c.file, res.Count, res.Path, want)
		}
	}
}

// TestDirectModeServesConcurrentClients drives direct dispatch (no
// scheduler) from many goroutines: the service latch must serialise the
// engine and answers stay correct under -race.
func TestDirectModeServesConcurrentClients(t *testing.T) {
	const n = 20_000
	eng, vals := testEngine(t, n)
	svc := newTestService(t, eng, 0, "cracking")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gen := workload.NewUniform(seed, 0, n, 0.01)
			for i := 0; i < 50; i++ {
				r := gen.Next()
				got, err := svc.Count(r)
				if err != nil {
					errs <- err
					return
				}
				if got != refCount(vals, r) {
					errs <- errors.New("direct-mode count mismatch")
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Mode != "direct" || st.Queries != 8*50 {
		t.Fatalf("unexpected direct-mode stats: %+v", st)
	}
}

// TestBatchEntryPointMatchesSequential checks the pivot-order batch
// execution primitive the scheduler's grouping relies on: a batch
// executed through the core batch entry point does not regress logical
// work versus one-at-a-time execution of the same predicates.
func TestBatchEntryPointMatchesSequential(t *testing.T) {
	const n = 30_000
	vals := workload.DataUniform(1, n, n)
	queries := workload.Queries(workload.NewUniform(3, 0, n, 0.02), 64)

	seq := core.NewCrackerColumn(vals, core.DefaultOptions())
	seqCounts := make([]int, len(queries))
	for i, r := range queries {
		seqCounts[i] = seq.Count(r)
	}

	batched := core.NewCrackerColumn(workload.DataUniform(1, n, n), core.DefaultOptions())
	gotCounts := batched.CountBatch(queries)
	for i := range queries {
		if gotCounts[i] != seqCounts[i] {
			t.Fatalf("query %d: batch count %d, sequential %d", i, gotCounts[i], seqCounts[i])
		}
	}
	if b, s := batched.Cost().Total(), seq.Cost().Total(); b > s {
		t.Fatalf("pivot-order batch did more logical work (%d) than sequential dispatch (%d)", b, s)
	}
}

// TestParseTableSpecs exercises the spec grammar.
func TestParseTableSpecs(t *testing.T) {
	specs, err := ParseTableSpecs("orders:1000:4, events:500:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0] != (TableSpec{Name: "orders", Rows: 1000, Cols: 4}) ||
		specs[1] != (TableSpec{Name: "events", Rows: 500, Cols: 2}) {
		t.Fatalf("parsed %+v", specs)
	}
	for _, bad := range []string{"", "orders", "orders:0:2", "orders:10:0", "orders:x:2", "a:1:1,a:1:1"} {
		if _, err := ParseTableSpecs(bad); err == nil {
			t.Fatalf("spec %q must fail", bad)
		}
	}
}

// TestBuildCatalogDeterminism: a daemon restarted with the same flags
// must host byte-identical data — the property snapshot restore
// depends on.
func TestBuildCatalogDeterminism(t *testing.T) {
	specs := testSpecs(5000)
	a, err := BuildCatalog(specs, 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCatalog(specs, 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		ta, _ := a.Table(spec.Name)
		tb, _ := b.Table(spec.Name)
		for ci := 0; ci < spec.Cols; ci++ {
			va, _ := ta.Column(ColumnName(ci))
			vb, _ := tb.Column(ColumnName(ci))
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("%s.%s differs at row %d", spec.Name, ColumnName(ci), i)
				}
			}
		}
	}
	// Different columns must not alias each other.
	ta, _ := a.Table("data")
	c0, _ := ta.Column("c0")
	c1, _ := ta.Column("c1")
	same := true
	for i := range c0 {
		if c0[i] != c1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("generated columns are identical")
	}
}

// TestNewServiceValidatesConfig covers the constructor's error paths.
func TestNewServiceValidatesConfig(t *testing.T) {
	if _, err := NewService(Config{}); err == nil {
		t.Fatal("nil engine must fail")
	}
	eng, _ := testEngine(t, 100)
	if _, err := NewService(Config{Engine: eng, DefaultTable: "nope"}); err == nil {
		t.Fatal("unknown default table must fail")
	}
	if _, err := NewService(Config{Engine: eng, DefaultColumn: "nope"}); err == nil {
		t.Fatal("unknown default column must fail")
	}
	if _, err := NewService(Config{Engine: eng, DefaultPath: "btree"}); err == nil {
		t.Fatal("unknown default path must fail")
	}
	svc, err := NewService(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Alphabetical default: "aux" before "data", first column c0, auto.
	st := svc.Stats()
	if st.DefaultTable != "aux" || st.DefaultColumn != "c0" || st.DefaultPath != "auto" {
		t.Fatalf("unexpected defaults: %s.%s path=%s", st.DefaultTable, st.DefaultColumn, st.DefaultPath)
	}
}

// TestCountRejectsProjection: both the library and HTTP surfaces must
// refuse a count that names projection columns instead of silently
// paying for a discarded projection.
func TestCountRejectsProjection(t *testing.T) {
	eng, _ := testEngine(t, 1000)
	svc := newTestService(t, eng, time.Millisecond, "auto")
	if _, err := svc.CountQuery(Query{R: column.NewRange(0, 10), Project: []string{"c1"}}); !errors.Is(err, ErrProjectWithCount) {
		t.Fatalf("CountQuery with projection: %v", err)
	}
}

// TestCountDoesNotMaterialise: a count-only stream through the service
// must not charge recurring copy work once the structure has converged
// on its predicate.
func TestCountDoesNotMaterialise(t *testing.T) {
	eng, vals := testEngine(t, 20_000)
	svc := newTestService(t, eng, time.Millisecond, "cracking")
	r := column.NewRange(100, 600)
	if _, err := svc.Count(r); err != nil {
		t.Fatal(err)
	}
	before := eng.Cost()
	n, err := svc.Count(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := refCount(vals, r); n != want {
		t.Fatalf("count %d, want %d", n, want)
	}
	if delta := eng.Cost().Sub(before); delta.TuplesCopied != 0 || delta.RandomTouches != 0 {
		t.Fatalf("converged count charged recurring work: %+v", delta)
	}
}
