package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/crackeridx"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// traceTestEngine builds a two-column engine over deterministic data.
func traceTestEngine(t *testing.T, n int) *Engine {
	t.Helper()
	tab := NewTable("data")
	for ci, off := range []int64{0, 1} {
		if err := tab.AddColumn([]string{"c0", "c1"}[ci], workload.DataUniform(7+off, n, 10_000)); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	return New(cat, core.DefaultOptions())
}

func TestRunTracedSpansCarryCostDeltas(t *testing.T) {
	e := traceTestEngine(t, 4000)
	rec := trace.NewRecorder()
	before := e.Cost()
	res, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(100, 600),
		Project: []string{"c1"}, Path: PathCracking, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	delta := e.Cost().Sub(before)
	root := rec.Finish()

	var crack, mat *trace.Span
	for _, s := range root.Spans {
		switch s.Phase {
		case trace.PhaseCrack:
			crack = s
		case trace.PhaseMaterialise:
			mat = s
		}
	}
	if crack == nil || mat == nil {
		t.Fatalf("missing phases in %+v", root.Spans)
	}
	// The spans partition the engine work: their totals must sum to the
	// engine's cost movement for the query.
	sum := root.SumWork()
	if sum.Total != delta.Total() {
		t.Fatalf("span work %d != engine delta %d", sum.Total, delta.Total())
	}
	if mat.Work.Recurring == 0 || res.Count == 0 {
		t.Fatalf("materialise span recorded no recurring work (count=%d)", res.Count)
	}
	if root.ChildDurUs() > root.DurUs {
		t.Fatalf("child durations %dus exceed root %dus", root.ChildDurUs(), root.DurUs)
	}
	// Tracing must leave no residue on the engine.
	if e.rec != nil {
		t.Fatal("recorder still attached after Run")
	}
}

func TestRunTracedMergeFlushNested(t *testing.T) {
	e := traceTestEngine(t, 2000)
	// Build the cracker, then buffer writes so the next read flushes.
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	e.SetMergePolicy(updates.MergeGradually)
	for v := column.Value(200); v < 220; v++ {
		if _, err := e.InsertRow("data", []column.Value{v, v}); err != nil {
			t.Fatal(err)
		}
	}
	rec := trace.NewRecorder()
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999),
		Path: PathCracking, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	root := rec.Finish()
	var flush *trace.Span
	for _, s := range root.Spans {
		if s.Phase == trace.PhaseCrack {
			for _, c := range s.Spans {
				if c.Phase == trace.PhaseMergeFlush {
					flush = c
				}
			}
		}
	}
	if flush == nil {
		t.Fatalf("no merge_flush span nested under crack: %+v", root.Spans)
	}
	if flush.Work.MergeWork == 0 {
		t.Fatalf("merge_flush span carries no merge work: %+v", flush.Work)
	}
}

func TestEventLogRecordsReorganisation(t *testing.T) {
	e := traceTestEngine(t, 4000)
	log := trace.NewLog(256)
	e.SetEventLog(log)

	// Drive enough distinct predicates through the planner to build
	// structures, crack them past thresholds, and close an explore round.
	qs := workload.Queries(workload.NewUniform(11, 0, 10_000, 0.02), 60)
	for _, r := range qs {
		if _, err := e.Run(Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: PathAuto}); err != nil {
			t.Fatal(err)
		}
	}
	events, dropped := log.Since(0, 0)
	if dropped != 0 || len(events) == 0 {
		t.Fatalf("events=%d dropped=%d", len(events), dropped)
	}
	seen := map[string]int{}
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("events out of sequence order: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		seen[ev.Kind]++
	}
	for _, kind := range []string{"plan_explore", "plan_exploit", "build", "crack", "pieces_threshold"} {
		if seen[kind] == 0 {
			t.Errorf("no %q event recorded (saw %v)", kind, seen)
		}
	}
	// The exploit decision must carry comparable per-path scores.
	for _, ev := range events {
		if ev.Kind == "plan_exploit" {
			if ev.Path == "" || len(ev.Fields) < 2 {
				t.Fatalf("plan_exploit event lacks scores: %+v", ev)
			}
		}
	}
}

func TestEventLogRecordsMergeFlush(t *testing.T) {
	e := traceTestEngine(t, 2000)
	log := trace.NewLog(64)
	e.SetEventLog(log)
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertRow("data", []column.Value{500, 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(Query{Table: "data", Column: "c0", R: column.NewRange(0, 9999), Path: PathCracking}); err != nil {
		t.Fatal(err)
	}
	events, _ := log.Since(0, 0)
	found := false
	for _, ev := range events {
		if ev.Kind == "merge_flush" && ev.Fields["merged_inserts"] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no merge_flush event after a buffered insert was read back: %+v", events)
	}
}

// refPieces is piecesFor computed the slow way, from len(Pieces()) of
// every cracker index the structure holds.
func refPieces(e *Engine, tc TableColumn, path AccessPath) int {
	switch path {
	case PathCracking:
		if uc, ok := e.crackers[tc]; ok {
			return len(uc.Cracker().Pieces())
		}
	case PathSideways:
		if ms, ok := e.mapsets[tc]; ok {
			n := 0
			for _, md := range ms.Dump().Maps {
				ix := crackeridx.New()
				for _, b := range md.Boundaries {
					ix.Insert(b.Bound, b.Pos)
				}
				n += len(ix.Pieces(len(md.Heads)))
			}
			return n
		}
	}
	return 0
}

// wantReorgEvents derives the crack, pieces_threshold and merge_flush
// events one query should emit from its reference piece counts and the
// cracker's merge counters around it.
func wantReorgEvents(tc TableColumn, path AccessPath, before, after int, insBefore, delBefore, ins, del uint64, pending int) []trace.Event {
	ev := func(kind string, fields map[string]float64) trace.Event {
		return trace.Event{Kind: kind, Table: tc.Table, Column: tc.Column, Path: path.String(), Fields: fields}
	}
	var out []trace.Event
	if after > before {
		out = append(out, ev("crack", map[string]float64{"pieces_before": float64(before), "pieces_after": float64(after)}))
		for th := 16; th <= after; th *= 2 {
			if before < th {
				out = append(out, ev("pieces_threshold", map[string]float64{"threshold": float64(th), "pieces": float64(after)}))
			}
		}
	}
	if path == PathCracking && (ins > insBefore || del > delBefore) {
		out = append(out, ev("merge_flush", map[string]float64{
			"merged_inserts":    float64(ins - insBefore),
			"merged_deletions":  float64(del - delBefore),
			"pending_remaining": float64(pending),
		}))
	}
	return out
}

// TestReorgEventsMatchMaterialisedPieceCounts replays a seeded stream
// of reads and writes with an event log attached and pins every crack,
// pieces_threshold and merge_flush event — kinds and fields — to the
// ones the piece counts of the materialised piece lists imply.
func TestReorgEventsMatchMaterialisedPieceCounts(t *testing.T) {
	const n = 3000
	e := traceTestEngine(t, n)
	log := trace.NewLog(1 << 14)
	e.SetEventLog(log)
	rng := rand.New(rand.NewSource(41))
	live := make([]column.RowID, n)
	for i := range live {
		live[i] = column.RowID(i)
	}
	cols := []string{"c0", "c1"}
	seen := map[string]int{}
	var last uint64
	for step := 0; step < 600; step++ {
		var want []trace.Event
		switch k := rng.Intn(10); {
		case k < 7:
			col := cols[rng.Intn(2)]
			lo := column.Value(rng.Intn(10_000))
			q := Query{Table: "data", Column: col, R: column.NewRange(lo, lo+column.Value(rng.Intn(400))), Path: PathAuto}
			switch rng.Intn(3) {
			case 0:
				q.CountOnly = true
			case 1:
				q.Project = []string{cols[rng.Intn(2)]}
			}
			tc := key("data", col)
			crackBefore, sidewaysBefore := refPieces(e, tc, PathCracking), refPieces(e, tc, PathSideways)
			insBefore, delBefore, _ := e.mergedFor(tc)
			res, err := e.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			before := map[AccessPath]int{PathCracking: crackBefore, PathSideways: sidewaysBefore}[res.Path]
			ins, del, pending := e.mergedFor(tc)
			want = wantReorgEvents(tc, res.Path, before, refPieces(e, tc, res.Path), insBefore, delBefore, ins, del, pending)
		case k < 9:
			row, err := e.InsertRow("data", []column.Value{column.Value(rng.Intn(10_000)), column.Value(rng.Intn(10_000))})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, row)
		default:
			i := rng.Intn(len(live))
			if err := e.DeleteRow("data", live[i]); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		events, dropped := log.Since(last, 0)
		if dropped != 0 {
			t.Fatalf("step %d: event log dropped %d events", step, dropped)
		}
		last = log.LastSeq()
		var got []trace.Event
		for _, ev := range events {
			switch ev.Kind {
			case "crack", "pieces_threshold", "merge_flush":
				ev.Seq, ev.UnixMicros = 0, 0
				got = append(got, ev)
				seen[ev.Kind+"/"+ev.Path]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: events\n got %+v\nwant %+v", step, got, want)
		}
	}
	for _, kind := range []string{"crack/cracking", "crack/sideways", "pieces_threshold/cracking", "merge_flush/cracking"} {
		if seen[kind] == 0 {
			t.Errorf("the replay never emitted %s (saw %v)", kind, seen)
		}
	}
}

func TestStructuresDoesNotAllocate(t *testing.T) {
	e := traceTestEngine(t, 4000)
	for i, r := range workload.Queries(workload.NewUniform(12, 0, 10_000, 0.02), 60) {
		q := Query{Table: "data", Column: "c0", R: r, Path: PathCracking}
		if i%2 == 1 {
			q.Project, q.Path = []string{"c1"}, PathSideways
		}
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Structures(); s.CrackerPieces < 2 || s.MapPieces < 2 {
		t.Fatalf("replay built too little to measure: %+v", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = e.Structures() }); allocs != 0 {
		t.Fatalf("Structures allocates %.0f times per call", allocs)
	}
}

// TestTracingIsFreeWhenOn verifies the acceptance-critical invariant
// from the other side: an identical query stream with tracing and
// events attached moves the deterministic cost counters exactly as the
// bare stream does.
func TestTracingNeverMovesCostCounters(t *testing.T) {
	run := func(observed bool) uint64 {
		e := traceTestEngine(t, 3000)
		if observed {
			e.SetEventLog(trace.NewLog(128))
		}
		qs := workload.Queries(workload.NewUniform(13, 0, 10_000, 0.01), 40)
		for _, r := range qs {
			q := Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: PathAuto}
			if observed {
				q.Trace = trace.NewRecorder()
			}
			if _, err := e.Run(q); err != nil {
				t.Fatal(err)
			}
		}
		return e.Cost().Total()
	}
	bare, observed := run(false), run(true)
	if bare != observed {
		t.Fatalf("tracing moved the cost counters: %d (off) vs %d (on)", bare, observed)
	}
}
