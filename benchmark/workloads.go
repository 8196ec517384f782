package main

import (
	"context"
	"fmt"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/trace"
)

// session is one closed-loop caller: it sends its next op only after the
// previous one has been answered.
type session struct {
	id      int
	stream  opStream
	updates []api.UpdateRequest // the insert batches, marshalled before timing
	next    int                 // ops sent so far, over all sections
	recs    []digest            // one per op sent, in order

	// mixed_served bookkeeping: the rows this session inserted, in ack
	// order, cut into batches so a delete can take the oldest survivor.
	log     []insRecord
	batches [][2]int
	nextDel int
}

func newSession(id int, stream opStream) (*session, error) {
	s := &session{id: id, stream: stream, recs: make([]digest, 0, len(stream.ops))}
	for _, b := range stream.batches {
		u, err := api.InsertOp(tableName, b)
		if err != nil {
			return nil, err
		}
		s.updates = append(s.updates, u)
	}
	return s, nil
}

// opSeq is the op sequence number spans carry.
func (s *session) opSeq(i int) int64 { return int64(s.id)<<32 | int64(i) }

// section is what one timed stretch measured.
type section struct {
	elapsed time.Duration
	ops     int
	// lat holds the latencies in µs per op kind and slice. A slice is a
	// fifth of the section (hot workloads) or one fresh engine (cold).
	lat [numOpKinds][][]float64
	// sliceS is how long each slice lasted, in seconds.
	sliceS []float64
	// from[s] is the index of session s's first digest of this section.
	from []int
}

func (sec *section) add(other *section) {
	sec.ops += other.ops
	for k := range sec.lat {
		for len(sec.lat[k]) < len(other.lat[k]) {
			sec.lat[k] = append(sec.lat[k], nil)
		}
		for i, sl := range other.lat[k] {
			sec.lat[k][i] = append(sec.lat[k][i], sl...)
		}
	}
}

// opsPerSec is the median across slices of the ops a slice started per
// second — like the percentiles, so that one disturbed slice cannot move
// it.
func (sec *section) opsPerSec() float64 {
	per := make([]float64, len(sec.sliceS))
	for i, s := range sec.sliceS {
		n := 0
		for k := range sec.lat {
			if i < len(sec.lat[k]) {
				n += len(sec.lat[k][i])
			}
		}
		per[i] = float64(n) / s
	}
	return median(per)
}

// embeddedOp puts one read straight to the executor — the caller of an
// embedded workload is the program's own goroutine — and digests the
// reply once the clock has stopped. With the spans on, the op gets a root
// span and the engine's own recorder rides along in the query.
func embeddedOp(ex server.Exec, o op, seq int64, baseRows int, origin time.Time, tr *tracer, pt *progTrace) (d digest, lat time.Duration) {
	q := engineQuery(o, engine.PathAuto)
	rootID := -1
	if tr.enabled() {
		tr.expect(readKey(q), seq)
		q.Trace = trace.NewRecorder()
		rootID = tr.begin(span{Name: spanOp, Node: -1, Op: seq})
	}
	t0 := time.Now()
	res, err := ex.Run(q)
	lat = time.Since(t0)
	if rootID >= 0 {
		tr.end(rootID)
		pt.foldSpan(q.Trace.Finish())
	}
	d.t0 = int64(t0.Sub(origin))
	d.t1 = d.t0 + int64(lat)
	if err != nil {
		d.failed = true
		return d, lat
	}
	c1 := res.Columns[projCol]
	d.digestReply(res.Count, res.Rows, c1, baseRows)
	d.bytes = int32(8 * (1 + len(res.Rows) + len(c1)))
	return d, lat
}

// doServed sends one op through the typed client over loopback TCP. Its
// latency ends when the last row is decoded; digesting comes after.
func (s *session) doServed(ctx context.Context, cl *api.Client, o op, origin time.Time, tr *tracer, seq int64) (res *api.QueryResult, err error) {
	switch o.kind {
	case opCount, opSelect:
		req := api.QueryRequest{Op: "count", Table: tableName, Column: selCol, Low: &o.lo, High: &o.hi}
		if o.kind == opSelect {
			req.Op, req.Project = "select", projList
		}
		if tr.enabled() {
			req.Trace = true // the program's own recorder rides along
			tr.expect(execKey{kind: o.kind, lo: o.lo, hi: o.hi}, seq)
		}
		return cl.Query(ctx, req)
	case opInsert:
		batch := s.stream.batches[o.batch]
		if tr.enabled() {
			for _, row := range batch {
				tr.expect(execKey{kind: opInsert, lo: row[len(row)-1]}, seq)
			}
		}
		start := int64(time.Since(origin))
		resp, err := cl.Update(ctx, s.updates[o.batch])
		if err != nil {
			return nil, err
		}
		if len(resp.Inserted) != len(batch) {
			return nil, fmt.Errorf("insert acked %d rows, sent %d", len(resp.Inserted), len(batch))
		}
		ack := int64(time.Since(origin))
		from := len(s.log)
		for i, row := range batch {
			s.log = append(s.log, insRecord{c0: row[0], c1: row[1], row: resp.Inserted[i],
				insStart: start, insAck: ack, delStart: never, delAck: never})
		}
		s.batches = append(s.batches, [2]int{from, len(s.log)})
		return nil, nil
	default: // opDelete
		b := s.batches[s.nextDel]
		s.nextDel++
		ids := make([]column.RowID, 0, b[1]-b[0])
		for _, r := range s.log[b[0]:b[1]] {
			ids = append(ids, r.row)
			if tr.enabled() {
				tr.expect(execKey{kind: opDelete, lo: int64(r.row)}, seq)
			}
		}
		req, err := api.DeleteOp(tableName, ids)
		if err != nil {
			return nil, err
		}
		start := int64(time.Since(origin))
		resp, err := cl.Update(ctx, req)
		if err == nil && resp.Deleted != len(ids) {
			err = fmt.Errorf("delete acked %d rows, sent %d", resp.Deleted, len(ids))
		}
		// A failed delete may or may not have landed: from its start on
		// the rows may be gone, and they are never again required.
		ack := int64(time.Since(origin))
		for i := b[0]; i < b[1]; i++ {
			s.log[i].delStart = start
			if err == nil {
				s.log[i].delAck = ack
			}
		}
		return nil, err
	}
}

// progTrace sums what the program's own recorder said about the traced
// reads (the span tree a "trace":true request gets back).
type progTrace struct {
	mu                           sync.Mutex
	reads                        int
	queueUs, crackUs, materialUs int64
}

// runSection drives every session for dur and returns what it measured.
// Digests are appended to each session's recs; origin is the zero of
// their timestamps.
func runSection(st *stack, sessions []*session, dur time.Duration, origin time.Time, tr *tracer, pt *progTrace) *section {
	total := &section{from: make([]int, len(sessions))}
	per := make([]*section, len(sessions))
	baseRows := st.sc.Rows
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for si, s := range sessions {
		total.from[si] = len(s.recs)
		sec := &section{}
		for k := range sec.lat {
			sec.lat[k] = make([][]float64, timeSlices)
		}
		per[si] = sec
		wg.Add(1)
		go func(s *session, sec *section) {
			defer wg.Done()
			ctx := context.Background()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				slice := int(t0.Sub(start) * timeSlices / dur)
				o := s.stream.ops[s.next%len(s.stream.ops)]
				seq := s.opSeq(s.next)
				s.next++
				var d digest
				var lat time.Duration
				if st.client == nil {
					d, lat = embeddedOp(st.exec, o, seq, baseRows, origin, tr, pt)
				} else {
					cctx, rootID, clientID := ctx, -1, -1
					if tr.enabled() {
						rootID = tr.begin(span{Name: spanOp, Node: -1, Op: seq})
						clientID = tr.begin(span{Name: spanClient, Node: -1, Op: seq})
						cctx = httptrace.WithClientTrace(ctx, tr.clientTrace(clientID))
						t0 = time.Now()
					}
					res, err := s.doServed(cctx, st.client, o, origin, tr, seq)
					lat = time.Since(t0)
					if rootID >= 0 {
						tr.end(clientID)
					}
					switch {
					case err != nil:
						d.failed = true
					case res != nil:
						d.digestReply(res.Count, res.Rows, res.Columns[projCol], baseRows)
						d.bytes = int32(res.Bytes)
						if pt != nil && len(res.Trace) > 0 {
							pt.fold(res.Trace)
						}
					}
					if rootID >= 0 {
						tr.end(rootID)
					}
					d.t0 = int64(t0.Sub(origin))
					d.t1 = d.t0 + int64(lat)
				}
				s.recs = append(s.recs, d)
				sec.lat[o.kind][slice] = append(sec.lat[o.kind][slice], float64(lat)/1e3)
				sec.ops++
			}
		}(s, sec)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	for i := 0; i < timeSlices; i++ {
		total.sliceS = append(total.sliceS, dur.Seconds()/timeSlices)
	}
	for _, sec := range per {
		total.add(sec)
	}
	return total
}

// coldRun is what runCold measured beyond the section itself.
type coldRun struct {
	firstMs, convS []float64   // per fresh engine: query 1, and all ColdQueries
	work           uint64      // logical work of all repetitions
	last           server.Exec // the last engine, kept for the heap reading
}

// runCold is the paper's experiment: fresh engines, each answering the
// next ColdQueries reads of the stream from a cold column, until dur has
// passed (at least ColdMinReps of them). One engine is one slice, and
// every engine gets reads of its own, so that the medians across engines
// are those of the workload and not of one sequence of ranges.
func runCold(st *stack, s *session, seed int64, dur time.Duration, origin time.Time, tr *tracer, pt *progTrace) (*section, coldRun, error) {
	sec := &section{from: []int{len(s.recs)}}
	var cold coldRun
	n := st.sc.ColdQueries
	for rep := 0; rep < st.sc.ColdMinReps || sec.elapsed < dur; rep++ {
		runtime.GC() // the engine before this one is not this one's to collect
		raw, err := buildExec(st.cat, 1, seed)
		if err != nil {
			return nil, cold, err
		}
		ex := tr.wrapExec(0, raw)
		var lat [numOpKinds][]float64
		repStart := time.Now()
		for i := 0; i < n; i++ {
			o := s.stream.ops[s.next%len(s.stream.ops)]
			d, l := embeddedOp(ex, o, s.opSeq(s.next), st.sc.Rows, origin, tr, pt)
			s.next++
			s.recs = append(s.recs, d)
			lat[o.kind] = append(lat[o.kind], float64(l)/1e3)
			if i == 0 {
				cold.firstMs = append(cold.firstMs, float64(l)/1e6)
			}
		}
		took := time.Since(repStart)
		cold.convS = append(cold.convS, took.Seconds())
		sec.sliceS = append(sec.sliceS, took.Seconds())
		sec.elapsed += took
		sec.ops += n
		for k := range lat {
			sec.lat[k] = append(sec.lat[k], lat[k])
		}
		cold.work += raw.Cost().Total()
		cold.last = raw
	}
	return sec, cold, nil
}

// latMB is the size of a section's latency samples: harness memory that
// grew during the section and is not the program's.
func (sec *section) latMB() float64 {
	var n int
	for k := range sec.lat {
		for _, sl := range sec.lat[k] {
			n += cap(sl)
		}
	}
	return float64(8*n) / (1 << 20)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int
	Failed    int
	// EndToEnd comes from the untraced section (half-length in a traced
	// run, which reports PerLayer instead).
	EndToEnd metrics
	PerLayer metrics
	Diag     []string
	SpanFile string
}

// runOptions is what one invocation asks for.
type runOptions struct {
	workload string
	sc       scale
	seed     int64
	dur      time.Duration
	traced   bool
	spanDir  string
}

// prefixBytes averages the response bytes of each session's first
// BytesPrefix reads (of the first section).
func prefixBytes(sessions []*session, limit int) float64 {
	var bytes, reads int64
	for _, s := range sessions {
		n := 0
		for i := range s.recs {
			if n == limit {
				break
			}
			if !s.stream.ops[i%len(s.stream.ops)].kind.isRead() || s.recs[i].failed {
				continue
			}
			bytes += int64(s.recs[i].bytes)
			reads++
			n++
		}
	}
	if reads == 0 {
		return 0
	}
	return float64(bytes) / float64(reads)
}

// run executes one workload once and then makes sure nothing it started
// is still running: no goroutine may outlive a workload.
func run(opt runOptions) (*runResult, error) {
	before := runtime.NumGoroutine()
	res, err := runWorkload(opt)
	if err != nil {
		return nil, err
	}
	// Connection goroutines end asynchronously once their socket closes.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d goroutines outlived workload %s", runtime.NumGoroutine()-before, opt.workload)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return res, nil
}

// runWorkload does the work of run: set-ups, the timed section, the
// checks, and — for a traced run — the traced section and the per-layer
// metrics. Everything it stands up is torn down when it returns.
func runWorkload(opt runOptions) (*runResult, error) {
	sc := opt.sc
	res := &runResult{Workload: opt.workload, Seed: opt.seed, EndToEnd: metrics{}, PerLayer: metrics{}}
	diag := func(format string, args ...any) { res.Diag = append(res.Diag, fmt.Sprintf(format, args...)) }

	// Inputs first: every op of every caller comes from the seed before
	// anything is timed.
	callers, perSec := 1, sc.EmbeddedOpsPerSec
	served := opt.workload != wlColdEmbedded && opt.workload != wlHotEmbedded
	if served {
		callers, perSec = servedSessions, sc.ServedOpsPerSec
	}
	pool := max(int(float64(perSec)*opt.dur.Seconds()), sc.ColdQueries)
	if opt.workload == wlColdEmbedded {
		pool = sc.ColdQueries * coldStreams
	}
	sessions := make([]*session, callers)
	streams := make([]opStream, callers)
	for i := range sessions {
		if opt.workload == wlMixedServed {
			streams[i] = genMixed(opt.seed, i, pool, sc.Rows)
		} else {
			streams[i] = genReads(opt.seed, i, pool, sc.Rows)
		}
		s, err := newSession(i, streams[i])
		if err != nil {
			return nil, err
		}
		sessions[i] = s
	}
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	harnessMB := liveHeapMB() // op pools and digest buffers: not the program's

	// Set-up, several times over; the last stack is the one measured. A
	// traced run reports no set-up time and stands up once.
	setups := sc.Setups
	if opt.traced {
		setups = 1
	}
	var st *stack
	var setupS, firstMs, convS []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.tearDown()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = standUp(opt.workload, sc, opt.seed, tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		firstMs = append(firstMs, st.firstQueryMs)
		convS = append(convS, st.converge1kS)
	}
	defer st.tearDown()

	// The timed section (tracing off), then — traced runs only — the same
	// again with the spans on.
	origin := time.Now()
	untracedDur := opt.dur
	if opt.traced {
		untracedDur = opt.dur / 2
	}
	pt := &progTrace{}
	// measure runs one section and returns it with the logical work it
	// cost (read only around a traced section: asking a service for its
	// counters is itself work) and, for cold, the last engine it built.
	measure := func(dur time.Duration) (sec *section, work uint64, keep server.Exec, err error) {
		if opt.workload == wlColdEmbedded {
			sec, cold, err := runCold(st, sessions[0], opt.seed, dur, origin, tr, pt)
			if !tr.enabled() {
				firstMs, convS = cold.firstMs, cold.convS
			}
			return sec, cold.work, cold.last, err
		}
		if !tr.enabled() {
			return runSection(st, sessions, dur, origin, tr, pt), 0, nil, nil
		}
		before := totalWork(st)
		sec = runSection(st, sessions, dur, origin, tr, pt)
		return sec, totalWork(st) - before, nil, nil
	}
	// Start from a collected heap: the warm-up's garbage is set-up's.
	runtime.GC()
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	sec, _, keep, err := measure(untracedDur)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&gcAfter)
	heapMB := liveHeapMB() - harnessMB - sec.latMB()
	runtime.KeepAlive(keep)

	var tracedSec *section
	var tracedWork uint64
	if opt.traced {
		tr.on.Store(true)
		tracedSec, tracedWork, _, err = measure(opt.dur - untracedDur)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
	}

	// mixed_served: with the writers stopped the model is exact; check
	// PostReads more reads against it through the same client.
	attempted := 0
	for _, s := range sessions {
		attempted += len(s.recs)
	}
	var post *session
	if opt.workload == wlMixedServed {
		var err error
		if post, err = newSession(len(sessions), genReads(opt.seed, -2, sc.PostReads, sc.Rows)); err != nil {
			return nil, err
		}
		for post.next < len(post.stream.ops) {
			o := post.stream.ops[post.next]
			d := digest{t0: int64(time.Since(origin))}
			r, err := post.doServed(context.Background(), st.client, o, origin, nil, 0)
			d.t1 = int64(time.Since(origin))
			if err != nil {
				d.failed = true
			} else {
				d.digestReply(r.Count, r.Rows, r.Columns[projCol], sc.Rows)
			}
			post.recs = append(post.recs, d)
			post.next++
		}
		attempted += len(post.recs)
	}

	// Check every answer. The oracle is built only now, so that its
	// arrays never sat in the heap the program was timed in.
	tbl, err := st.cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	c0, _ := tbl.Column(selCol)
	c1, _ := tbl.Column(projCol)
	var inserted []insRecord
	for _, s := range sessions {
		inserted = append(inserted, s.log...)
	}
	m := newModel(newOracle(c0[:sc.Rows], c1[:sc.Rows], sc.Rows), inserted)
	recs := make([][]digest, len(sessions))
	for i, s := range sessions {
		recs[i] = s.recs
	}
	failed := m.verify(streams, recs)
	if post != nil {
		failed += m.verify([]opStream{post.stream}, [][]digest{post.recs})
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0 && attempted > 0

	// End-to-end metrics, all from the untraced section.
	counts, selects := summarize(sec.lat[opCount]), summarize(sec.lat[opSelect])
	e2e := res.EndToEnd
	e2e.set("setup_s", median(setupS))
	e2e.set("ops_per_s", sec.opsPerSec())
	e2e.set("count_p50_us", counts.P50)
	e2e.set("count_p90_us", counts.P90)
	e2e.set("select_p50_us", selects.P50)
	e2e.set("select_p90_us", selects.P90)
	e2e.set("first_query_ms", median(firstMs))
	e2e.set("converge_1k_s", median(convS))
	e2e.set("wire_bytes_per_read", prefixBytes(sessions, sc.BytesPrefix))
	e2e.set("heap_live_mb", heapMB)
	diag("count_p99_us %.1f us, count_pmax_us %.1f us (p%g, %d samples beyond it per slice, %d samples)", counts.P99, counts.PMax, counts.PMaxP, counts.PMaxBeyond, counts.N)
	diag("select_p99_us %.1f us, select_pmax_us %.1f us (p%g, %d samples beyond it per slice, %d samples)", selects.P99, selects.PMax, selects.PMaxP, selects.PMaxBeyond, selects.N)
	diag("failed_ratio %.6f ratio (%d of %d)", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	diag("setups %d, slices %d, ops %d in %.2fs, callers %d, pool %d ops per caller", len(setupS), len(sec.lat[opCount]), sec.ops, sec.elapsed.Seconds(), callers, pool)
	diag("setup_s each: %s; first_query_ms each: %s; converge_1k_s each: %s", joinFloats(setupS, "%.3f"), joinFloats(firstMs, "%.1f"), joinFloats(convS, "%.3f"))
	for _, k := range []opKind{opCount, opSelect} {
		per := make([]float64, len(sec.lat[k]))
		for i, sl := range sec.lat[k] {
			per[i] = percentile(sl, 50)
		}
		diag("%s p50 by slice, us: %s", [...]string{"count", "select"}[k], joinFloats(per, "%.1f"))
	}
	writes := summarize(mergeSlices(sec.lat[opInsert], sec.lat[opDelete]))
	if writes.N > 0 {
		diag("write_p50_us %.1f us, write_p99_us %.1f us (%d samples)", writes.P50, writes.P99, writes.N)
	}

	if !opt.traced {
		return res, nil
	}

	// Traced run: the per-layer metrics.
	pl := res.PerLayer
	pl.set("harness.count_p99_us", counts.P99)
	pl.set("harness.select_p99_us", selects.P99)
	pl.set("harness.write_p50_us", nanToZero(writes.P50))
	pl.set("harness.write_p99_us", nanToZero(writes.P99))
	pl.set("harness.failed_ratio", float64(failed)/float64(max(attempted, 1)))
	pl.set("harness.gc_cycles", float64(gcAfter.NumGC-gcBefore.NumGC))
	pl.set("harness.gc_pause_total_ms", float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs)/1e6)
	calibMs, err := layerMetrics(sc, opt.seed, pl, diag)
	if err != nil {
		return nil, fmt.Errorf("per-layer section: %w", err)
	}
	tracedMetrics(st, sessions, sec, tracedSec, tr, pt, tracedWork, calibMs, pl, diag)
	res.SpanFile = fmt.Sprintf("%s/%s.spans.jsonl", opt.spanDir, opt.workload)
	if err := tr.writeFile(res.SpanFile); err != nil {
		return nil, err
	}
	return res, nil
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func nanToZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// totalWork sums the logical work of the stack's executors, epoch reads
// included. A hosted executor is read through its service, which knows
// how to ask without racing its own reorganiser.
func totalWork(st *stack) uint64 {
	if st.exec != nil {
		return st.exec.Cost().Total()
	}
	var w uint64
	for _, b := range st.backends {
		stats := b.svc.Stats()
		w += stats.WorkTotal
		if stats.Reorg != nil {
			w += stats.Reorg.Epoch.ReadWork
		}
	}
	return w
}
