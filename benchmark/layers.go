package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/persist"
	"adaptiveindex/internal/router"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// The per-layer section is the same in every traced run: it does not
// depend on the workload, only on the seed and the scale. Each number is
// taken from outside, around calls into the layer's public functions.

// medianOf runs fn reps times and returns the median duration.
func medianOf(reps int, fn func()) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// ladder is the pinned stream and how it is replayed: one converged
// stream of select+project reads — the op every layer above the kernel
// adds work to (gather, merge, encode, decode) — through one rung at a
// time, one caller.
type ladder struct {
	sel []op
	// identity is how many leading ops every rung replays at least; the
	// rung identities compare the logical work of exactly these.
	identity int
	// budget ends a rung's replay early: at the seed a served rung costs
	// milliseconds per op and the whole stream would take minutes.
	budget time.Duration
}

// converge replays the whole stream untimed, so that every bound it will
// ever ask for is cracked and the timed replays reorganise nothing.
func (l *ladder) converge(fn func(o op) error) error {
	for _, o := range l.sel {
		if err := fn(o); err != nil {
			return err
		}
	}
	return nil
}

// rung replays the stream through fn and returns the p50 in µs and, when
// cost is given, the logical work the first identity ops took.
func (l *ladder) rung(cost func() cost.Counters, fn func(o op) error) (p50 float64, work uint64, err error) {
	var before uint64
	if cost != nil {
		before = cost().Total()
	}
	lat := make([]float64, 0, len(l.sel))
	// Start from a collected heap: the rung below left garbage behind
	// (structures, replies), and collecting it is not this rung's cost.
	runtime.GC()
	start := time.Now()
	for i, o := range l.sel {
		if i == l.identity && cost != nil {
			work = cost().Total() - before
		}
		if i >= l.identity && time.Since(start) > l.budget {
			break
		}
		t0 := time.Now()
		if err := fn(o); err != nil {
			return 0, 0, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return median(lat), work, nil
}

// layerMetrics fills pl with the kernel, ladder, codec and persistence
// metrics and returns the calibration scan's duration in ms.
func layerMetrics(sc scale, seed int64, pl metrics, diag func(string, ...any)) (calibMs float64, err error) {
	cat, err := buildCatalog(sc, seed)
	if err != nil {
		return 0, err
	}
	tbl, _ := cat.Table(tableName)
	c0, _ := tbl.Column(selCol)
	c1, _ := tbl.Column(projCol)
	n := len(c0)
	l := &ladder{identity: sc.LadderIdentityOps, budget: sc.LadderBudget}
	for _, o := range genReads(seed, -3, 2*sc.LadderOps, sc.Rows).ops {
		if o.kind == opSelect {
			l.sel = append(l.sel, o)
		}
	}

	calibMs = kernelMetrics(sc, c0, c1, l, pl)

	// Every rung replays on the explicit cracking path (run_auto
	// excepted), so rung differences are the layers' and nothing else's.
	ctx := context.Background()
	coreOpts := core.Options{CrackInThree: true, Seed: seed}
	built, err := server.BuildEngine(cat, server.EngineOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	eng := built.Engine
	runOn := func(ex interface {
		Run(engine.Query) (*engine.Result, error)
	}, path engine.AccessPath) func(o op) error {
		return func(o op) error {
			_, err := ex.Run(engineQuery(o, path))
			return err
		}
	}
	rung := map[string]float64{}
	work := map[string]uint64{}
	if err = l.converge(runOn(eng, engine.PathCracking)); err != nil {
		return 0, err
	}
	if rung["cracking"], work["engine"], err = l.rung(eng.Cost, runOn(eng, engine.PathCracking)); err != nil {
		return 0, err
	}

	// Persistence rides here: the engine holds exactly one converged
	// cracker, the state a daemon would snapshot.
	var snap bytes.Buffer
	t0 := time.Now()
	if err = persist.SaveEngine(&snap, eng); err != nil {
		return 0, err
	}
	pl.set("persist.save_ms", float64(time.Since(t0))/1e6)
	pl.set("persist.bytes_per_user_byte", float64(snap.Len())/float64(8*n*tableCols))
	fresh, err := server.BuildEngine(cat, server.EngineOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	if err = persist.RestoreEngine(bytes.NewReader(snap.Bytes()), fresh.Engine); err != nil {
		return 0, err
	}
	pl.set("persist.restore_ms", float64(time.Since(t0))/1e6)
	snap.Reset()
	fresh = server.BuiltEngine{}

	// The daemon-default auto path, on the same engine: the planner
	// races the sideways maps (which it builds here) against the cracker.
	// It runs before any service hosts the engine, because a service
	// attaches its event log for good and the bare-engine rungs must not
	// pay for that.
	if err = l.converge(runOn(eng, engine.PathAuto)); err != nil {
		return 0, err
	}
	if rung["auto"], _, err = l.rung(nil, runOn(eng, engine.PathAuto)); err != nil {
		return 0, err
	}

	// One-shard and two-shard clusters.
	cl1, err := shard.New(cat, 1, coreOpts)
	if err != nil {
		return 0, err
	}
	if err = l.converge(runOn(cl1, engine.PathCracking)); err != nil {
		return 0, err
	}
	if rung["shard1"], work["1-shard cluster"], err = l.rung(cl1.Cost, runOn(cl1, engine.PathCracking)); err != nil {
		return 0, err
	}
	cl1 = nil
	cl2, err := shard.New(cat, 2, coreOpts)
	if err != nil {
		return 0, err
	}
	if err = l.converge(runOn(cl2, engine.PathCracking)); err != nil {
		return 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	costBefore := cl2.Cost().TuplesCopied
	if rung["shard2"], _, err = l.rung(nil, runOn(cl2, engine.PathCracking)); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&ms1)
	// Per query: the replay's allocation over the queries it ran (every
	// converged select copies ~N/2000 row ids, which counts them).
	ran := float64(cl2.Cost().TuplesCopied-costBefore) / (2 * float64(n) * selectFrac)
	pl.set("shard.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/max(ran, 1))
	pl.set("shard.merge_us", mergeMetric(eng, l.sel[0]))

	// The service, in process: direct, epoch readers, batch window.
	viaService := func(svc *server.Service) func(o op) error {
		return func(o op) error {
			reply, err := svc.SelectQuery(server.Query{Table: tableName, Column: selCol,
				R: column.NewRange(o.lo, o.hi), Project: projList, Path: "cracking"})
			if reply.Done != nil {
				reply.Done()
			}
			return err
		}
	}
	service := func(cfg server.Config) (*server.Service, error) {
		cfg.Engine, cfg.DefaultTable, cfg.DefaultPath = eng, tableName, "auto"
		return server.NewService(cfg)
	}
	direct, err := service(server.Config{})
	if err != nil {
		return 0, err
	}
	rung["direct"], work["direct service"], err = l.rung(eng.Cost, viaService(direct))
	direct.Close()
	if err != nil {
		return 0, err
	}
	readers2, err := service(server.Config{Readers: 2})
	if err != nil {
		return 0, err
	}
	rung["readers2"], _, err = l.rung(nil, viaService(readers2))
	reorg := readers2.Stats().Reorg
	readers2.Close()
	if err != nil {
		return 0, err
	}
	if reorg != nil {
		pl.set("server.reorg_lag_us", float64(reorg.LagUs))
		pl.set("server.intents_dropped", float64(reorg.IntentsDropped))
	}
	// The daemon's default window; nothing coalesces with one caller, so
	// the rung is the window's fixed cost.
	batched, err := service(server.Config{BatchWindow: 500 * time.Microsecond})
	if err != nil {
		return 0, err
	}
	rung["batched"], _, err = l.rung(nil, viaService(batched))
	batched.Close()
	if err != nil {
		return 0, err
	}

	// The service over HTTP, then behind the router.
	viaClient := func(cl *api.Client) func(o op) error {
		return func(o op) error {
			_, err := cl.Query(ctx, api.QueryRequest{Op: "select", Table: tableName, Column: selCol,
				Low: &o.lo, High: &o.hi, Project: projList, Path: "cracking"})
			return err
		}
	}
	hosted, err := service(server.Config{})
	if err != nil {
		return 0, err
	}
	host, err := serveHTTP(hosted.Handler())
	if err != nil {
		hosted.Close()
		return 0, err
	}
	closeHosted := func() { host.close(); hosted.Close() }
	binClient := newClient(host.addr, wireProto)
	if rung["http_binary"], _, err = l.rung(nil, viaClient(binClient)); err != nil {
		closeHosted()
		return 0, err
	}
	pl.set("api.conn_reuse_ratio", binClient.ReuseRate())
	if rung["http_json"], _, err = l.rung(nil, viaClient(newClient(host.addr, "json"))); err != nil {
		closeHosted()
		return 0, err
	}
	rung["router1"], work["1-node router"], err = l.viaRouter([]string{host.addr}, eng.Cost, viaClient)
	closeHosted()
	if err != nil {
		return 0, err
	}
	// Two nodes: the two-shard cluster's engines are exactly the stripes
	// crackserve -stripe s/2 would host, already converged.
	var addrs []string
	var closers []func()
	for _, e := range cl2.Engines() {
		svc, serr := server.NewService(server.Config{Engine: e, DefaultTable: tableName, DefaultPath: "auto"})
		if err = serr; err != nil {
			break
		}
		closers = append(closers, svc.Close)
		h, herr := serveHTTP(svc.Handler())
		if err = herr; err != nil {
			break
		}
		closers = append(closers, h.close)
		addrs = append(addrs, h.addr)
	}
	if err == nil {
		rung["router2"], _, err = l.viaRouter(addrs, nil, viaClient)
	}
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i]() // each listener before the service behind it
	}
	if err != nil {
		return 0, err
	}
	cl2 = nil

	pl.set("engine.run_cracking_us", rung["cracking"])
	pl.set("engine.run_auto_us", rung["auto"])
	pl.set("engine.planner_overhead_us", rung["auto"]-rung["cracking"])
	pl.set("shard.run_1_us", rung["shard1"])
	pl.set("shard.run_2_us", rung["shard2"])
	pl.set("shard.fanout_overhead_us", rung["shard2"]-rung["shard1"])
	pl.set("server.direct_us", rung["direct"])
	pl.set("server.direct_overhead_us", rung["direct"]-rung["cracking"])
	pl.set("server.readers2_us", rung["readers2"])
	pl.set("server.readers2_overhead_us", rung["readers2"]-rung["direct"])
	pl.set("server.batched_us", rung["batched"])
	pl.set("server.batch_window_overhead_us", rung["batched"]-rung["direct"])
	pl.set("server.http_binary_us", rung["http_binary"])
	pl.set("server.http_hop_us", rung["http_binary"]-rung["direct"])
	pl.set("server.http_json_us", rung["http_json"])
	pl.set("router.hop_1_us", rung["router1"])
	pl.set("router.hop_2_us", rung["router2"])
	pl.set("router.overhead_1_us", rung["router1"]-rung["http_binary"])
	pl.set("router.overhead_2_us", rung["router2"]-rung["http_binary"])

	// The N=1 identities, at benchmark scale: the same ops cost the same
	// logical work through every front that adds no engine of its own.
	for name, w := range work {
		if w != work["engine"] {
			return 0, fmt.Errorf("rung identity broken: %s did %d work units, the bare engine %d", name, w, work["engine"])
		}
	}
	diag("rung identities hold: Cost().Total() = %d over %d ops at engine / 1-shard cluster / direct service / 1-node router", work["engine"], l.identity)

	eng.SetEventLog(nil) // the services are gone; back to the bare engine
	engineWriteMetrics(sc, seed, eng, l, pl)
	return calibMs, codecMetrics(eng, l, pl)
}

// mergeMetric times shard.MergeStriped on canned parts: one converged
// select+project reply split into two stripes.
func mergeMetric(eng *engine.Engine, o op) float64 {
	res, err := eng.Run(engineQuery(o, engine.PathCracking))
	if err != nil {
		return 0
	}
	half := len(res.Rows) / 2
	c1 := res.Columns[projCol]
	parts := []shard.StripeResult{
		{Count: half, Rows: res.Rows[:half], Columns: map[string][]column.Value{projCol: c1[:half]}},
		{Count: len(res.Rows) - half, Rows: res.Rows[half:], Columns: map[string][]column.Value{projCol: c1[half:]}},
	}
	return float64(medianOf(500, func() { shard.MergeStriped(parts, projList, false) })) / 1e3
}

// viaRouter stands a router up over the given nodes and replays the
// stream through it.
func (l *ladder) viaRouter(nodes []string, cost func() cost.Counters, viaClient func(*api.Client) func(op) error) (p50 float64, work uint64, err error) {
	rt, err := router.New(router.Config{Nodes: nodes, Proto: wireProto, Block: wireBlock})
	if err != nil {
		return 0, 0, err
	}
	defer rt.Close()
	host, err := serveHTTP(rt.Handler())
	if err != nil {
		return 0, 0, err
	}
	defer host.close()
	return l.rung(cost, viaClient(newClient(host.addr, wireProto)))
}

// kernelMetrics times the kernels at N rows and the bare cracker column,
// cold and converged; it returns the calibration scan in ms.
func kernelMetrics(sc scale, c0, c1 []column.Value, l *ladder, pl metrics) (calibMs float64) {
	n, sel := len(c0), l.sel
	var c cost.Counters
	perRow := func(d time.Duration, rows int) float64 { return float64(d) / float64(rows) }
	countRange := column.NewRange(int64(n/2), int64(n/2+n/100))
	scan := medianOf(5, func() { core.ScanCount(c0, countRange, &c) })
	calibMs = float64(scan) / 1e6
	pl.set("core.scan_count_ns_per_row", perRow(scan, n))
	pl.set("harness.calib_scan_ms", calibMs)
	selRange := column.NewRange(sel[0].lo, sel[0].hi)
	pl.set("core.scan_select_ns_per_row", perRow(medianOf(3, func() { core.ScanSelect(c0, selRange, &c) }), n))

	pairs := column.PairsFromValues(c0)
	t0 := time.Now()
	core.CrackInTwo(pairs, 0, n, core.UpperBound(column.NewRange(0, int64(n/2))), &c)
	pl.set("core.crack2_ns_per_row", perRow(time.Since(t0), n))
	pairs = column.PairsFromValues(c0)
	third := column.NewRange(int64(n/3), int64(2*n/3))
	t0 = time.Now()
	core.CrackInThree(pairs, 0, n, core.LowerBound(third), core.UpperBound(third), &c)
	pl.set("core.crack3_ns_per_row", perRow(time.Since(t0), n))

	// Materialise and gather in result-sized chunks over cracked (hence
	// randomly ordered) row ids, as a converged select does.
	chunk := max(int(float64(n)*selectFrac), 1)
	span := min(100*chunk, n)
	rows, vals := make(column.IDList, chunk), make([]column.Value, chunk)
	pl.set("core.materialize_ns_per_row", perRow(medianOf(5, func() {
		for at := 0; at+chunk <= span; at += chunk {
			core.MaterializeRows(rows, pairs[at:at+chunk])
		}
	}), span/chunk*chunk))
	all := make(column.IDList, span)
	core.MaterializeRows(all, pairs[:span])
	pl.set("core.gather_ns_per_row", perRow(medianOf(5, func() {
		for at := 0; at+chunk <= span; at += chunk {
			core.GatherValues(vals, c1, all[at:at+chunk])
		}
	}), span/chunk*chunk))
	pairs = nil

	// The bare cracker column: query 1, the cold prefix, then converged.
	cc := core.NewCrackerColumn(c0, core.Options{CrackInThree: true})
	t0 = time.Now()
	cc.Select(selRange)
	pl.set("core.select_cold_ms", float64(time.Since(t0))/1e6)
	cold := min(sc.ColdQueries, len(sel))
	for _, o := range sel[1:cold] {
		cc.Select(column.NewRange(o.lo, o.hi))
	}
	pl.set("core.values_touched_per_query", float64(cc.Cost().ValuesTouched)/float64(cold))
	for _, o := range sel[cold:] {
		cc.Select(column.NewRange(o.lo, o.hi))
	}
	hot, _, _ := l.rung(nil, func(o op) error { cc.Select(column.NewRange(o.lo, o.hi)); return nil })
	pl.set("core.select_hot_us", hot)
	largest := 0
	pieces := cc.Pieces()
	for _, p := range pieces {
		largest = max(largest, p.End-p.Start)
	}
	pl.set("crackeridx.pieces", float64(len(pieces)))
	pl.set("crackeridx.largest_piece_rows", float64(largest))

	t0 = time.Now()
	cc.Snapshot(nil)
	pl.set("core.snapshot_ms", float64(time.Since(t0))/1e6)

	// Ripple updates on the converged column: each one moves a tuple
	// through every piece behind its value.
	rng := rand.New(rand.NewSource(int64(n)))
	added := make(column.Pairs, sc.MicroWrites)
	ins := make([]float64, len(added))
	for i := range added {
		added[i] = column.Pair{Val: column.Value(rng.Intn(n)), Row: column.RowID(n + i)}
		t0 := time.Now()
		cc.RippleInsert(added[i])
		ins[i] = float64(time.Since(t0)) / 1e3
	}
	del := make([]float64, len(added))
	for i, p := range added {
		t0 := time.Now()
		_ = cc.RippleDelete(p.Row, p.Val) // the pair was just inserted
		del[i] = float64(time.Since(t0)) / 1e3
	}
	pl.set("core.ripple_insert_us", median(ins))
	pl.set("core.ripple_delete_us", median(del))
	return calibMs
}

// engineWriteMetrics times the engine's write path and epoch machinery
// on the converged ladder engine: writes interleaved with the reads that
// merge them, as mixed_served does (writeBatch rows per write, four reads
// per write).
func engineWriteMetrics(sc scale, seed int64, eng *engine.Engine, l *ladder, pl metrics) {
	n, sel := sc.Rows, l.sel
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	mergeBefore := eng.Cost().MergeWork
	var ins, del, publish, epochRead, apply []float64
	var rows []column.RowID
	depthMax, read := 0, 0
	timed := func(dst *[]float64, fn func()) {
		t0 := time.Now()
		fn()
		*dst = append(*dst, float64(time.Since(t0))/1e3)
	}
	readSome := func(k int) {
		for ; k > 0; k-- {
			o := sel[read%len(sel)]
			read++
			_, _ = eng.Run(engineQuery(o, engine.PathCracking))
		}
	}
	depth := func() {
		ws := eng.WriteStats()
		depthMax = max(depthMax, ws.PendingInserts+ws.PendingDeletes)
	}
	for i := 0; i < sc.MicroWrites; i++ {
		vals := []column.Value{column.Value(rng.Intn(n)), column.Value(rng.Intn(n)), 0}
		timed(&ins, func() {
			if row, err := eng.InsertRow(tableName, vals); err == nil {
				rows = append(rows, row)
			}
		})
		if i%writeBatch == writeBatch-1 {
			depth()
			timed(&publish, func() { eng.PublishEpoch() })
			readSome(writeEvery - 1)
		}
	}
	for i, row := range rows {
		timed(&del, func() { _ = eng.DeleteRow(tableName, row) })
		if i%writeBatch == writeBatch-1 {
			depth()
			readSome(writeEvery - 1)
		}
	}
	writes := len(ins) + len(del)
	pl.set("engine.insert_us", median(ins))
	pl.set("engine.delete_us", median(del))
	pl.set("engine.pending_depth_max", float64(depthMax))
	pl.set("updates.merge_work_per_write", float64(eng.Cost().MergeWork-mergeBefore)/float64(max(writes, 1)))
	pl.set("engine.epoch_publish_us", nanToZero(median(publish)))

	// Epoch reads over a fresh publication, applying whatever intents
	// they raise the way the reorganiser would.
	eng.PublishEpoch()
	for _, o := range sel[:l.identity] {
		q := engineQuery(o, engine.PathCracking)
		var info engine.EpochInfo
		timed(&epochRead, func() {
			var err error
			if _, info, err = eng.EpochRead(q); err == nil && info.Release != nil {
				info.Release()
			}
		})
		if info.NeedsReorg {
			timed(&apply, func() { _ = eng.ApplyIntent(engine.Intent{Table: q.Table, Column: q.Column, R: q.R}) })
			eng.PublishEpoch()
		}
	}
	pl.set("engine.epoch_read_us", median(epochRead))
	pl.set("engine.apply_intent_us", nanToZero(median(apply)))
}

// codecMetrics times the wire codec and the typed client on one canned
// select+project reply.
func codecMetrics(eng *engine.Engine, l *ladder, pl metrics) error {
	o := l.sel[0]
	res, err := eng.Run(engineQuery(o, engine.PathCracking))
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("canned reply for [%d,%d) is empty", o.lo, o.hi)
	}
	rows, cols := res.Rows, [][]column.Value{res.Columns[projCol]}
	hdr := wire.Header{Count: res.Count, Path: res.Path.String(), Columns: projList}
	var frames bytes.Buffer
	encode := medianOf(200, func() {
		frames.Reset()
		_ = wire.Encode(&frames, hdr, rows, cols, wireBlock, 0) // a bytes.Buffer cannot fail
	})
	canned := append([]byte(nil), frames.Bytes()...)
	var decErr error
	decode := medianOf(200, func() {
		if _, err := wire.Decode(bytes.NewReader(canned)); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	asJSON, err := json.Marshal(api.QueryResponse{Count: res.Count, Rows: rows, Columns: res.Columns, Path: hdr.Path})
	if err != nil {
		return err
	}
	pl.set("wire.encode_ns_per_row", float64(encode)/float64(len(rows)))
	pl.set("wire.decode_ns_per_row", float64(decode)/float64(len(rows)))
	pl.set("wire.bytes_per_row", float64(len(canned))/float64(len(rows)))
	pl.set("api.json_bytes_per_row", float64(len(asJSON))/float64(len(rows)))

	body, err := json.Marshal(api.QueryRequest{Op: "select", Table: tableName, Column: selCol,
		Low: &o.lo, High: &o.hi, Project: projList})
	if err != nil {
		return err
	}
	var qErr error
	pl.set("api.decode_query_us", float64(medianOf(2000, func() {
		if _, err := api.DecodeQuery(bytes.NewReader(body)); err != nil {
			qErr = err
		}
	}))/1e3)
	if qErr != nil {
		return qErr
	}

	// The client against a stub that serves the canned frames: what
	// api.Client itself costs per read, loopback included.
	stub, err := serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(canned) // a closed client connection is the client's error
	}))
	if err != nil {
		return err
	}
	defer stub.close()
	cl := newClient(stub.addr, wireProto)
	self, _, err := l.rung(nil, func(o op) error {
		_, err := cl.Query(context.Background(), api.QueryRequest{Op: "select", Low: &o.lo, High: &o.hi, Project: projList})
		return err
	})
	pl.set("api.client_self_us", self)
	return err
}

// fold adds one traced read's span tree, as the program's own recorder
// reported it, to the totals.
func (pt *progTrace) fold(raw []byte) {
	var root trace.Span
	if json.Unmarshal(raw, &root) != nil {
		return
	}
	pt.foldSpan(&root)
}

func (pt *progTrace) foldSpan(root *trace.Span) {
	var queue, crack, material int64
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		switch sp.Phase {
		case trace.PhaseQueueWait:
			queue += sp.DurUs
		case trace.PhaseCrack, trace.PhaseEpochPin:
			crack += sp.DurUs
		case trace.PhaseMaterialise:
			material += sp.DurUs
		}
		for _, c := range sp.Spans {
			walk(c)
		}
	}
	walk(root)
	pt.mu.Lock()
	pt.reads++
	pt.queueUs += queue
	pt.crackUs += crack
	pt.materialUs += material
	pt.mu.Unlock()
}

// tracedMetrics turns the traced section's spans and counters into the
// per-workload per-layer metrics.
func tracedMetrics(st *stack, sessions []*session, sec, traced *section, tr *tracer, pt *progTrace,
	workDelta uint64, calibMs float64, pl metrics, diag func(string, ...any)) {
	// IDEBench's time requirement, against the untraced section: a read
	// slower than one calibration scan — or failed — violates it.
	var reads, violated int
	for _, k := range []opKind{opCount, opSelect} {
		for _, sl := range sec.lat[k] {
			reads += len(sl)
			// summarize sorted the slice ascending.
			violated += len(sl) - sort.SearchFloat64s(sl, calibMs*1e3)
		}
	}
	for _, s := range sessions {
		for i := range s.recs {
			if s.recs[i].failed {
				violated++
			}
		}
	}
	pl.set("harness.tr_violated_ratio", float64(violated)/float64(max(reads, 1)))

	var rejected uint64
	var reorg *api.ReorgStats
	for _, b := range st.backends {
		stats := b.svc.Stats()
		rejected += stats.Rejected
		if stats.Reorg != nil {
			reorg = stats.Reorg
		}
	}
	pl.set("server.rejected", float64(rejected))
	if reorg != nil {
		// This workload runs epoch readers itself: its own reorganiser's
		// numbers replace the ladder rung's.
		pl.set("server.reorg_lag_us", float64(reorg.LagUs))
		pl.set("server.intents_dropped", float64(reorg.IntentsDropped))
	}
	var retries, partials, routed float64
	if st.router != nil {
		if text, err := st.client.Metrics(context.Background()); err == nil {
			retries = promValue(text, "crackrouter_retries_total")
			partials = promValue(text, "crackrouter_partials_total")
			routed = promValue(text, "crackrouter_queries_total")
		}
	}
	pl.set("router.retries", retries)
	pl.set("router.partial_ratio", partials/max(routed, 1))

	names := []string{"exec.self_us", "server.self_us", "router.self_us", "api.self_us",
		"server.queue_wait_us", "engine.crack_us", "engine.materialise_us",
		"engine.zero_crack_ratio", "engine.touched_per_returned_row", "harness.tracing_overhead_ratio"}
	if traced.ops == 0 {
		for _, name := range names {
			pl.set(name, 0)
		}
		return
	}
	unresolved := tr.resolve()
	self := tr.selfByName()
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(traced.ops) }
	pl.set("exec.self_us", perOp(self[spanExecRun]+self[spanExecWr]))
	pl.set("server.self_us", perOp(self[spanServer]))
	pl.set("router.self_us", perOp(self[spanRouter]))
	pl.set("api.self_us", perOp(self[spanClient]))
	perRead := func(us int64) float64 { return float64(us) / float64(max(pt.reads, 1)) }
	pl.set("server.queue_wait_us", perRead(pt.queueUs))
	pl.set("engine.crack_us", perRead(pt.crackUs))
	pl.set("engine.materialise_us", perRead(pt.materialUs))
	pl.set("engine.zero_crack_ratio", float64(tr.zeroCrack.Load())/float64(max(tr.reads.Load(), 1)))
	var returned int64
	for si, s := range sessions {
		for i := traced.from[si]; i < len(s.recs); i++ {
			returned += int64(s.recs[i].baseN + s.recs[i].insN)
		}
	}
	pl.set("engine.touched_per_returned_row", float64(workDelta)/float64(max(returned, 1)))
	pl.set("harness.tracing_overhead_ratio", traced.opsPerSec()/sec.opsPerSec())
	diag("traced section: %d ops in %.2fs, %d spans, %d unresolved, op self %.2f us/op",
		traced.ops, traced.elapsed.Seconds(), len(tr.spans), unresolved, perOp(self[spanOp]))
}

// promValue returns the value of an unlabelled sample in a Prometheus
// text exposition, or 0 when it is absent.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}
