package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/trace"
)

// syncBuffer is a Buffer safe to read while the serve goroutine is
// still logging to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startServe boots serve() on an ephemeral port and waits until it
// answers /healthz. It returns the base URL, a cancel that triggers
// graceful shutdown, and a channel carrying serve's return value.
func startServe(t *testing.T, cfg config) (string, context.CancelFunc, chan error, *syncBuffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, ln, &out) }()

	url := "http://" + ln.Addr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url, cancel, done, &out
			}
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getStats(t *testing.T, url string) server.Stats {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func postJSON(t *testing.T, url, body string) api.QueryResponse {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("%s: status %d: %s", body, resp.StatusCode, buf.String())
	}
	var qr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// TestKillRestartCycle is the daemon-level restart contract against a
// multi-table catalog: a graceful shutdown snapshots the engine's
// adaptive state (cracked columns, sideways maps, planner estimates),
// and a rebooted daemon restores it — same answers, same pieces, no
// re-learning.
func TestKillRestartCycle(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "engine.snapshot")
	cfg := config{
		tables:      "orders:50000:3,events:20000:2",
		seed:        7,
		shards:      1,
		path:        "auto",
		batchWindow: 200 * time.Microsecond,
		batchMax:    64,
		inFlight:    128,
		snapshot:    snap,
		drainWait:   5 * time.Second,
	}

	url, cancel, done, out := startServe(t, cfg)

	// Crack both tables over the wire: select-project exploration on
	// orders (the planner routes it), plain counts on events.
	bodies := make([]string, 0, 90)
	for i := 0; i < 60; i++ {
		lo := (i * 700) % 49000
		bodies = append(bodies, fmt.Sprintf(
			`{"op":"select","table":"orders","column":"c0","low":%d,"high":%d,"project":["c1"]}`, lo, lo+500))
	}
	for i := 0; i < 30; i++ {
		lo := (i * 600) % 19000
		bodies = append(bodies, fmt.Sprintf(
			`{"op":"count","table":"events","column":"c0","low":%d,"high":%d}`, lo, lo+300))
	}
	counts := make(map[string]int)
	for _, body := range bodies {
		counts[body] = postJSON(t, url, body).Count
	}
	before := getStats(t, url)
	if before.Structures.CrackerPieces+before.Structures.MapPieces == 0 {
		t.Fatalf("no persistable pieces after a query stream: %+v", before.Structures)
	}
	if len(before.Planner) == 0 {
		t.Fatal("auto traffic left no planner state")
	}

	// Graceful shutdown must write the snapshot.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v\noutput:\n%s", err, out)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if !strings.Contains(out.String(), "snapshot written") {
		t.Fatalf("missing snapshot log line:\n%s", out)
	}

	// Reboot from the snapshot.
	url2, cancel2, done2, out2 := startServe(t, cfg)
	defer func() {
		cancel2()
		<-done2
	}()
	logDeadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out2.String(), "restored from") {
		if time.Now().After(logDeadline) {
			t.Fatalf("reboot did not restore:\n%s", out2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := getStats(t, url2)
	if after.Structures.CrackerPieces != before.Structures.CrackerPieces ||
		after.Structures.MapPieces != before.Structures.MapPieces {
		t.Fatalf("restored structures %+v, want %+v", after.Structures, before.Structures)
	}
	if len(after.Planner) != len(before.Planner) {
		t.Fatalf("restored %d planner states, want %d", len(after.Planner), len(before.Planner))
	}
	for i := range before.Planner {
		if after.Planner[i].Chosen != before.Planner[i].Chosen || after.Planner[i].Phase != before.Planner[i].Phase {
			t.Fatalf("planner state %d not restored: %+v vs %+v", i, after.Planner[i], before.Planner[i])
		}
	}
	// Replay the same queries twice: identical counts both times, and
	// the second replay must add no cracks. (The first replay may add a
	// few — queries that probed the non-chosen path during the original
	// explore phase now route to the restored planner's choice, whose
	// structure finishes absorbing their bounds.)
	for round := 0; round < 2; round++ {
		for body, want := range counts {
			if got := postJSON(t, url2, body).Count; got != want {
				t.Fatalf("after restart (round %d), %s returned %d, want %d", round, body, got, want)
			}
		}
	}
	mid := getStats(t, url2)
	for body, want := range counts {
		if got := postJSON(t, url2, body).Count; got != want {
			t.Fatalf("final replay, %s returned %d, want %d", body, got, want)
		}
	}
	final := getStats(t, url2)
	if final.Structures.CrackerPieces != mid.Structures.CrackerPieces ||
		final.Structures.MapPieces != mid.Structures.MapPieces {
		t.Fatalf("replay did not converge after restore: %+v -> %+v", mid.Structures, final.Structures)
	}
}

func postUpdate(t *testing.T, url, body string) api.UpdateResponse {
	t.Helper()
	resp, err := http.Post(url+"/update", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("%s: status %d: %s", body, resp.StatusCode, buf.String())
	}
	var ur api.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	return ur
}

// TestKillRestartRoundTripsPendingUpdates is the write-path restart
// contract: updates buffered under the gradual merge policy — never
// touched by a query, so still unmerged at shutdown — survive the
// snapshot/restore cycle and merge correctly when a query finally
// touches them on the rebooted daemon.
func TestKillRestartRoundTripsPendingUpdates(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "engine.snapshot")
	cfg := config{
		tables:      "orders:20000:2",
		seed:        5,
		shards:      1,
		path:        "auto",
		merge:       "gradual",
		batchWindow: 200 * time.Microsecond,
		batchMax:    64,
		inFlight:    128,
		snapshot:    snap,
		drainWait:   5 * time.Second,
	}
	url, cancel, done, out := startServe(t, cfg)

	// Crack the low half so the cracked columns exist, then write:
	// sentinel inserts far above the 20000-value domain stay pending
	// (no query touches that range before shutdown).
	for i := 0; i < 20; i++ {
		lo := (i * 700) % 9000
		postJSON(t, url, fmt.Sprintf(`{"op":"count","table":"orders","column":"c0","low":%d,"high":%d}`, lo, lo+300))
	}
	ins := postUpdate(t, url, `{"op":"insert","table":"orders","rows":[[30001,1],[30002,2],[30003,3]]}`)
	if len(ins.Inserted) != 3 {
		t.Fatalf("insert reply: %+v", ins)
	}
	if ins.PendingInserts == 0 {
		t.Fatalf("gradual policy must buffer inserts, got %+v", ins)
	}
	del := postUpdate(t, url, fmt.Sprintf(`{"ops":[{"op":"delete","table":"orders","rows":[0,1]},{"op":"insert","table":"orders","rows":[[30004,4]]}]}`))
	if del.Deleted != 2 || len(del.Inserted) != 1 {
		t.Fatalf("batched ops reply: %+v", del)
	}
	before := getStats(t, url)
	if before.WriteState.PendingInserts != 4 {
		t.Fatalf("want 4 pending inserts before shutdown, got %+v", before.WriteState)
	}
	if before.Writes != 2 {
		t.Fatalf("want 2 write requests counted, got %d", before.Writes)
	}
	wantLive := before.Tables[0].LiveRows

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v\noutput:\n%s", err, out)
	}

	url2, cancel2, done2, out2 := startServe(t, cfg)
	defer func() {
		cancel2()
		<-done2
	}()
	logDeadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out2.String(), "restored from") {
		if time.Now().After(logDeadline) {
			t.Fatalf("reboot did not restore:\n%s", out2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := getStats(t, url2)
	if after.WriteState.PendingInserts != 4 || after.WriteState.PendingDeletes != before.WriteState.PendingDeletes {
		t.Fatalf("pending updates did not round-trip: %+v, want %+v", after.WriteState, before.WriteState)
	}
	if after.Tables[0].LiveRows != wantLive {
		t.Fatalf("live rows after restart = %d, want %d", after.Tables[0].LiveRows, wantLive)
	}

	// A query touching the sentinel range must merge and return every
	// pending insert; the deleted base rows stay gone.
	qr := postJSON(t, url2, `{"op":"select","table":"orders","column":"c0","low":30000,"high":30100,"path":"cracking"}`)
	if qr.Count != 4 {
		t.Fatalf("sentinel query returned %d rows, want 4", qr.Count)
	}
	merged := getStats(t, url2)
	if merged.WriteState.PendingInserts != 0 {
		t.Fatalf("sentinel query left pending inserts: %+v", merged.WriteState)
	}
	if merged.WriteState.MergedInserts < 4 {
		t.Fatalf("merged-insert counter = %d, want >= 4", merged.WriteState.MergedInserts)
	}
	if got := postJSON(t, url2, `{"op":"count","table":"orders","column":"c0","low":0,"high":40000,"path":"scan"}`); got.Count != wantLive {
		t.Fatalf("full scan sees %d live rows, want %d", got.Count, wantLive)
	}
}

// TestServeSelectProjectAndPaths smoke-tests the wire surface end to
// end: select-project against a named table, explicit paths, and the
// stats catalog.
func TestServeSelectProjectAndPaths(t *testing.T) {
	cfg := config{
		tables:      "data:20000:3",
		seed:        3,
		shards:      1,
		path:        "auto",
		batchWindow: 200 * time.Microsecond,
		batchMax:    64,
		inFlight:    128,
		drainWait:   time.Second,
	}
	url, cancel, done, _ := startServe(t, cfg)
	defer func() {
		cancel()
		<-done
	}()
	qr := postJSON(t, url, `{"op":"select","low":100,"high":500,"project":["c1","c2"]}`)
	if qr.Count == 0 || len(qr.Rows) != qr.Count {
		t.Fatalf("bad response: %+v", qr)
	}
	if len(qr.Columns["c1"]) != qr.Count || len(qr.Columns["c2"]) != qr.Count {
		t.Fatalf("projections missing: %+v", qr.Columns)
	}
	if qr.Path == "" || qr.Path == "auto" {
		t.Fatalf("response must name the executed path, got %q", qr.Path)
	}
	for _, path := range []string{"scan", "cracking", "sideways"} {
		qr2 := postJSON(t, url, fmt.Sprintf(`{"op":"count","low":100,"high":500,"path":%q}`, path))
		if qr2.Count != qr.Count {
			t.Fatalf("path %s: count %d, want %d", path, qr2.Count, qr.Count)
		}
		if qr2.Path != path {
			t.Fatalf("path %s executed as %q", path, qr2.Path)
		}
	}
	st := getStats(t, url)
	if len(st.Tables) != 1 || st.Tables[0].Table != "data" || len(st.Tables[0].Columns) != 3 {
		t.Fatalf("unexpected catalog: %+v", st.Tables)
	}
}

// TestFlagParsing exercises run()'s flag surface without binding a
// real listener for the error cases.
func TestFlagParsing(t *testing.T) {
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("bad flag must fail")
	}
	cfg, err := parseFlags([]string{"-n", "1000"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.tables != "data:1000:3" {
		t.Fatalf("tables must default from -n, got %q", cfg.tables)
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-tables", "bad-spec"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad table spec must fail")
	}
	for _, path := range []string{"no-such-path", "parallel"} {
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-n", "10", "-path", path}, &bytes.Buffer{})
		if !errors.Is(err, engine.ErrUnknownPath) {
			t.Fatalf("-path %s: got %v, want ErrUnknownPath", path, err)
		}
	}
}

// TestServeObservabilitySurface is the live-daemon observability
// contract: a booted crackserve answers traced queries with a span
// tree, serves a lint-clean Prometheus exposition at /metrics —
// epoch-read and reorganiser families included, since the daemon runs
// with -readers 4 — replays its reorganisation log at /debug/events,
// and runs pprof on the -debug-addr listener only.
func TestServeObservabilitySurface(t *testing.T) {
	dln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := dln.Addr().String()
	dln.Close()
	cfg := config{
		tables:      "data:20000:3",
		seed:        5,
		shards:      1,
		path:        "auto",
		batchWindow: 200 * time.Microsecond,
		batchMax:    64,
		inFlight:    128,
		readers:     4,
		drainWait:   time.Second,
		events:      256,
		debugAddr:   debugAddr,
	}
	url, cancel, done, _ := startServe(t, cfg)
	defer func() {
		cancel()
		<-done
	}()
	for i := 0; i < 12; i++ {
		postJSON(t, url, fmt.Sprintf(`{"op":"select","low":%d,"high":%d}`, i*300, i*300+400))
	}
	qr := postJSON(t, url, `{"op":"select","low":100,"high":800,"trace":true}`)
	if len(qr.Trace) == 0 {
		t.Fatal("traced query returned no span tree")
	}
	var root trace.Span
	if err := json.Unmarshal(qr.Trace, &root); err != nil {
		t.Fatalf("span tree does not decode: %v", err)
	}
	if root.ChildDurUs() > root.DurUs {
		t.Fatalf("phase durations %dus exceed the query total %dus", root.ChildDurUs(), root.DurUs)
	}

	// The exposition must be ingestible: promtool-style lint, zero errors
	// — with the epoch-read machinery on, that covers the reorganiser
	// families too.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metricsBuf bytes.Buffer
	metricsBuf.ReadFrom(resp.Body)
	resp.Body.Close()
	exposition := metricsBuf.String()
	errs := trace.LintProm(strings.NewReader(exposition))
	if len(errs) != 0 {
		t.Fatalf("/metrics lint errors: %v", errs)
	}
	for _, family := range []string{
		"crack_readers 4",
		"crack_reorg_backlog",
		"crack_epochs_retired_total",
		"crack_epochs_published_total",
		"crack_reorg_applied_total",
		"crack_reorg_lag_seconds",
		"crack_epoch_reads_total",
	} {
		if !strings.Contains(exposition, family) {
			t.Fatalf("/metrics is missing %q with -readers 4", family)
		}
	}

	// The event log replays the reorganisation the workload caused. The
	// cracking happens on the background reorganiser now, so poll until
	// it has caught up with the readers' intents.
	var page struct {
		Events []trace.Event `json:"events"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(url + "/debug/events?since=0")
		if err != nil {
			t.Fatal(err)
		}
		page.Events = nil
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Events) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reorganisation events after an auto-path workload")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// pprof lives on the debug listener, not the public one.
	resp, err = http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof listener: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
	resp, err = http.Get(url + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof must not be served on the public address")
	}
}

// TestShardedKillRestartRoundTrip is the sharded daemon's restart
// contract over real HTTP: a -shards 3 daemon answers exactly like the
// striped cluster it hosts, a graceful shutdown writes per-shard
// snapshot segments — pending updates included — and a reboot at the
// same shard count restores all of it. A reboot at a different shard
// count must refuse the snapshot and say which -shards to use.
func TestShardedKillRestartRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "cluster.snapshot")
	cfg := config{
		tables:      "orders:30000:3,events:10000:2",
		seed:        9,
		shards:      3,
		path:        "auto",
		merge:       "gradual",
		batchWindow: 200 * time.Microsecond,
		batchMax:    64,
		inFlight:    128,
		snapshot:    snap,
		drainWait:   5 * time.Second,
	}
	url, cancel, done, out := startServe(t, cfg)

	st := getStats(t, url)
	if st.Shards != 3 || len(st.ShardStats) != 3 {
		t.Fatalf("sharded daemon reports shards=%d with %d shard stats, want 3", st.Shards, len(st.ShardStats))
	}

	// Crack both tables, then leave sentinel writes pending: inserts far
	// above the value domain plus tombstones on rows 0..2, which stripe
	// onto the three different shards.
	bodies := make([]string, 0, 60)
	for i := 0; i < 40; i++ {
		lo := (i * 650) % 28000
		bodies = append(bodies, fmt.Sprintf(
			`{"op":"select","table":"orders","column":"c0","low":%d,"high":%d,"project":["c1"]}`, lo, lo+400))
	}
	for i := 0; i < 20; i++ {
		lo := (i * 450) % 9000
		bodies = append(bodies, fmt.Sprintf(
			`{"op":"count","table":"events","column":"c1","low":%d,"high":%d}`, lo, lo+250))
	}
	// First pass cracks the columns (writes only buffer against cracked
	// columns); the writes then stay pending until merged.
	for _, body := range bodies {
		postJSON(t, url, body)
	}
	ins := postUpdate(t, url, `{"op":"insert","table":"orders","rows":[[90001,1,1],[90002,2,2],[90003,3,3],[90004,4,4]]}`)
	if len(ins.Inserted) != 4 || ins.PendingInserts == 0 {
		t.Fatalf("insert reply: %+v", ins)
	}
	if del := postUpdate(t, url, `{"op":"delete","table":"orders","rows":[0,1,2]}`); del.Deleted != 3 {
		t.Fatalf("delete reply: %+v", del)
	}
	// The query stream may merge the tombstones where it touches their
	// ranges; the sentinel inserts sit far above every queried range and
	// must still be pending at shutdown.
	counts := make(map[string]int)
	for _, body := range bodies {
		counts[body] = postJSON(t, url, body).Count
	}
	before := getStats(t, url)
	if before.WriteState.PendingInserts != 4 {
		t.Fatalf("want 4 pending inserts before shutdown, got %+v", before.WriteState)
	}
	pending := 0
	for _, ss := range before.ShardStats {
		pending += ss.PendingInserts + ss.PendingDeletes
	}
	if pending != before.WriteState.PendingInserts+before.WriteState.PendingDeletes {
		t.Fatalf("per-shard pending (%d) does not sum to the cluster's (%+v)", pending, before.WriteState)
	}
	wantLive := before.Tables[0].LiveRows

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out.String(), "snapshot written") {
		t.Fatalf("missing snapshot log line:\n%s", out)
	}

	// Reboot at the same shard count: everything restores. No deferred
	// shutdown — the test ends this daemon explicitly below (a second
	// receive from done2 would deadlock).
	url2, cancel2, done2, out2 := startServe(t, cfg)
	logDeadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out2.String(), "restored from") {
		if time.Now().After(logDeadline) {
			t.Fatalf("reboot did not restore:\n%s", out2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after := getStats(t, url2)
	if after.Shards != 3 {
		t.Fatalf("rebooted daemon reports %d shards, want 3", after.Shards)
	}
	// Cracked columns round-trip exactly. Map sets of the written orders
	// table are deliberately not persisted (see engine snapshot docs), so
	// only the unwritten events table's survive — one set per shard.
	if after.Structures.CrackerPieces != before.Structures.CrackerPieces ||
		after.Structures.Crackers != before.Structures.Crackers {
		t.Fatalf("restored structures %+v, want crackers of %+v", after.Structures, before.Structures)
	}
	if after.Structures.MapSets == 0 {
		t.Fatalf("no map sets survived the restart: %+v", after.Structures)
	}
	if after.WriteState.PendingInserts != 4 || after.WriteState.PendingDeletes != before.WriteState.PendingDeletes {
		t.Fatalf("pending updates did not round-trip: %+v, want %+v", after.WriteState, before.WriteState)
	}
	if after.Tables[0].LiveRows != wantLive {
		t.Fatalf("live rows after restart = %d, want %d", after.Tables[0].LiveRows, wantLive)
	}
	for body, want := range counts {
		if got := postJSON(t, url2, body).Count; got != want {
			t.Fatalf("after restart, %s returned %d, want %d", body, got, want)
		}
	}
	// A query into the sentinel range merges the restored pending
	// inserts on their owning shards.
	if qr := postJSON(t, url2, `{"op":"select","table":"orders","column":"c0","low":90000,"high":90100,"path":"cracking"}`); qr.Count != 4 {
		t.Fatalf("sentinel query returned %d rows, want 4", qr.Count)
	}
	if merged := getStats(t, url2); merged.WriteState.PendingInserts != 0 {
		t.Fatalf("sentinel query left pending inserts: %+v", merged.WriteState)
	}

	// Shut down again (rewrites the snapshot), then try the wrong shard
	// count: the boot must fail fast, telling the operator which count
	// the snapshot was written at.
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second shutdown returned %v\noutput:\n%s", err, out2)
	}
	wrong := cfg
	wrong.shards = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	bootErr := serve(ctx, wrong, ln, &bytes.Buffer{})
	if bootErr == nil || !strings.Contains(bootErr.Error(), "-shards 3") {
		t.Fatalf("booting a 3-shard snapshot with -shards 2 must fail naming -shards 3, got: %v", bootErr)
	}
}

// TestBootGate pins the readiness contract: until the engine is ready,
// /healthz answers 503 with {"ok":true,"ready":false} (booting, not
// dead) and the data plane answers 503 error envelopes — so health
// probes and kill/restart orchestration never race the boot.
func TestBootGate(t *testing.T) {
	h := bootGate()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting /healthz status %d, want 503", rr.Code)
	}
	var hb api.Health
	if err := json.NewDecoder(rr.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || hb.Ready {
		t.Fatalf("booting /healthz body %+v, want ok=true ready=false", hb)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{}`)))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting /query status %d, want 503", rr.Code)
	}
	var eb api.ErrorResponse
	if err := json.NewDecoder(rr.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("booting /query body not an error envelope: %v %+v", err, eb)
	}
}

// TestStripeFlag validates -stripe parsing.
func TestStripeFlag(t *testing.T) {
	cfg, err := parseFlags([]string{"-stripe", "1/2", "-n", "1000"})
	if err != nil || cfg.stripeIdx != 1 || cfg.stripeOf != 2 {
		t.Fatalf("1/2 parsed to %d/%d, err %v", cfg.stripeIdx, cfg.stripeOf, err)
	}
	if cfg, err = parseFlags([]string{"-n", "1000"}); err != nil || cfg.stripeOf != 1 {
		t.Fatalf("default stripeOf %d, err %v", cfg.stripeOf, err)
	}
	for _, bad := range []string{"2/2", "-1/2", "0/0", "x", "1-2"} {
		if _, err := parseFlags([]string{"-stripe", bad}); err == nil {
			t.Fatalf("-stripe %q accepted", bad)
		}
	}
}

// TestStripedPairServes boots two daemons over complementary stripes of
// one catalog and checks each serves its half: the row populations are
// the ceil/floor split and their per-stripe counts sum to the whole.
func TestStripedPairServes(t *testing.T) {
	base := config{
		tables:      "data:10001:2",
		seed:        3,
		shards:      1,
		path:        "auto",
		batchWindow: 0,
		batchMax:    64,
		inFlight:    128,
		drainWait:   2 * time.Second,
		events:      16,
	}
	n0, n1 := base, base
	n0.stripeIdx, n0.stripeOf = 0, 2
	n1.stripeIdx, n1.stripeOf = 1, 2
	url0, cancel0, done0, _ := startServe(t, n0)
	defer func() { cancel0(); <-done0 }()
	url1, cancel1, done1, _ := startServe(t, n1)
	defer func() { cancel1(); <-done1 }()

	st0, st1 := getStats(t, url0), getStats(t, url1)
	if st0.Tables[0].Rows != 5001 || st1.Tables[0].Rows != 5000 {
		t.Fatalf("stripe rows %d + %d, want 5001 + 5000", st0.Tables[0].Rows, st1.Tables[0].Rows)
	}
	// Each stripe holds a slice of every value range; the two counts
	// must sum to what one daemon over the whole catalog reports.
	whole := base
	urlW, cancelW, doneW, _ := startServe(t, whole)
	defer func() { cancelW(); <-doneW }()
	q := `{"op":"count","low":100,"high":4000}`
	c0 := postJSON(t, url0, q).Count
	c1 := postJSON(t, url1, q).Count
	cw := postJSON(t, urlW, q).Count
	if c0+c1 != cw {
		t.Fatalf("stripe counts %d + %d != whole %d", c0, c1, cw)
	}
	if c0 == 0 || c1 == 0 {
		t.Fatalf("a stripe answered empty (%d, %d): not a value-range slice", c0, c1)
	}
}
