package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/workload"
)

func startBackend(t *testing.T, n int) (*server.Service, *httptest.Server) {
	t.Helper()
	cat, err := server.BuildCatalog([]server.TableSpec{
		{Name: "data", Rows: n, Cols: 3},
		{Name: "aux", Rows: n / 2, Cols: 2},
	}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	built, err := server.BuildEngine(cat, server.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.NewService(server.Config{
		Engine:       built.Engine,
		DefaultTable: "data",
		BatchWindow:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// TestReplayAgainstLiveServer replays a hot-set workload over the wire
// and checks the report and the server-side accounting agree.
func TestReplayAgainstLiveServer(t *testing.T) {
	svc, ts := startBackend(t, 20_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "4",
		"-queries", "30",
		"-workload", "hotset",
		"-domain", "20000",
		"-op", "select",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"total=120", "throughput", "latency p50=", "server: tables=2", "errors 0", "planner: data.c0"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	// +0 stats queries: /stats is not counted as a query.
	if st := svc.Stats(); st.Queries != 120 {
		t.Fatalf("server answered %d queries, want 120", st.Queries)
	}
}

// TestSelectProjectOverTheWire replays the selectproject shape and
// verifies the projection traffic builds sideways-capable state server
// side.
func TestSelectProjectOverTheWire(t *testing.T) {
	svc, ts := startBackend(t, 10_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "3",
		"-queries", "40",
		"-workload", "selectproject",
		"-project", "c1,c2",
		"-domain", "10000",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"workload=selectproject op=select", "total=120", "errors 0"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if st := svc.Stats(); st.Queries != 120 {
		t.Fatalf("server answered %d queries, want 120", st.Queries)
	}
}

// TestMultiTableOverTheWire drives every table the catalog lists.
func TestMultiTableOverTheWire(t *testing.T) {
	svc, ts := startBackend(t, 10_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "2",
		"-queries", "20",
		"-workload", "multitable",
		"-domain", "10000",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "errors 0") {
		t.Fatalf("queries failed:\n%s", out.String())
	}
	// Both tables must have been touched: the engine builds at least one
	// structure (or planner state) per table the sessions hit.
	st := svc.Stats()
	tables := make(map[string]bool)
	for _, plan := range st.Planner {
		tables[plan.Table] = true
	}
	if len(tables) < 2 {
		t.Fatalf("multitable replay reached %d tables, want 2 (planner: %+v)", len(tables), st.Planner)
	}
}

// TestWorkloadShapesOverTheWire exercises every named shape end to end.
func TestWorkloadShapesOverTheWire(t *testing.T) {
	_, ts := startBackend(t, 5_000)
	for _, shape := range workload.Names() {
		var out bytes.Buffer
		err := run([]string{
			"-addr", strings.TrimPrefix(ts.URL, "http://"), // exercise host:port normalisation
			"-sessions", "2",
			"-queries", "5",
			"-workload", shape,
			"-domain", "5000",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", shape, err, out.String())
		}
		if !strings.Contains(out.String(), "errors 0") {
			t.Fatalf("%s: queries failed:\n%s", shape, out.String())
		}
	}
}

// TestMixedWritesOverTheWire replays the mixed shape and verifies the
// write traffic reaches the engine: rows are applied server side, the
// report counts reads and writes separately, and a high write ratio
// leaves the catalog visibly grown.
func TestMixedWritesOverTheWire(t *testing.T) {
	svc, ts := startBackend(t, 10_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "3",
		"-queries", "40",
		"-workload", "updateheavy",
		"-domain", "10000",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"workload=updateheavy", "errors 0", "write latency p50=", "writes: applied"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	st := svc.Stats()
	if st.Writes == 0 {
		t.Fatal("no writes reached the server")
	}
	if st.Queries+st.Writes != 120 {
		t.Fatalf("server saw %d queries + %d writes, want 120 ops", st.Queries, st.Writes)
	}
	if ws := st.WriteState; ws.Inserts == 0 || ws.Inserts <= ws.Deletes {
		t.Fatalf("write state looks wrong: %+v", ws)
	}
	var data api.TableStats
	for _, tab := range st.Tables {
		if tab.Table == "data" {
			data = tab
		}
	}
	if data.Rows <= 10_000 {
		t.Fatalf("inserts did not grow the table: %+v", data)
	}
	if data.LiveRows != 10_000+int(st.WriteState.Inserts-st.WriteState.Deletes) {
		t.Fatalf("live rows %d inconsistent with %+v", data.LiveRows, st.WriteState)
	}
}

// TestBinaryProtocolOverTheWire replays the selectproject shape on the
// binary columnar protocol, streamed in small blocks, and verifies the
// run decodes every response, reports the wire metrics, and reuses its
// keep-alive connections.
func TestBinaryProtocolOverTheWire(t *testing.T) {
	svc, ts := startBackend(t, 10_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "3",
		"-queries", "40",
		"-workload", "selectproject",
		"-project", "c1,c2",
		"-domain", "10000",
		"-proto", "binary",
		"-block", "64",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"errors 0", "read ttfb p50=", "wire: proto=binary block=64", "bytes/query=", "conn-reuse="} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	if st := svc.Stats(); st.Queries != 120 {
		t.Fatalf("server answered %d queries, want 120", st.Queries)
	}
	// 3 sessions × 40 sequential queries over a shared keep-alive pool:
	// nearly every request after the first per connection must be a
	// reuse. Parse the reported percentage and require a healthy rate.
	i := strings.Index(report, "conn-reuse=")
	var rate float64
	if _, err := fmt.Sscanf(report[i:], "conn-reuse=%f%%", &rate); err != nil {
		t.Fatalf("cannot parse reuse rate: %v\n%s", err, report)
	}
	if rate < 80 {
		t.Fatalf("connection reuse rate %.1f%%, want >= 80%% with a shared transport\n%s", rate, report)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-op", "truncate"},
		{"-workload", "tsunami", "-addr", "localhost:1"},
		{"-sessions", "0"},
		{"-workload", "selectproject"}, // needs -project
		{"-workload", "mixed", "-write-ratio", "1.5"},
		{"-proto", "carrier-pigeon"},
		{"-block", "-1"},
		{"-block", "128"}, // -block needs -proto binary
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v must fail", args)
		}
	}
}

func TestUnreachableServer(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:1", "-sessions", "1", "-queries", "2"}, &out)
	if err == nil {
		t.Fatal("unreachable server must fail")
	}
}

// TestTraceSampleAndInterimReports drives the new observability flags:
// every Nth read asks the server for its span tree, the run ends with
// a phase breakdown, and interim lines appear while it runs.
func TestTraceSampleAndInterimReports(t *testing.T) {
	svc, ts := startBackend(t, 20_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "4",
		"-queries", "40",
		"-workload", "hotset",
		"-domain", "20000",
		"-op", "select",
		"-trace-sample", "4",
		"-report-interval", "50ms",
		"-think", "2ms", // stretch the run past a couple of report ticks
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "trace: ") {
		t.Fatalf("no trace phase breakdown in report:\n%s", report)
	}
	// 40 queries per session at every 4th sampled = 10 per session.
	if !strings.Contains(report, "trace: 40 sampled queries") {
		t.Fatalf("wrong sample count in report:\n%s", report)
	}
	for _, phase := range []string{"queue_wait", "crack"} {
		if !strings.Contains(report, phase) {
			t.Fatalf("phase %s missing from breakdown:\n%s", phase, report)
		}
	}
	if !strings.Contains(report, "interim t=") {
		t.Fatalf("no interim report lines:\n%s", report)
	}
	if st := svc.Stats(); st.TracedQueries != 40 {
		t.Fatalf("server saw %d traced queries, want 40", st.TracedQueries)
	}
}

// TestTraceSampleBinaryProto checks the span tree also arrives over
// the binary protocol's trace frame.
func TestTraceSampleBinaryProto(t *testing.T) {
	_, ts := startBackend(t, 20_000)
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-sessions", "2",
		"-queries", "10",
		"-workload", "hotset",
		"-domain", "20000",
		"-op", "select",
		"-proto", "binary",
		"-trace-sample", "5",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "trace: 4 sampled queries") {
		t.Fatalf("binary-proto trace frames not aggregated:\n%s", out.String())
	}
}

func TestObservabilityFlagValidation(t *testing.T) {
	if _, err := parseFlags([]string{"-trace-sample", "-1"}); err == nil {
		t.Fatal("negative -trace-sample must fail")
	}
	if _, err := parseFlags([]string{"-report-interval", "-1s"}); err == nil {
		t.Fatal("negative -report-interval must fail")
	}
}

// TestShardReportAgainstShardedServer: when the server fronts a shard
// cluster, the final report carries the per-shard breakdown its /stats
// exposes.
func TestShardReportAgainstShardedServer(t *testing.T) {
	cat, err := server.BuildCatalog([]server.TableSpec{
		{Name: "data", Rows: 12_000, Cols: 3},
	}, 1, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	built, err := server.BuildExec(cat, server.EngineOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.NewService(server.Config{
		Exec:         built.Exec,
		DefaultTable: "data",
		BatchWindow:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	var out bytes.Buffer
	if err := run([]string{
		"-addr", ts.URL,
		"-sessions", "2",
		"-queries", "20",
		"-workload", "hotset",
		"-domain", "12000",
		"-op", "select",
	}, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"shards: 3 [0: work=", "1: work=", "2: work="} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}
