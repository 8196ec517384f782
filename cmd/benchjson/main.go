// Command benchjson is the CI benchmark-regression gate. It runs a
// pinned subset of the repository's performance surface and scores it
// on the cost model's deterministic logical-work counters — values
// touched, tuples copied, merge work — rather than wall time, so the
// numbers are identical on every machine and a regression is a code
// change, never a noisy runner. The result is a flat JSON metrics
// file; given a committed baseline, the tool fails (exit 1) when any
// tracked counter regresses by more than the threshold.
//
//	benchjson -out BENCH_PR5.json
//	benchjson -out BENCH_PR5.json -baseline BENCH_BASELINE.json -threshold 0.15
//
// The tracked metrics cover the hot paths the experiments make claims
// about: selection cracking, sideways cracking, the PathAuto planner
// on a drifting select-project workload, the write path under every
// merge policy (E16's mixed read/write stream), the bytes the two
// wire encodings put on the wire for identical select-project results,
// and the scatter-gather shard cluster's summed work at 1, 2 and 4
// shards (per-shard counters are deterministic, so their sum is
// too — and the one-shard total is asserted equal to the bare
// engine's), the epoch read path at readers=1, asserted
// byte-identical to the bare cracking engine (the contract under which
// the epoch machinery stays disengaged), and the crackrouter front over
// a single backend, also asserted byte-identical to the bare engine
// (the N=1 routing identity). The run configuration is
// pinned inside the tool and recorded in the JSON; comparing files
// with different configurations is an error, not a pass. Wall-clock
// measurements live in benchmark/, never here.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/experiments"
	"adaptiveindex/internal/router"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
	"adaptiveindex/internal/workload"
)

// pinnedConfig is the benchmark scale. It is deliberately not a flag:
// every emitted file is comparable with every other, and the gate can
// never be dodged by running smaller.
var pinnedConfig = experiments.Config{
	N:           100_000,
	Queries:     400,
	Domain:      100_000,
	Selectivity: 0.01,
	Seed:        42,
}

// fileFormat guards against comparing files written by an
// incompatible metric set.
const fileFormat = 1

// Report is the on-disk JSON shape. Every metric is deterministic and
// gated.
type Report struct {
	Format  int                `json:"format"`
	Config  experiments.Config `json:"config"`
	Metrics map[string]uint64  `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the metrics JSON to this file")
	baseline := fs.String("baseline", "", "compare against this baseline file and fail on regression")
	threshold := fs.Float64("threshold", 0.15, "allowed relative regression per metric")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold must be >= 0")
	}

	report := Report{Format: fileFormat, Config: pinnedConfig, Metrics: collect(pinnedConfig)}

	names := make([]string, 0, len(report.Metrics))
	for name := range report.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-40s %d\n", name, report.Metrics[name])
	}

	if *outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	if *baseline == "" {
		return nil
	}
	base, err := load(*baseline)
	if err != nil {
		return err
	}
	return compare(out, base, report, *threshold)
}

// collect runs the pinned benchmark subset and extracts the tracked
// counters. Every counter is seeded and scored on logical work, so
// repeated runs emit byte-identical metrics.
func collect(cfg experiments.Config) map[string]uint64 {
	m := make(map[string]uint64)

	// Static access paths on the uniform read-only workload.
	queries := workload.Queries(
		workload.NewUniform(cfg.Seed+1, 0, column.Value(cfg.Domain), cfg.Selectivity), cfg.Queries)
	for _, path := range []engine.AccessPath{engine.PathScan, engine.PathCracking, engine.PathSideways} {
		eng := benchEngine(cfg)
		project := []string{"c1"}
		if path == engine.PathScan {
			project = nil // scan totals are dominated by the scan itself
		}
		for _, r := range queries {
			if _, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: project, Path: path}); err != nil {
				panic(err)
			}
		}
		c := eng.Cost()
		m[path.String()+"_total_work"] = c.Total()
		m[path.String()+"_recurring"] = c.Recurring()
	}

	// The PathAuto planner on the drifting select-project workload
	// (E15's shape): total work includes the explore probes, so a
	// planner regression — extra re-explores, a worse choice — shows
	// up directly.
	shiftEvery := cfg.Queries / 10
	if shiftEvery < 1 {
		shiftEvery = 1
	}
	drift := workload.Queries(
		workload.NewDriftingHotSet(cfg.Seed+15, 0, column.Value(cfg.Domain), cfg.Selectivity, 0.1, 16, 1.3, shiftEvery),
		cfg.Queries)
	eng := benchEngine(cfg)
	for _, r := range drift {
		if _, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathAuto}); err != nil {
			panic(err)
		}
	}
	m["planner_auto_total_work"] = eng.Cost().Total()

	// The write path: E16's mixed read/write stream per merge policy.
	outcomes, identical := experiments.RunE16(cfg)
	if !identical {
		panic("benchjson: merge policies disagreed on read results")
	}
	for _, o := range outcomes {
		m["updates_"+o.Policy+"_total_work"] = o.Total
		m["updates_"+o.Policy+"_recurring"] = o.Recurring
	}

	// Tracing must be free on the deterministic counters: replay the
	// cracking stream with a span recorder and event log attached and
	// gate the absolute difference in logical work against the bare
	// stream. The committed baseline is 0 and compare() fails any
	// positive value against a zero baseline, so a tracing hook that
	// perturbs the engine's work by even one counter tick fails CI.
	bare := benchEngine(cfg)
	for _, r := range queries {
		if _, err := bare.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathCracking}); err != nil {
			panic(err)
		}
	}
	traced := benchEngine(cfg)
	traced.SetEventLog(trace.NewLog(256))
	for _, r := range queries {
		rec := trace.NewRecorder()
		if _, err := traced.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathCracking, Trace: rec}); err != nil {
			panic(err)
		}
		rec.Finish()
	}
	b, tr := bare.Cost().Total(), traced.Cost().Total()
	diff := b - tr
	if tr > b {
		diff = tr - b
	}
	m["trace_overhead_work"] = diff

	// Bytes on the wire: identical select-project results encoded as
	// JSON and as the binary columnar format. Gating both totals pins the
	// size win: a codec change that bloats the binary encoding past the
	// threshold fails CI.
	m["wire_selectproject_json_bytes"], m["wire_selectproject_binary_bytes"] = wireBytes(cfg)

	// Scatter-gather sharding: the same cracking stream through a
	// row-striped cluster at 1, 2 and 4 shards. Per-shard counters are
	// deterministic and their sum is scheduling-independent, so the
	// totals gate cleanly. A one-shard cluster must be the identity —
	// its total matching the bare cracking engine's is asserted here,
	// not merely gated.
	for _, shards := range []int{1, 2, 4} {
		cl, err := shard.New(benchCatalog(cfg), shards, core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		for _, r := range queries {
			if _, err := cl.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathCracking}); err != nil {
				panic(err)
			}
		}
		m[fmt.Sprintf("sharded_%d_total_work", shards)] = cl.Cost().Total()
	}
	if m["sharded_1_total_work"] != m["cracking_total_work"] {
		panic(fmt.Sprintf("benchjson: one-shard cluster work %d diverges from the bare engine's %d",
			m["sharded_1_total_work"], m["cracking_total_work"]))
	}

	// Epoch-pinned reads: the same cracking stream through the service
	// at Readers=1 must leave the deterministic counters byte-identical
	// to the bare engine's — readers<=1 is the contract under which the
	// epoch machinery stays fully disengaged. The equality is asserted
	// here, not merely gated.
	m["epoch_read_total_work"] = epochReplay(cfg, queries)
	if m["epoch_read_total_work"] != m["cracking_total_work"] {
		panic(fmt.Sprintf("benchjson: readers=1 service work %d diverges from the bare engine's %d",
			m["epoch_read_total_work"], m["cracking_total_work"]))
	}

	// Multi-node routing: the same cracking stream through crackrouter
	// over a single in-process backend. A one-node router is the
	// identity — global ids, merge and counters untouched — so its work
	// total must be byte-identical to the bare cracking engine's. The
	// equality is asserted here, not merely gated: any routing-layer
	// change that perturbs what the backend executes fails CI.
	m["routed_1_total_work"] = routedReplay(cfg, queries)
	if m["routed_1_total_work"] != m["cracking_total_work"] {
		panic(fmt.Sprintf("benchjson: one-node router work %d diverges from the bare engine's %d",
			m["routed_1_total_work"], m["cracking_total_work"]))
	}
	return m
}

// routedReplay drives the pinned cracking stream through a Router over
// one in-process backend service and returns the cluster's summed work
// total as the router's merged /stats reports it.
func routedReplay(cfg experiments.Config, queries []column.Range) uint64 {
	svc, err := server.NewService(server.Config{
		Engine:       benchEngine(cfg),
		DefaultTable: "data",
		DefaultPath:  "cracking",
	})
	if err != nil {
		panic(err)
	}
	defer svc.Close()
	backend := httptest.NewServer(svc.Handler())
	defer backend.Close()
	rt, err := router.New(router.Config{Nodes: []string{backend.URL}})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	client := api.NewClient(front.URL, api.ClientOptions{})
	ctx := context.Background()
	for _, r := range queries {
		q := api.QueryRequest{Op: "select", Table: "data", Column: "c0", Project: []string{"c1"}}
		if r.HasLow {
			lo := r.Low
			q.Low = &lo
			if !r.IncLow {
				f := false
				q.IncLow = &f
			}
		}
		if r.HasHigh {
			hi := r.High
			q.High = &hi
			if r.IncHigh {
				tr := true
				q.IncHigh = &tr
			}
		}
		if _, err := client.Query(ctx, q); err != nil {
			panic(err)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		panic(err)
	}
	return st.WorkTotal
}

// epochReplay drives the pinned cracking stream through a direct-mode
// service at Readers=1 and returns the engine's deterministic work
// total.
func epochReplay(cfg experiments.Config, queries []column.Range) uint64 {
	svc, err := server.NewService(server.Config{
		Engine:       benchEngine(cfg),
		DefaultTable: "data",
		DefaultPath:  "cracking",
		Readers:      1,
	})
	if err != nil {
		panic(err)
	}
	for _, r := range queries {
		reply, err := svc.SelectQuery(server.Query{R: r, Project: []string{"c1"}})
		if err != nil {
			panic(err)
		}
		if reply.Done != nil {
			reply.Done()
		}
	}
	svc.Close()
	return svc.Stats().WorkTotal
}

// wireBytes replays a pinned select-project stream on a fresh engine
// and returns the total response-body bytes the JSON and the binary
// columnar encodings put on the wire for identical results. Both sides
// encode the same engine results with a pinned latency field, so the
// totals are deterministic given cfg.
func wireBytes(cfg experiments.Config) (jsonBytes, binaryBytes uint64) {
	eng := benchEngine(cfg)
	queries := workload.Queries(
		workload.NewUniform(cfg.Seed+17, 0, column.Value(cfg.Domain), cfg.Selectivity), cfg.Queries)
	for _, r := range queries {
		res, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: []string{"c1"}, Path: engine.PathCracking})
		if err != nil {
			panic(err)
		}
		jb, err := json.Marshal(api.QueryResponse{
			Count:   res.Count,
			Rows:    res.Rows,
			Columns: res.Columns,
			Path:    res.Path.String(),
		})
		if err != nil {
			panic(err)
		}
		// +1 for the newline json.Encoder appends on the real wire.
		jsonBytes += uint64(len(jb)) + 1
		var buf bytes.Buffer
		h := wire.Header{Count: res.Count, Path: res.Path.String(), Columns: []string{"c1"}}
		if err := wire.Encode(&buf, h, res.Rows, [][]column.Value{res.Columns["c1"]}, 0, 0); err != nil {
			panic(err)
		}
		binaryBytes += uint64(buf.Len())
	}
	return jsonBytes, binaryBytes
}

// benchCatalog builds the same two-column catalog as benchEngine, for
// hosts that stripe it themselves.
func benchCatalog(cfg experiments.Config) *engine.Catalog {
	tab := engine.NewTable("data")
	for ci, seedOff := range []int64{0, 1} {
		if err := tab.AddColumn(fmt.Sprintf("c%d", ci), workload.DataUniform(cfg.Seed+seedOff, cfg.N, cfg.Domain)); err != nil {
			panic(err)
		}
	}
	cat := engine.NewCatalog()
	if err := cat.Register(tab); err != nil {
		panic(err)
	}
	return cat
}

// benchEngine builds the two-column single-table engine the read
// benchmarks run against.
func benchEngine(cfg experiments.Config) *engine.Engine {
	return engine.New(benchCatalog(cfg), core.DefaultOptions())
}

func load(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare fails when any baseline metric regressed beyond the
// threshold or disappeared; new metrics in the current run are
// reported but never fail the gate (they get a baseline when it is
// next refreshed).
func compare(out io.Writer, base, cur Report, threshold float64) error {
	if base.Format != cur.Format {
		return fmt.Errorf("baseline format %d, current %d — refresh the baseline", base.Format, cur.Format)
	}
	if base.Config != cur.Config {
		return fmt.Errorf("baseline config %+v does not match pinned config %+v — refresh the baseline", base.Config, cur.Config)
	}
	names := make([]string, 0, len(base.Metrics))
	for name := range base.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions []string
	for _, name := range names {
		baseVal := base.Metrics[name]
		curVal, ok := cur.Metrics[name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: metric disappeared (baseline %d)", name, baseVal))
			continue
		}
		ratio := float64(curVal) / float64(max(baseVal, 1))
		switch {
		case float64(curVal) > float64(baseVal)*(1+threshold):
			regressions = append(regressions, fmt.Sprintf("%s: %d -> %d (%.1f%% > %.0f%% allowed)",
				name, baseVal, curVal, (ratio-1)*100, threshold*100))
		case curVal != baseVal:
			fmt.Fprintf(out, "%s: %d -> %d (%.1f%%, within threshold)\n", name, baseVal, curVal, (ratio-1)*100)
		}
	}
	for name := range cur.Metrics {
		if _, ok := base.Metrics[name]; !ok {
			fmt.Fprintf(out, "%s: new metric (%d), not gated\n", name, cur.Metrics[name])
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(out, "REGRESSION", r)
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.0f%%", len(regressions), threshold*100)
	}
	fmt.Fprintln(out, "benchmark gate passed")
	return nil
}
