package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Pinned sizing shared by every workload. The values mirror the daemon
// defaults (access path auto, merge policy gradual, binary wire protocol
// with 4096-row blocks) except BatchWindow, which is pinned to 0: at two
// sessions there is nothing to coalesce and the fixed 500µs timer would
// hide every other layer; its cost is the ladder's server.batched_us.
const (
	tableName = "data"
	tableCols = 3
	selCol    = "c0"
	projCol   = "c1"

	countFrac  = 0.01   // a count covers 1% of the domain
	selectFrac = 0.0005 // a select+project covers 0.05% (~N/2000 rows)

	wireProto = "binary"
	wireBlock = 4096

	servedSessions = 2  // never more than nproc on the 2-core reference box
	timeSlices     = 5  // percentiles are taken per slice, medians across
	writeBatch     = 8  // rows per /update op
	writeEvery     = 5  // every fifth op of mixed_served is a write (20%)
	deleteEvery    = 4  // every fourth write deletes an earlier insert batch
	coldStreams    = 32 // cold_embedded pre-generates reads for this many fresh engines; more wrap around
)

// scale sizes one run. "full" is what BENCHMARK.json measures; "tiny" is
// the smoke test's.
type scale struct {
	Name string
	// Rows is N: the table holds Rows rows of tableCols uniform columns
	// over the domain [0, Rows).
	Rows int
	// WarmReads is how many reads of the workload's own stream are
	// applied to each engine before the serving layers are stood up.
	WarmReads int
	// Setups is how often the whole stack is stood up per run; setup_s,
	// first_query_ms and converge_1k_s are medians over them and the
	// last one is measured.
	Setups int
	// ColdQueries is the length of one cold_embedded repetition and the
	// prefix converge_1k_s covers; ColdMinReps is the fewest fresh
	// engines a cold run measures.
	ColdQueries int
	ColdMinReps int
	// EmbeddedOpsPerSec and ServedOpsPerSec size the pre-generated op
	// pools (per caller); a pool that runs out wraps around.
	EmbeddedOpsPerSec int
	ServedOpsPerSec   int
	// BytesPrefix is how many leading reads of each session
	// wire_bytes_per_read averages over, so that it repeats to the byte
	// for one seed however many reads the timed section completes.
	BytesPrefix int
	// PostReads is how many reads are checked against the model table
	// after mixed_served stops writing.
	PostReads int
	// LadderOps is the length of the ladder's pinned stream; every rung
	// replays at least its first LadderIdentityOps ops and then goes on
	// until the stream or LadderBudget runs out.
	LadderOps         int
	LadderIdentityOps int
	LadderBudget      time.Duration
	// MicroWrites is how many ripple/engine writes the write kernels time.
	MicroWrites int
}

var scales = map[string]scale{
	"full": {
		Name: "full", Rows: 4_000_000, WarmReads: 10_000, Setups: 4,
		ColdQueries: 1000, ColdMinReps: 3,
		EmbeddedOpsPerSec: 100_000, ServedOpsPerSec: 20_000,
		BytesPrefix: 500, PostReads: 1000,
		LadderOps: 20_000, LadderIdentityOps: 300, LadderBudget: 1500 * time.Millisecond,
		MicroWrites: 200,
	},
	"tiny": {
		Name: "tiny", Rows: 20_000, WarmReads: 300, Setups: 1,
		ColdQueries: 100, ColdMinReps: 2,
		EmbeddedOpsPerSec: 20_000, ServedOpsPerSec: 5000,
		BytesPrefix: 50, PostReads: 50,
		LadderOps: 200, LadderIdentityOps: 30, LadderBudget: 20 * time.Millisecond,
		MicroWrites: 40,
	},
}

// Workload names are final: later issues name their claims by them.
const (
	wlColdEmbedded = "cold_embedded"
	wlHotEmbedded  = "hot_embedded"
	wlHotServed    = "hot_served"
	wlMixedServed  = "mixed_served"
	wlHotRouted    = "hot_routed"
)

var workloadNames = []string{wlColdEmbedded, wlHotEmbedded, wlHotServed, wlMixedServed, wlHotRouted}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contractFile is BENCHMARK.json at the checkout's root (run.sh's working
// directory): the one registry of metric names, units, directions and
// bounds, and of the length of the timed section. What each metric is and
// why it has its bound is in README.md.
const contractFile = "BENCHMARK.json"

// endToEnd is what a user of the system sees, measured with tracing off;
// perLayer is the ungated ladder, <module>.<metric>, measured from outside
// around the module's public functions. Both are filled by loadContract, in
// the file's order.
var (
	endToEnd, perLayer []metricDef
	runSeconds         int
	unitOf             map[string]string
)

// loadContract reads the registry and checks that the file names exactly
// the workloads this harness implements.
func loadContract(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		return fmt.Errorf("%s names workloads %v, the harness implements %v", path, names, workloadNames)
	}
	endToEnd, perLayer, runSeconds = c.EndToEnd, c.PerLayer, c.RunSeconds
	unitOf = make(map[string]string, len(endToEnd)+len(perLayer))
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			unitOf[d.Name] = d.Unit
		}
	}
	return nil
}

// metric is one measured value as printed and as written to the result
// line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; set looks the unit up in the
// registry so a metric can never be emitted under the wrong one.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	m[name] = metric{Value: v, Unit: unit}
}
