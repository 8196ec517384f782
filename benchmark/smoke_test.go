package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// The registry every test uses is the one the driver reads.
func TestMain(m *testing.M) {
	if err := loadContract(filepath.Join("..", contractFile)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// BENCHMARK.json stays inside what the driver accepts and the issue
// pins: bounds in (0, 0.25], a setup_s metric, a timed section of at
// least 10 s, every name used once.
func TestContract(t *testing.T) {
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(unitOf) != len(endToEnd)+len(perLayer) {
		t.Errorf("%d metrics, %d distinct names", len(endToEnd)+len(perLayer), len(unitOf))
	}
	if runSeconds < 10 {
		t.Errorf("run_seconds %d: the timed section is never cut below 10 s", runSeconds)
	}
}

// TestSmoke runs all five workloads, traced, at the tiny scale — which
// covers the untraced section, the traced section, the ladder and every
// other per-layer measurement — and asserts only what holds on any
// machine: every metric BENCHMARK.json names is emitted with its unit,
// no answer failed, the rung identities hold (a broken one fails the
// run), and nothing the workload started is still running afterwards.
// No wall-clock value is asserted.
func TestSmoke(t *testing.T) {
	spanDir := t.TempDir()
	before := runtime.NumGoroutine()
	for _, w := range workloadNames {
		res, err := run(runOptions{workload: w, sc: scales["tiny"], seed: 7,
			dur: 120 * time.Millisecond, traced: true, spanDir: spanDir})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d answers failed", w, res.Correct, res.Failed, res.Attempted)
		}
		if ratio := res.PerLayer["harness.failed_ratio"]; ratio.Value != 0 {
			t.Errorf("%s: failed_ratio %g", w, ratio.Value)
		}
		for kind, want := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
			got := res.EndToEnd
			if kind == "per_layer" {
				got = res.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", w, len(got), kind, len(want))
			}
			for _, d := range want {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s not emitted", w, kind, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", w, d.Name, m.Unit, d.Unit)
				case m.Value != m.Value:
					t.Errorf("%s: %s is NaN", w, d.Name)
				case kind == "end_to_end" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w, d.Name, m.Value)
				}
			}
		}
		// The span file holds one JSON span per line; on a workload with
		// a serving stack every span found its op.
		f, err := os.Open(res.SpanFile)
		if err != nil {
			t.Fatalf("%s: span file: %v", w, err)
		}
		lines, unresolved := 0, 0
		for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span line %d: %v", w, lines, err)
			}
			if s.Op < 0 || s.End < s.Start {
				unresolved++
			}
		}
		f.Close()
		if lines == 0 || unresolved > 0 {
			t.Errorf("%s: %d spans written, %d unresolved or open", w, lines, unresolved)
		}
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines outlived the workloads", now-before)
	}
}

// The untraced run is what the driver gates on: it reports the
// end-to-end metrics and nothing else, and the result line carries
// exactly the four keys of the contract.
func TestUntracedRunAndResultLine(t *testing.T) {
	res, err := run(runOptions{workload: wlMixedServed, sc: scales["tiny"], seed: 11, dur: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLayer) != 0 || len(res.EndToEnd) != len(endToEnd) || !res.Correct {
		t.Errorf("untraced run: %d per-layer, %d end-to-end metrics, correct=%v", len(res.PerLayer), len(res.EndToEnd), res.Correct)
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line keys: %s", line)
	}
}
