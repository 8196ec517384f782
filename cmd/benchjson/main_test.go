package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"adaptiveindex/internal/experiments"
)

func TestCompareGate(t *testing.T) {
	base := Report{Format: fileFormat, Config: pinnedConfig, Metrics: map[string]uint64{
		"a_total": 1000,
		"b_total": 500,
	}}

	cases := []struct {
		name    string
		metrics map[string]uint64
		wantErr string
	}{
		{"identical", map[string]uint64{"a_total": 1000, "b_total": 500}, ""},
		{"within threshold", map[string]uint64{"a_total": 1100, "b_total": 510}, ""},
		{"improvement", map[string]uint64{"a_total": 400, "b_total": 500}, ""},
		{"regression", map[string]uint64{"a_total": 1200, "b_total": 500}, "regressed"},
		{"metric disappeared", map[string]uint64{"a_total": 1000}, "regressed"},
		{"new metric passes", map[string]uint64{"a_total": 1000, "b_total": 500, "c_total": 9}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := compare(&out, base, Report{Format: fileFormat, Config: pinnedConfig, Metrics: tc.metrics}, 0.15)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v\n%s", err, out.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}

	// Mismatched config must refuse to compare rather than pass.
	other := pinnedConfig
	other.N++
	var out bytes.Buffer
	if err := compare(&out, Report{Format: fileFormat, Config: other, Metrics: base.Metrics},
		Report{Format: fileFormat, Config: pinnedConfig, Metrics: base.Metrics}, 0.15); err == nil ||
		!strings.Contains(err.Error(), "refresh the baseline") {
		t.Fatalf("config mismatch must fail, got %v", err)
	}
}

// TestCommittedBaselineMatchesPinnedConfig guards the gate itself: the
// committed baseline must carry the pinned configuration, or every CI
// run would fail with a confusing mismatch.
func TestCommittedBaselineMatchesPinnedConfig(t *testing.T) {
	base, err := load(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Format != fileFormat {
		t.Fatalf("baseline format %d, tool writes %d", base.Format, fileFormat)
	}
	if base.Config != pinnedConfig {
		t.Fatalf("baseline config %+v, pinned %+v — regenerate BENCH_BASELINE.json", base.Config, pinnedConfig)
	}
	if len(base.Metrics) == 0 {
		t.Fatal("baseline has no metrics")
	}
}

// TestCollectIsDeterministic is the property the whole gate stands on:
// two runs emit identical counters.
func TestCollectIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full collect passes")
	}
	cfg := experiments.Config{N: 20_000, Queries: 100, Domain: 20_000, Selectivity: 0.01, Seed: 7}
	a := collect(cfg)
	b := collect(cfg)
	if len(a) != len(b) {
		t.Fatalf("metric sets differ: %d vs %d", len(a), len(b))
	}
	for name, av := range a {
		if bv, ok := b[name]; !ok || av != bv {
			t.Fatalf("metric %s not deterministic: %d vs %d", name, av, bv)
		}
	}
	if a["wire_selectproject_binary_bytes"] >= a["wire_selectproject_json_bytes"] {
		t.Fatalf("binary bytes (%d) must stay below JSON bytes (%d)",
			a["wire_selectproject_binary_bytes"], a["wire_selectproject_json_bytes"])
	}
}

func TestRunWritesFileAndGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full pinned-scale run")
	}
	dir := t.TempDir()
	outFile := filepath.Join(dir, "cur.json")
	var out bytes.Buffer
	if err := run([]string{"-out", outFile, "-baseline", filepath.Join("..", "..", "BENCH_BASELINE.json")}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "benchmark gate passed") {
		t.Fatalf("missing pass line:\n%s", out.String())
	}
	cur, err := load(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Config != pinnedConfig || len(cur.Metrics) == 0 {
		t.Fatalf("bad emitted report: %+v", cur)
	}
}
