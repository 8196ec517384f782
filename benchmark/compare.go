package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric of one workload over a set's untraced runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict is one row of the comparison: medians of both sides, how much
// worse b is than a (as a share of a, signed so that positive is worse),
// the spread of the wider side, and the ruling.
type verdict struct {
	a, b, worse, spread float64
	status              string
}

// judge rules on one metric: unresolved when either side's own runs
// spread wider than the bound (the comparison cannot see a change that
// small), worse when b's median is worse than a's by more than the
// bound, ok otherwise.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{a: median(a), b: median(b), spread: max(quartileSpread(a), quartileSpread(b))}
	if v.a != 0 {
		v.worse = (v.b - v.a) / v.a
		if d.Better == "higher" {
			v.worse = -v.worse
		}
	}
	switch {
	case v.spread > d.Bound:
		v.status = "unresolved"
	case v.worse > d.Bound:
		v.status = "worse"
	default:
		v.status = "ok"
	}
	return v
}

// compareSets prints one row per workload × end-to-end metric and fails
// when any row is worse or unresolved, or any run had a wrong answer.
func compareSets(pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-20s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound", "status")
	bad := 0
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			va, vb := a.values(w, d.Name), b.values(w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			if v.status != "ok" {
				bad++
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+8.2f%% %7.2f%% %7.0f%%  %s (base %.4f %s, n=%d/%d)\n",
				w, d.Name, v.a, v.b, 100*v.worse, 100*v.spread, 100*d.Bound, v.status, v.a, d.Unit, len(va), len(vb))
		}
	}
	for _, set := range []*resultSet{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				bad++
				fmt.Printf("%-14s seed %d: %d of %d answers failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, unresolved or incorrect", bad)
	}
	return nil
}
