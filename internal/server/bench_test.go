package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/workload"
)

// BenchmarkDispatch compares shared-scan batching against per-query
// dispatch over the same hosted engine, driven by 8 closed-loop
// sessions replaying a shared hot-set workload (the overlapping shape
// interactive exploration produces). Reported ns/op is per query.
//
//	go test ./internal/server -bench Dispatch -benchtime 10000x
func BenchmarkDispatch(b *testing.B) {
	const n = 500_000
	const sessions = 8

	for _, mode := range []struct {
		name   string
		window time.Duration
	}{
		{"direct", 0},
		{"batched-500us", 500 * time.Microsecond},
	} {
		b.Run(fmt.Sprintf("%s/sessions=%d", mode.name, sessions), func(b *testing.B) {
			eng, _ := testEngine(b, n)
			svc := newTestService(b, eng, mode.window, "cracking")

			gens, err := workload.SessionGenerators("hotset", 3, sessions, 0, n, 0.02)
			if err != nil {
				b.Fatal(err)
			}
			streams := make([][]column.Range, sessions)
			per := (b.N + sessions - 1) / sessions
			for g := range streams {
				streams[g] = workload.Queries(gens[g], per)
			}

			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(stream []column.Range) {
					defer wg.Done()
					for _, r := range stream {
						if _, err := svc.Select(r); err != nil {
							b.Error(err)
							return
						}
					}
				}(streams[g])
			}
			wg.Wait()
			b.StopTimer()
			st := svc.Stats()
			b.ReportMetric(float64(st.SharedScans)/float64(st.Queries), "shared-frac")
		})
	}
}

// BenchmarkAutoVsStaticPath measures the served cost of PathAuto
// against the static paths on a select-project hot-set workload — the
// price of letting the planner decide.
func BenchmarkAutoVsStaticPath(b *testing.B) {
	const n = 200_000
	for _, path := range []string{"scan", "cracking", "sideways", "auto"} {
		b.Run(path, func(b *testing.B) {
			eng, _ := testEngine(b, n)
			svc := newTestService(b, eng, 0, path)
			queries := workload.Queries(workload.NewHotSet(5, 0, n, 0.01, 32, 1.3), b.N)
			b.ResetTimer()
			for _, r := range queries {
				if _, err := svc.SelectQuery(Query{R: r, Project: []string{"c1"}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
