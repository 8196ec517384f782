// Package experiments defines the reproduction's experiment suite
// E1..E16 (see EXPERIMENTS.md). Every experiment builds its data,
// workload and competing access paths from the other internal
// packages, runs them through the bench harness, and returns a
// structured result plus a formatted text report. The cmd/aibench CLI
// and the repository-level benchmarks both call into this package so
// the experiment definitions exist exactly once. Wall-clock claims
// about the serving stack live in benchmark/, not here.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"adaptiveindex/internal/adaptivemerge"
	"adaptiveindex/internal/baseline"
	"adaptiveindex/internal/bench"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/concurrent"
	"adaptiveindex/internal/core"
	"adaptiveindex/internal/cost"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/hybrid"
	"adaptiveindex/internal/index"
	"adaptiveindex/internal/partition"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/updates"
	"adaptiveindex/internal/workload"
)

// Config scales an experiment run. The defaults keep every experiment
// in the low seconds on a laptop; the CLI exposes flags to run at the
// paper's original scale (tens of millions of tuples).
type Config struct {
	// N is the column size (number of tuples).
	N int
	// Queries is the length of the query sequence.
	Queries int
	// Domain is the value domain [0, Domain).
	Domain int
	// Selectivity is the fraction of the domain covered by each range
	// query.
	Selectivity float64
	// Seed drives all data and workload generation.
	Seed int64
}

// DefaultConfig returns the configuration used by `go test -bench` and
// by the CLI when no flags are given.
func DefaultConfig() Config {
	return Config{N: 1_000_000, Queries: 1000, Domain: 1_000_000, Selectivity: 0.01, Seed: 42}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.N <= 0 {
		c.N = d.N
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.Domain <= 0 {
		c.Domain = c.N
	}
	if c.Selectivity <= 0 {
		c.Selectivity = d.Selectivity
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Result is the outcome of one experiment.
type Result struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title describes the experiment.
	Title string
	// Summaries holds one comparison row per access path (or per
	// configuration, for sweeps).
	Summaries []bench.Summary
	// Text is the formatted report the CLI prints.
	Text string
}

// Definition couples an experiment with its metadata.
type Definition struct {
	ID    string
	Title string
	Run   func(Config) Result
}

// All returns every experiment definition in suite order.
func All() []Definition {
	return []Definition{
		{"E1", "Per-query response: scan vs full index vs cracking", E1PerQueryCurve},
		{"E2", "Cumulative cost and break-even vs full index (TPCTC metric 2)", E2Convergence},
		{"E3", "First-query initialization cost across strategies (TPCTC metric 1)", E3FirstQuery},
		{"E4", "Cracking vs adaptive merging vs hybrids", E4Hybrids},
		{"E5", "Cracking under updates: merge policies", E5Updates},
		{"E6", "Sideways cracking vs late tuple reconstruction", E6Sideways},
		{"E7", "Workload skew and shifting focus", E7Skew},
		{"E8", "Offline vs online vs soft vs adaptive under workload change", E8OnlineOffline},
		{"E9", "Selectivity sweep", E9Selectivity},
		{"E10", "Data-size scaling", E10Scaling},
		{"E11", "Crack strategy ablation", E11Ablation},
		{"E12", "Adaptive merging I/O model: page touches", E12MergeIO},
		{"E13", "Partitioned parallel cracking: sharded vs global latch", E13Parallel},
		{"E14", "Query service: throughput/latency vs batch window and sessions", E14Server},
		{"E15", "Access-path planner vs static paths on a drifting workload", E15Planner},
		{"E16", "Merge policies under a drifting mixed read/write workload", E16UpdatePolicies},
	}
}

// Lookup returns the definition for the given experiment id.
func Lookup(id string) (Definition, bool) {
	for _, d := range All() {
		if strings.EqualFold(d.ID, id) {
			return d, true
		}
	}
	return Definition{}, false
}

// uniformQueries builds the standard uniform random-range workload.
func uniformQueries(cfg Config) []column.Range {
	return workload.Queries(workload.NewUniform(cfg.Seed+1, 0, column.Value(cfg.Domain), cfg.Selectivity), cfg.Queries)
}

func data(cfg Config) []column.Value {
	return workload.DataUniform(cfg.Seed, cfg.N, cfg.Domain)
}

// standardPaths builds the canonical competitors over a fresh copy of
// the configuration's data set.
func standardPaths(cfg Config, vals []column.Value) map[string]bench.Index {
	return map[string]bench.Index{
		"scan":           baseline.NewFullScan(vals),
		"fullsort":       baseline.NewFullSortIndex(vals, false),
		"fullsort-eager": index.Rename(baseline.NewFullSortIndex(vals, true), "fullsort-eager"),
		"online":         baseline.NewOnlineIndex(vals, 10),
		"softindex":      baseline.NewSoftIndex(vals, 10),
		"cracking":       core.NewCrackerColumn(vals, core.DefaultOptions()),
		"cracking-stochastic": index.Rename(core.NewCrackerColumn(vals, core.Options{
			CrackInThree: true, RandomPivotThreshold: 1 << 14,
		}), "cracking-stochastic"),
		// Partition count pinned so logical-work numbers stay
		// machine-independent (the default tracks GOMAXPROCS).
		"cracking-parallel":  partition.New(vals, partition.Options{Partitions: 4, Core: core.DefaultOptions()}),
		"adaptivemerge":      adaptivemerge.New(vals, adaptivemerge.DefaultOptions()),
		"hybrid-crack-crack": hybrid.NewHCC(vals, 1<<16),
		"hybrid-crack-sort":  hybrid.NewHCS(vals, 1<<16),
		"hybrid-sort-sort":   hybrid.NewHSS(vals, 1<<16),
		"hybrid-radix-sort":  hybrid.NewHRS(vals, 1<<16),
	}
}

// convergenceThreshold derives the "no further adaptation overhead"
// level from a converged full index run.
func convergenceThreshold(full bench.Series) uint64 {
	t := full.TailAverage(50) * 2
	if t == 0 {
		t = 1
	}
	return t
}

// E1PerQueryCurve reproduces the canonical cracking figure: per-query
// cost of scan, full-sort index and cracking over a uniform workload.
func E1PerQueryCurve(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	queries := uniformQueries(cfg)

	crack := bench.RunNamed(core.NewCrackerColumn(vals, core.DefaultOptions()), "uniform", queries)
	scan := bench.RunNamed(baseline.NewFullScan(vals), "uniform", queries)
	full := bench.RunNamed(baseline.NewFullSortIndex(vals, false), "uniform", queries)

	threshold := convergenceThreshold(full)
	rows := []bench.Summary{
		scan.Summarize(threshold),
		full.Summarize(threshold),
		crack.Summarize(threshold),
	}
	var b strings.Builder
	b.WriteString(bench.FormatTable("E1: per-query response time (work units)", rows))
	b.WriteString("\n")
	b.WriteString(bench.FormatCurve(crack, 40))
	b.WriteString(bench.FormatCurve(scan, 10))
	b.WriteString(bench.FormatCurve(full, 10))
	return Result{ID: "E1", Title: "Per-query response: scan vs full index vs cracking", Summaries: rows, Text: b.String()}
}

// E2Convergence reproduces the cumulative-cost and break-even analysis
// of the adaptive indexing benchmark.
func E2Convergence(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	queries := uniformQueries(cfg)

	crack := bench.RunNamed(core.NewCrackerColumn(vals, core.DefaultOptions()), "uniform", queries)
	scan := bench.RunNamed(baseline.NewFullScan(vals), "uniform", queries)
	full := bench.RunNamed(baseline.NewFullSortIndex(vals, false), "uniform", queries)
	am := bench.RunNamed(adaptivemerge.New(vals, adaptivemerge.DefaultOptions()), "uniform", queries)

	threshold := convergenceThreshold(full)
	rows := []bench.Summary{
		scan.Summarize(threshold), full.Summarize(threshold),
		crack.Summarize(threshold), am.Summarize(threshold),
	}
	var b strings.Builder
	b.WriteString(bench.FormatTable("E2: convergence and cumulative cost", rows))
	fmt.Fprintf(&b, "\nbreak-even of cracking vs full index (query #): %d\n", crack.BreakEven(full))
	fmt.Fprintf(&b, "break-even of cracking vs scan (query #): %d\n", crack.BreakEven(scan))
	fmt.Fprintf(&b, "break-even of adaptive merging vs full index (query #): %d\n", am.BreakEven(full))
	fmt.Fprintf(&b, "convergence threshold (work units/query): %d\n", threshold)
	return Result{ID: "E2", Title: "Cumulative cost and break-even", Summaries: rows, Text: b.String()}
}

// E3FirstQuery reports TPCTC metric 1 for every strategy.
func E3FirstQuery(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	// Only a handful of queries are needed; the metric is about the
	// first one.
	short := cfg
	short.Queries = 10
	queries := uniformQueries(short)

	paths := standardPaths(cfg, vals)
	names := make([]string, 0, len(paths))
	for name := range paths {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]bench.Summary, 0, len(paths))
	for _, name := range names {
		s := bench.RunNamed(paths[name], "uniform", queries)
		rows = append(rows, s.Summarize(1))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].FirstQuery < rows[j].FirstQuery })
	var b strings.Builder
	b.WriteString("E3: initialization cost incurred by the first query (TPCTC metric 1)\n")
	fmt.Fprintf(&b, "%-28s %16s\n", "index", "first-query work")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %16d\n", r.IndexName, r.FirstQuery)
	}
	return Result{ID: "E3", Title: "First-query initialization cost", Summaries: rows, Text: b.String()}
}

// E4Hybrids compares cracking, adaptive merging and the hybrid family
// on uniform and skewed workloads.
func E4Hybrids(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	workloads := map[string][]column.Range{
		"uniform": uniformQueries(cfg),
		"skewed":  workload.Queries(workload.NewSkewed(cfg.Seed+2, 0, column.Value(cfg.Domain), cfg.Selectivity, 1.4), cfg.Queries),
	}
	var rows []bench.Summary
	var b strings.Builder
	for _, wname := range []string{"uniform", "skewed"} {
		queries := workloads[wname]
		full := bench.RunNamed(baseline.NewFullSortIndex(vals, false), wname, queries)
		threshold := convergenceThreshold(full)
		competitors := []bench.Index{
			core.NewCrackerColumn(vals, core.DefaultOptions()),
			adaptivemerge.New(vals, adaptivemerge.DefaultOptions()),
			hybrid.NewHCC(vals, 1<<16),
			hybrid.NewHCS(vals, 1<<16),
			hybrid.NewHSS(vals, 1<<16),
			hybrid.NewHRS(vals, 1<<16),
		}
		wrows := []bench.Summary{full.Summarize(threshold)}
		for _, ix := range competitors {
			s := bench.RunNamed(ix, wname, queries)
			wrows = append(wrows, s.Summarize(threshold))
		}
		for i := range wrows {
			wrows[i].IndexName = wname + "/" + wrows[i].IndexName
		}
		rows = append(rows, wrows...)
		b.WriteString(bench.FormatTable("E4 ("+wname+"): cracking vs adaptive merging vs hybrids", wrows))
		b.WriteString("\n")
	}
	return Result{ID: "E4", Title: "Cracking vs adaptive merging vs hybrids", Summaries: rows, Text: b.String()}
}

// E5Updates measures cracking under interleaved updates for the three
// merge policies. The column is first converged with an update-free
// warm-up (as in the SIGMOD 2007 evaluation), so the recorded numbers
// isolate the update-handling cost rather than the initial cracking.
func E5Updates(cfg Config) Result {
	cfg = cfg.withDefaults()
	warmup := uniformQueries(cfg)
	measured := workload.Queries(workload.NewUniform(cfg.Seed+9, 0, column.Value(cfg.Domain), cfg.Selectivity), cfg.Queries)
	updatesPerQuery := 10

	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E5: cracking under updates (10 inserts per query, after an update-free warm-up)\n")
	fmt.Fprintf(&b, "%-32s %14s %18s %14s\n", "policy", "total-work", "worst-query", "tail/query")
	for _, policy := range []updates.MergePolicy{updates.MergeGradually, updates.MergeCompletely, updates.MergeImmediately} {
		vals := data(cfg)
		u := updates.New(vals, core.DefaultOptions(), policy)
		for _, q := range warmup {
			u.Count(q)
		}
		ins := workload.NewUniform(cfg.Seed+3, 0, column.Value(cfg.Domain), 0.000001)
		// Interleave updates with the query stream via a wrapper index.
		ix := &updatingIndex{col: u, gen: ins, perQuery: updatesPerQuery}
		s := bench.RunNamed(ix, "uniform+updates", measured)
		sum := s.Summarize(1)
		rows = append(rows, sum)
		worst, _ := s.MaxQueryCost()
		fmt.Fprintf(&b, "%-32s %14d %18d %14d\n", u.Name(), sum.TotalWork, worst, s.TailAverage(cfg.Queries/10))
	}
	return Result{ID: "E5", Title: "Cracking under updates", Summaries: rows, Text: b.String()}
}

// updatingIndex interleaves a fixed number of insertions before every
// query so the bench harness can drive an update workload.
type updatingIndex struct {
	col      *updates.Column
	gen      workload.Generator
	perQuery int
}

func (u *updatingIndex) Name() string { return u.col.Name() }

func (u *updatingIndex) Count(r column.Range) int {
	for i := 0; i < u.perQuery; i++ {
		u.col.Insert(u.gen.Next().Low)
	}
	return u.col.Count(r)
}

func (u *updatingIndex) Cost() cost.Counters { return u.col.Cost() }

// E6Sideways measures multi-attribute select-project queries: scan,
// cracking with late tuple reconstruction, and sideways cracking.
func E6Sideways(cfg Config) Result {
	cfg = cfg.withDefaults()
	n := cfg.N
	rngData := workload.DataUniform(cfg.Seed, n, cfg.Domain)
	colB := workload.DataUniform(cfg.Seed+10, n, 1000)
	colC := workload.DataUniform(cfg.Seed+11, n, 1_000_000)
	colD := workload.DataSorted(n)

	queries := uniformQueries(cfg)
	project := []string{"b", "c", "d"}

	build := func() (*engine.Engine, error) {
		tab := engine.NewTable("t")
		if err := tab.AddColumn("a", rngData); err != nil {
			return nil, err
		}
		if err := tab.AddColumn("b", colB); err != nil {
			return nil, err
		}
		if err := tab.AddColumn("c", colC); err != nil {
			return nil, err
		}
		if err := tab.AddColumn("d", colD); err != nil {
			return nil, err
		}
		cat := engine.NewCatalog()
		if err := cat.Register(tab); err != nil {
			return nil, err
		}
		return engine.New(cat, core.DefaultOptions()), nil
	}

	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E6: select on a, project b,c,d (work units)\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "path", "first-query", "total-work", "tail/query")
	for _, path := range []engine.AccessPath{engine.PathScan, engine.PathCracking, engine.PathSideways} {
		eng, err := build()
		if err != nil {
			b.WriteString("error: " + err.Error() + "\n")
			continue
		}
		ix := &engineIndex{eng: eng, path: path, project: project}
		s := bench.RunNamed(ix, "uniform", queries)
		sum := s.Summarize(1)
		sum.IndexName = path.String()
		rows = append(rows, sum)
		fmt.Fprintf(&b, "%-12s %14d %14d %14d\n", path, sum.FirstQuery, sum.TotalWork, s.TailAverage(cfg.Queries/10))
	}
	return Result{ID: "E6", Title: "Sideways cracking vs late tuple reconstruction", Summaries: rows, Text: b.String()}
}

// engineIndex adapts an engine select-project plan to the bench
// harness.
type engineIndex struct {
	eng     *engine.Engine
	path    engine.AccessPath
	project []string
}

func (e *engineIndex) Name() string { return "engine-" + e.path.String() }

func (e *engineIndex) Count(r column.Range) int {
	res, err := e.eng.SelectProject("t", "a", r, e.project, e.path)
	if err != nil {
		return -1
	}
	return len(res.Rows)
}

func (e *engineIndex) Cost() cost.Counters { return e.eng.Cost() }

// E7Skew compares cracking's work under uniform, skewed and shifting
// workloads: with skew only the hot ranges are optimised, so total work
// drops.
func E7Skew(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	gens := map[string]workload.Generator{
		"uniform":  workload.NewUniform(cfg.Seed+1, 0, column.Value(cfg.Domain), cfg.Selectivity),
		"skewed":   workload.NewSkewed(cfg.Seed+2, 0, column.Value(cfg.Domain), cfg.Selectivity, 1.5),
		"shifting": workload.NewShifting(cfg.Seed+3, 0, column.Value(cfg.Domain), cfg.Selectivity, 0.1, cfg.Queries/5),
	}
	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E7: cracking under different workload shapes\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %12s\n", "workload", "total-work", "tail/query", "pieces")
	for _, name := range []string{"uniform", "skewed", "shifting"} {
		queries := workload.Queries(gens[name], cfg.Queries)
		cc := core.NewCrackerColumn(vals, core.DefaultOptions())
		s := bench.RunNamed(cc, name, queries)
		sum := s.Summarize(1)
		sum.IndexName = name
		rows = append(rows, sum)
		fmt.Fprintf(&b, "%-12s %14d %14d %12d\n", name, sum.TotalWork, s.TailAverage(cfg.Queries/10), cc.NumPieces())
	}
	return Result{ID: "E7", Title: "Workload skew and shifting focus", Summaries: rows, Text: b.String()}
}

// E8OnlineOffline reproduces the motivating scenario: the workload's
// focus changes halfway through; offline indexing paid everything up
// front, online indexing reacts late and pays a spike, adaptive
// indexing reacts immediately.
func E8OnlineOffline(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	// First half focuses on the lower quarter of the domain, second
	// half on the upper quarter.
	half := cfg.Queries / 2
	lowFocus := workload.Queries(workload.NewUniform(cfg.Seed+4, 0, column.Value(cfg.Domain/4), cfg.Selectivity), half)
	highFocus := workload.Queries(workload.NewUniform(cfg.Seed+5, column.Value(3*cfg.Domain/4), column.Value(cfg.Domain), cfg.Selectivity), cfg.Queries-half)
	queries := append(append([]column.Range{}, lowFocus...), highFocus...)

	paths := []bench.Index{
		index.Rename(baseline.NewFullSortIndex(vals, true), "fullsort-eager"),
		baseline.NewOnlineIndex(vals, 50),
		baseline.NewSoftIndex(vals, 50),
		core.NewCrackerColumn(vals, core.DefaultOptions()),
		baseline.NewFullScan(vals),
	}
	var rows []bench.Summary
	for _, ix := range paths {
		s := bench.RunNamed(ix, "shifting-focus", queries)
		rows = append(rows, s.Summarize(1))
	}
	text := bench.FormatTable("E8: offline vs online vs soft vs adaptive under a workload change", rows)
	return Result{ID: "E8", Title: "Offline vs online vs adaptive", Summaries: rows, Text: text}
}

// E9Selectivity sweeps query selectivity and reports converged
// per-query cost for scan, full index and cracking.
func E9Selectivity(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	selectivities := []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 0.5}
	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E9: tail per-query work by selectivity\n")
	fmt.Fprintf(&b, "%-12s %14s %14s %14s\n", "selectivity", "scan", "fullsort", "cracking")
	for _, sel := range selectivities {
		queries := workload.Queries(workload.NewUniform(cfg.Seed+6, 0, column.Value(cfg.Domain), sel), cfg.Queries/2)
		scan := bench.RunNamed(baseline.NewFullScan(vals), "uniform", queries)
		full := bench.RunNamed(baseline.NewFullSortIndex(vals, false), "uniform", queries)
		crack := bench.RunNamed(core.NewCrackerColumn(vals, core.DefaultOptions()), "uniform", queries)
		window := len(queries) / 10
		fmt.Fprintf(&b, "%-12.5f %14d %14d %14d\n", sel, scan.TailAverage(window), full.TailAverage(window), crack.TailAverage(window))
		sum := crack.Summarize(convergenceThreshold(full))
		sum.IndexName = fmt.Sprintf("cracking@sel=%.5f", sel)
		rows = append(rows, sum)
	}
	return Result{ID: "E9", Title: "Selectivity sweep", Summaries: rows, Text: b.String()}
}

// E10Scaling sweeps the data size and reports first-query cost and
// total work for scan, full index and cracking.
func E10Scaling(cfg Config) Result {
	cfg = cfg.withDefaults()
	sizes := []int{cfg.N / 100, cfg.N / 10, cfg.N}
	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E10: scaling with data size\n")
	fmt.Fprintf(&b, "%-12s %-12s %16s %16s\n", "tuples", "index", "first-query", "total-work")
	for _, n := range sizes {
		sub := cfg
		sub.N = n
		sub.Domain = n
		vals := data(sub)
		queries := uniformQueries(sub)
		for name, ix := range map[string]bench.Index{
			"scan":     baseline.NewFullScan(vals),
			"fullsort": baseline.NewFullSortIndex(vals, false),
			"cracking": core.NewCrackerColumn(vals, core.DefaultOptions()),
		} {
			s := bench.RunNamed(ix, "uniform", queries)
			sum := s.Summarize(1)
			sum.IndexName = fmt.Sprintf("%s@n=%d", name, n)
			rows = append(rows, sum)
			fmt.Fprintf(&b, "%-12d %-12s %16d %16d\n", n, name, sum.FirstQuery, sum.TotalWork)
		}
	}
	return Result{ID: "E10", Title: "Data-size scaling", Summaries: rows, Text: b.String()}
}

// E11Ablation compares the cracking strategy variants: crack-in-two
// only, crack-in-three, and stochastic pivots with two thresholds,
// under both a uniform and a sequential workload.
func E11Ablation(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"crack-in-two", core.Options{CrackInThree: false}},
		{"crack-in-three", core.Options{CrackInThree: true}},
		{"stochastic-64k", core.Options{CrackInThree: true, RandomPivotThreshold: 1 << 16}},
		{"stochastic-4k", core.Options{CrackInThree: true, RandomPivotThreshold: 1 << 12}},
	}
	workloads := map[string]workload.Generator{
		"uniform":    workload.NewUniform(cfg.Seed+7, 0, column.Value(cfg.Domain), cfg.Selectivity),
		"sequential": workload.NewSequential(0, column.Value(cfg.Domain), cfg.Selectivity),
	}
	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E11: crack strategy ablation\n")
	fmt.Fprintf(&b, "%-12s %-18s %14s %14s %14s\n", "workload", "variant", "first-query", "total-work", "tail/query")
	for _, wname := range []string{"uniform", "sequential"} {
		queries := workload.Queries(workloads[wname], cfg.Queries)
		for _, v := range variants {
			cc := core.NewCrackerColumn(vals, v.opts)
			s := bench.RunNamed(cc, wname, queries)
			sum := s.Summarize(1)
			sum.IndexName = wname + "/" + v.name
			rows = append(rows, sum)
			fmt.Fprintf(&b, "%-12s %-18s %14d %14d %14d\n", wname, v.name, sum.FirstQuery, sum.TotalWork, s.TailAverage(cfg.Queries/10))
		}
	}
	return Result{ID: "E11", Title: "Crack strategy ablation", Summaries: rows, Text: b.String()}
}

// E12MergeIO reports the page-touch counts of adaptive merging for a
// sweep of run sizes, against cracking (which has no I/O model and is
// listed for reference).
func E12MergeIO(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	queries := uniformQueries(cfg)
	runSizes := []int{1 << 14, 1 << 16, 1 << 18}
	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E12: adaptive merging I/O model (page touches, page = 1024 entries)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "configuration", "page-touches", "total-work", "converge@")
	for _, rs := range runSizes {
		ix := adaptivemerge.New(vals, adaptivemerge.Options{RunSize: rs, PageSize: 1 << 10})
		s := bench.RunNamed(ix, "uniform", queries)
		total := s.TotalWork()
		sum := s.Summarize(1)
		sum.IndexName = fmt.Sprintf("adaptivemerge/run=%d", rs)
		rows = append(rows, sum)
		conv := "-"
		if ix.Converged() {
			conv = "yes"
		}
		fmt.Fprintf(&b, "%-24s %14d %14d %14s\n", sum.IndexName, total.PageTouches, sum.TotalWork, conv)
	}
	cc := core.NewCrackerColumn(vals, core.DefaultOptions())
	s := bench.RunNamed(cc, "uniform", queries)
	sum := s.Summarize(1)
	sum.IndexName = "cracking (no I/O model)"
	rows = append(rows, sum)
	fmt.Fprintf(&b, "%-24s %14d %14d %14s\n", sum.IndexName, s.TotalWork().PageTouches, sum.TotalWork, "-")
	return Result{ID: "E12", Title: "Adaptive merging I/O model", Summaries: rows, Text: b.String()}
}

// E13Parallel evaluates partitioned parallel cracking. Part one drives
// the partitioned index through the standard sequential harness to show
// its logical work stays in the same regime as plain cracking (the
// partitioning pass replaces the cracker-copy pass). Part two replays
// the identical query sequence from several goroutines at once and
// compares wall-clock time against the global-latch concurrent cracker
// of package concurrent — the contention the per-partition latches
// remove.
func E13Parallel(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)
	queries := uniformQueries(cfg)

	// Part 1: sequential logical work, cracking vs partition counts.
	full := bench.RunNamed(baseline.NewFullSortIndex(vals, false), "uniform", queries)
	threshold := convergenceThreshold(full)
	rows := []bench.Summary{full.Summarize(threshold)}
	competitors := []bench.Index{
		core.NewCrackerColumn(vals, core.DefaultOptions()),
	}
	for _, p := range []int{2, 4, 8} {
		competitors = append(competitors, index.Rename(
			partition.New(vals, partition.Options{Partitions: p, Core: core.DefaultOptions()}),
			fmt.Sprintf("cracking-parallel(p=%d)", p)))
	}
	for _, ix := range competitors {
		s := bench.RunNamed(ix, "uniform", queries)
		rows = append(rows, s.Summarize(threshold))
	}
	var b strings.Builder
	b.WriteString(bench.FormatTable("E13: partitioned parallel cracking — sequential logical work", rows))

	// Part 2: concurrent replay wall clock, global latch vs partitioned
	// latches.
	goroutines := 8
	storm := func(count func(column.Range) int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(offset int) {
				defer wg.Done()
				for i := 0; i < len(queries); i += goroutines {
					count(queries[(i+offset)%len(queries)])
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	globalLatch := concurrent.New(vals, core.DefaultOptions())
	sharded := partition.New(vals, partition.Options{Partitions: goroutines, Core: core.DefaultOptions()})
	globalWall := storm(globalLatch.Count)
	shardedWall := storm(sharded.Count)
	fmt.Fprintf(&b, "\nconcurrent replay (%d goroutines, %d queries):\n", goroutines, len(queries))
	fmt.Fprintf(&b, "%-32s %14s\n", "access path", "wall")
	fmt.Fprintf(&b, "%-32s %14s\n", globalLatch.Name()+" (global latch)", globalWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "%-32s %14s\n",
		fmt.Sprintf("%s (p=%d)", sharded.Name(), sharded.NumPartitions()), shardedWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "partition probes: shared=%d exclusive=%d\n", sharded.SharedQueries(), sharded.ExclusiveQueries())
	return Result{ID: "E13", Title: "Partitioned parallel cracking", Summaries: rows, Text: b.String()}
}

// E14Server evaluates the query service layer: the same hot-set
// workload (concurrent sessions drawing from one shared pool of ranges,
// the IDEBench-style interactive exploration shape) is replayed through
// the service at several session counts, with per-query dispatch versus
// shared-scan batching at two window lengths. Reported per cell:
// wall-clock throughput, client-observed latency percentiles, and the
// fraction of queries answered from a scan shared with an identical
// predicate in the same batch. Latch contention and redundant
// materialisation are invisible to logical work counters, so this
// experiment, like E13's part two, reports wall time.
func E14Server(cfg Config) Result {
	cfg = cfg.withDefaults()
	vals := data(cfg)

	sessionCounts := []int{1, 8, 32}
	windows := []time.Duration{0, 200 * time.Microsecond, time.Millisecond}

	var rows []bench.Summary
	var b strings.Builder
	b.WriteString("E14: query service, hot-set workload (selectivity " +
		fmt.Sprintf("%.3f", cfg.Selectivity) + ", op=select)\n")
	fmt.Fprintf(&b, "%-24s %10s %12s %10s %10s %10s %12s\n",
		"configuration", "wall", "queries/s", "p50", "p95", "p99", "shared-frac")
	for _, sessions := range sessionCounts {
		perSession := cfg.Queries / sessions
		if perSession < 1 {
			perSession = 1
		}
		gens, err := workload.SessionGenerators("hotset", cfg.Seed+8, sessions, 0, column.Value(cfg.Domain), cfg.Selectivity)
		if err != nil {
			b.WriteString("error: " + err.Error() + "\n")
			continue
		}
		streams := make([][]column.Range, sessions)
		for g := range streams {
			streams[g] = workload.Queries(gens[g], perSession)
		}
		for _, window := range windows {
			eng := singleColumnEngine(vals)
			svc, err := server.NewService(server.Config{Engine: eng, DefaultPath: "cracking", BatchWindow: window})
			if err != nil {
				b.WriteString("error: " + err.Error() + "\n")
				continue
			}
			var wg sync.WaitGroup
			start := time.Now()
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(stream []column.Range) {
					defer wg.Done()
					for _, r := range stream {
						if _, err := svc.Select(r); err != nil {
							return
						}
					}
				}(streams[g])
			}
			wg.Wait()
			wall := time.Since(start)
			st := svc.Stats()
			svc.Close()

			name := fmt.Sprintf("s=%d/direct", sessions)
			if window > 0 {
				name = fmt.Sprintf("s=%d/batched(%s)", sessions, window)
			}
			total := sessions * perSession
			sharedFrac := 0.0
			if st.Queries > 0 {
				sharedFrac = float64(st.SharedScans) / float64(st.Queries)
			}
			fmt.Fprintf(&b, "%-24s %10s %12.0f %8dµs %8dµs %8dµs %12.3f\n",
				name, wall.Round(time.Microsecond), float64(total)/wall.Seconds(),
				st.Latency.P50Us, st.Latency.P95Us, st.Latency.P99Us, sharedFrac)
			rows = append(rows, bench.Summary{
				IndexName: name,
				TotalWork: eng.Cost().Total(),
				TotalWall: wall,
			})
		}
	}
	b.WriteString("\nshared-frac: fraction of queries answered from a scan shared with an\nidentical predicate coalesced into the same batch.\n")
	return Result{ID: "E14", Title: "Query service: shared-scan batching", Summaries: rows, Text: b.String()}
}

// singleColumnEngine wraps a bare value vector in a one-table,
// one-column catalog, the shape E14's single-predicate streams need.
func singleColumnEngine(vals []column.Value) *engine.Engine {
	tab := engine.NewTable("data")
	if err := tab.AddColumn("c0", vals); err != nil {
		panic(err)
	}
	cat := engine.NewCatalog()
	if err := cat.Register(tab); err != nil {
		panic(err)
	}
	return engine.New(cat, core.DefaultOptions())
}

// E15Planner evaluates the cost-driven access-path planner (PathAuto)
// against every static path on a drifting hot-set select-project
// workload: a pool of hot predicates is re-issued heavily and the pool
// jumps to a new sub-domain every Queries/10 queries (the IDEBench
// shape — a dashboard's filters re-issued as the analyst's focus
// drifts), and every query projects one attribute, so the scan,
// cracking and sideways paths genuinely differ in cost. The
// planner must beat the worst static path by a wide margin and track
// close to the best one, paying only a short explore phase — the
// kernel, not the caller, picks the physical design.
func E15Planner(cfg Config) Result {
	cfg = cfg.withDefaults()
	shiftEvery := cfg.Queries / 10
	if shiftEvery < 1 {
		shiftEvery = 1
	}
	queries := workload.Queries(
		workload.NewDriftingHotSet(cfg.Seed+15, 0, column.Value(cfg.Domain), cfg.Selectivity, 0.1, 16, 1.3, shiftEvery),
		cfg.Queries)
	project := []string{"c1"}

	makeEngine := func() *engine.Engine {
		tab := engine.NewTable("data")
		for ci, seedOff := range []int64{0, 1, 2} {
			vals := workload.DataUniform(cfg.Seed+seedOff, cfg.N, cfg.Domain)
			if err := tab.AddColumn(fmt.Sprintf("c%d", ci), vals); err != nil {
				panic(err)
			}
		}
		cat := engine.NewCatalog()
		if err := cat.Register(tab); err != nil {
			panic(err)
		}
		return engine.New(cat, core.DefaultOptions())
	}

	var rows []bench.Summary
	var b strings.Builder
	fmt.Fprintf(&b, "E15: planner vs static paths, drifting select-project workload\n")
	fmt.Fprintf(&b, "(%d queries, focus shifts every %d, selectivity %.3f, project %v)\n\n",
		cfg.Queries, shiftEvery, cfg.Selectivity, project)
	fmt.Fprintf(&b, "%-12s %14s %12s %10s\n", "path", "total-work", "work/query", "wall")

	totals := make(map[string]uint64)
	for _, path := range []engine.AccessPath{
		engine.PathScan, engine.PathCracking, engine.PathSideways, engine.PathAuto,
	} {
		eng := makeEngine()
		start := time.Now()
		for _, r := range queries {
			if _, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: r, Project: project, Path: path}); err != nil {
				b.WriteString("error: " + err.Error() + "\n")
				break
			}
		}
		wall := time.Since(start)
		total := eng.Cost().Total()
		totals[path.String()] = total
		rows = append(rows, bench.Summary{IndexName: path.String(), TotalWork: total, TotalWall: wall})
		fmt.Fprintf(&b, "%-12s %14d %12d %10s\n",
			path.String(), total, total/uint64(len(queries)), wall.Round(time.Microsecond))
		if path == engine.PathAuto {
			for _, plan := range eng.PlanStats() {
				fmt.Fprintf(&b, "\nplanner %s.%s: phase=%s chosen=%s re-explores=%d\n",
					plan.Table, plan.Column, plan.Phase, plan.Chosen, plan.ReExplores)
				for _, p := range plan.Paths {
					fmt.Fprintf(&b, "  %-10s queries=%-6d avg-work=%-12.0f ewma=%.0f\n",
						p.Path, p.Queries, p.AvgWork, p.EWMA)
				}
			}
		}
	}

	best, worst := uint64(0), uint64(0)
	for _, name := range []string{"scan", "cracking", "sideways"} {
		t := totals[name]
		if best == 0 || t < best {
			best = t
		}
		if t > worst {
			worst = t
		}
	}
	if auto := totals["auto"]; best > 0 && auto > 0 {
		fmt.Fprintf(&b, "\nauto/best = %.2fx, auto/worst = %.3fx (best static %d, worst static %d)\n",
			float64(auto)/float64(best), float64(auto)/float64(worst), best, worst)
	}
	return Result{ID: "E15", Title: "Access-path planner vs static paths", Summaries: rows, Text: b.String()}
}

// E16Outcome captures the comparable totals of one merge-policy run of
// the mixed-workload experiment.
type E16Outcome struct {
	Policy string
	// Total and Recurring are the engine's logical-work totals after
	// the full op stream; Recurring includes the merge work the policy
	// caused (cost.Counters.MergeWork), which is what separates the
	// policies — materialisation is identical across them.
	Total     uint64
	Recurring uint64
	MergeWork uint64
	// MergedIns/MergedDel count updates that reached the cracked
	// layout; PendingIns/PendingDel is the buffered depth left at the
	// end — work the lazy policies never had to pay.
	MergedIns, MergedDel    uint64
	PendingIns, PendingDel  int
	Reads, Inserts, Deletes int
	Wall                    time.Duration
}

// RunE16 replays one deterministic interleaved read/write stream
// against an engine per merge policy and reports per-policy outcomes
// plus whether every policy returned identical rows for every read.
func RunE16(cfg Config) ([]E16Outcome, bool) {
	cfg = cfg.withDefaults()
	shiftEvery := cfg.Queries / 10
	if shiftEvery < 1 {
		shiftEvery = 1
	}
	// One op stream, drained up front so every policy replays
	// literally the same interleaving: drifting hot-set reads (the
	// analyst's moving focus) mixed with inserts of random rows and
	// deletes of the stream's own earlier inserts.
	reads := workload.NewFixedTarget(
		workload.Target{Table: "data", Column: "c0"},
		workload.NewDriftingHotSet(cfg.Seed+16, 0, column.Value(cfg.Domain), cfg.Selectivity, 0.1, 16, 1.3, shiftEvery))
	gen := workload.NewMixedOps("e16", cfg.Seed+17, reads, "data", 2, 0, column.Value(cfg.Domain), 0.25, 0.4)
	ops := make([]workload.TableOp, cfg.Queries)
	for i := range ops {
		ops[i] = gen.NextOp()
	}

	policies := []updates.MergePolicy{updates.MergeGradually, updates.MergeCompletely, updates.MergeImmediately}
	outcomes := make([]E16Outcome, 0, len(policies))
	var signatures [][]uint64
	identical := true
	for _, policy := range policies {
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
		eng := engine.New(cat, core.DefaultOptions())
		eng.SetMergePolicy(policy)

		var own []column.RowID
		var sig []uint64
		out := E16Outcome{Policy: policy.String()}
		start := time.Now()
		for _, op := range ops {
			switch op.Kind {
			case workload.OpRead:
				res, err := eng.Run(engine.Query{Table: "data", Column: "c0", R: op.Query.R, Path: engine.PathCracking})
				if err != nil {
					panic(err)
				}
				sig = append(sig, rowSignature(res.Rows))
				out.Reads++
			case workload.OpInsert:
				row, err := eng.InsertRow("data", op.Values)
				if err != nil {
					panic(err)
				}
				own = append(own, row)
				out.Inserts++
			case workload.OpDelete:
				if err := eng.DeleteRow("data", own[0]); err != nil {
					panic(err)
				}
				own = own[1:]
				out.Deletes++
			}
		}
		out.Wall = time.Since(start)
		c := eng.Cost()
		out.Total, out.Recurring, out.MergeWork = c.Total(), c.Recurring(), c.MergeWork
		ws := eng.WriteStats()
		out.MergedIns, out.MergedDel = ws.MergedInserts, ws.MergedDeletes
		out.PendingIns, out.PendingDel = ws.PendingInserts, ws.PendingDeletes
		outcomes = append(outcomes, out)
		signatures = append(signatures, sig)
	}
	for _, sig := range signatures[1:] {
		if len(sig) != len(signatures[0]) {
			identical = false
			break
		}
		for i := range sig {
			if sig[i] != signatures[0][i] {
				identical = false
				break
			}
		}
	}
	return outcomes, identical
}

// rowSignature hashes a result's row identifiers order-independently
// (FNV-1a over the sorted list), so policies that return the same rows
// in different physical order still compare equal.
func rowSignature(rows column.IDList) uint64 {
	sorted := append(column.IDList(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, row := range sorted {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(row >> shift))
			h *= prime64
		}
	}
	return h
}

// E16UpdatePolicies pits the three merge policies of internal/updates
// against each other on a drifting mixed read/write workload through
// the engine's write path (experimentally the IDEBench argument:
// interactive systems must be judged under evolving workloads, not
// static read-only ones). Every policy must return identical rows for
// every read — the policies move work in time, never change answers —
// and the lazy policies must beat MergeImmediately on recurring cost:
// a drifting focus means most buffered updates are never touched by a
// query, so the ripple work the immediate policy pays up front is
// simply never spent.
func E16UpdatePolicies(cfg Config) Result {
	cfg = cfg.withDefaults()
	outcomes, identical := RunE16(cfg)

	var rows []bench.Summary
	var b strings.Builder
	fmt.Fprintf(&b, "E16: merge policies, drifting mixed read/write workload\n")
	fmt.Fprintf(&b, "(%d ops: %d reads / %d inserts / %d deletes, selectivity %.3f)\n\n",
		cfg.Queries, outcomes[0].Reads, outcomes[0].Inserts, outcomes[0].Deletes, cfg.Selectivity)
	fmt.Fprintf(&b, "%-10s %14s %14s %12s %10s %10s %10s\n",
		"policy", "total-work", "recurring", "merge-work", "merged", "pending", "wall")
	for _, o := range outcomes {
		rows = append(rows, bench.Summary{IndexName: o.Policy, TotalWork: o.Total, TotalWall: o.Wall})
		fmt.Fprintf(&b, "%-10s %14d %14d %12d %10d %10d %10s\n",
			o.Policy, o.Total, o.Recurring, o.MergeWork,
			o.MergedIns+o.MergedDel, o.PendingIns+o.PendingDel, o.Wall.Round(time.Microsecond))
	}
	if identical {
		b.WriteString("\nall policies returned identical rows for every read\n")
	} else {
		b.WriteString("\nERROR: policies disagreed on read results\n")
	}
	var grad, imm E16Outcome
	for _, o := range outcomes {
		switch o.Policy {
		case updates.MergeGradually.String():
			grad = o
		case updates.MergeImmediately.String():
			imm = o
		}
	}
	if imm.Recurring > 0 {
		fmt.Fprintf(&b, "gradual/immediate recurring = %.3fx (%d vs %d)\n",
			float64(grad.Recurring)/float64(imm.Recurring), grad.Recurring, imm.Recurring)
	}
	return Result{ID: "E16", Title: "Merge policies under mixed workloads", Summaries: rows, Text: b.String()}
}
