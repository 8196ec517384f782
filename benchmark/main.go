// Command benchmark is the repo's wall-clock benchmark: five workloads
// run in-process against the serving stack stood up exactly as the
// daemons stand it up, every answer checked against an oracle, and a
// separate traced run for the per-layer numbers. See README.md.
//
//	bash benchmark/run.sh --workload hot_served --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh                       # every workload, one child process each
//	bash benchmark/run.sh -runs 10 -out a.json  # a set of runs, for -compare
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// resultLine is the last line of a single-workload run's output, with
// exactly these keys.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Env  map[string]string `json:"env"`
	Runs []setRun          `json:"runs"`
}

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	resultLine
}

// commit is the source revision, set by run.sh at link time.
var commit = "unknown"

// spanDir is where a traced run writes its span file, relative to the
// checkout's root (run.sh's working directory).
const spanDir = ".bench_build/trace"

// environment is recorded with every result: the numbers are this box's.
func environment(sc scale, seconds float64) map[string]string {
	return map[string]string{
		"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go": runtime.Version(), "commit": commit,
		"scale": sc.Name, "rows": fmt.Sprint(sc.Rows), "cols": fmt.Sprint(tableCols),
		"warm_reads": fmt.Sprint(sc.WarmReads), "setups": fmt.Sprint(sc.Setups),
		"sessions_served": fmt.Sprint(servedSessions), "callers_embedded": "1",
		"seconds": fmt.Sprint(seconds), "slices": fmt.Sprint(timeSlices),
		"path": "auto", "merge": "gradual", "proto": wireProto, "block": fmt.Sprint(wireBlock), "batch_window": "0",
	}
}

func envLine(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + env[k]
	}
	return "# " + strings.Join(parts, " ")
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	if err := loadContract(contractFile); err != nil {
		return err
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (one child process each)")
	seed := fs.Int64("seed", 42, "seed of the data and of every op stream")
	seconds := fs.Float64("seconds", float64(runSeconds), "length of the timed section")
	traceFlag := fs.Int("trace", 0, "1: the traced run — per-layer metrics and a span file instead of end-to-end metrics")
	scaleName := fs.String("scale", "full", "sizing: full or tiny")
	runs := fs.Int("runs", 1, "with -workload all: runs per workload, on seeds seed, seed+1, …")
	out := fs.String("out", "", "with -workload all: write the result set here (the input of -compare)")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result sets: -compare a.json b.json")
		}
		return compareSets(fs.Arg(0), fs.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q (have full, tiny)", *scaleName)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	isTraced := *traceFlag != 0
	env := environment(sc, *seconds)
	if *workload == "all" {
		return runAll(env, *seed, *seconds, isTraced, *scaleName, *runs, *out)
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames, ", "))
	}
	res, err := run(runOptions{workload: *workload, sc: sc, seed: *seed,
		dur: time.Duration(*seconds * float64(time.Second)), traced: isTraced, spanDir: spanDir})
	if err != nil {
		return err
	}
	fmt.Println(envLine(env))
	fmt.Printf("# workload %s seed %d traced %v\n", res.Workload, res.Seed, isTraced)
	reported := res.EndToEnd
	if isTraced {
		// End-to-end numbers always come from an untraced run; here they
		// are a half-length section's, printed for orientation only.
		for _, d := range endToEnd {
			fmt.Printf("~ %s %.4f %s (half-length untraced section)\n", d.Name, res.EndToEnd[d.Name].Value, d.Unit)
		}
		reported = res.PerLayer
	}
	printMetrics(reported)
	for _, d := range res.Diag {
		fmt.Println("~", d)
	}
	if res.SpanFile != "" {
		fmt.Println("~ spans written to", res.SpanFile)
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: reported})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics prints every metric by name with its unit, in registry
// order.
func printMetrics(m metrics) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Printf("%-34s %16.4f %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
}

// runAll runs every workload in a child process of its own, so that heap
// and GC state never leak from one workload into the next, and collects
// the result lines.
func runAll(env map[string]string, seed int64, seconds float64, traced bool, scaleName string, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: env}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloadNames {
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed+int64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", traceArg, "-scale", scaleName)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			os.Stdout.Write(stdout)
			if err != nil {
				return fmt.Errorf("workload %s: %w", w, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			run := setRun{Workload: w, Seed: seed + int64(r), Traced: traced}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.resultLine); err != nil {
				return fmt.Errorf("workload %s: result line: %w", w, err)
			}
			set.Runs = append(set.Runs, run)
		}
	}
	failed := 0
	for _, run := range set.Runs {
		if !run.Correct {
			failed++
		}
	}
	fmt.Printf("# %d runs, %d incorrect\n", len(set.Runs), failed)
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs had wrong or failed answers", failed)
	}
	return nil
}
