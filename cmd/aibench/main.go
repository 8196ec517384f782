// Command aibench runs the reproduction's experiment suite (see
// EXPERIMENTS.md; -list names every experiment) and prints the
// comparison tables and per-query curves each experiment produces.
//
// Usage:
//
//	aibench -list
//	aibench -exp E1
//	aibench -exp E14
//	aibench -exp all -n 10000000 -queries 1000
//
// The defaults run every experiment at one million tuples, which keeps
// the whole suite within a few minutes; -n 10000000 reproduces the
// scale the surveyed papers use.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adaptiveindex/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aibench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("aibench", flag.ContinueOnError)
	all := experiments.All()
	var (
		exp         = fs.String("exp", "all", fmt.Sprintf("experiment id (%s..%s) or 'all'", all[0].ID, all[len(all)-1].ID))
		list        = fs.Bool("list", false, "list available experiments and exit")
		n           = fs.Int("n", 1_000_000, "number of tuples")
		queries     = fs.Int("queries", 1000, "number of queries")
		domain      = fs.Int("domain", 0, "value domain (default: same as -n)")
		selectivity = fs.Float64("selectivity", 0.01, "query selectivity (fraction of the domain)")
		seed        = fs.Int64("seed", 42, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, def := range all {
			fmt.Fprintf(out, "%-5s %s\n", def.ID, def.Title)
		}
		return nil
	}

	cfg := experiments.Config{
		N:           *n,
		Queries:     *queries,
		Domain:      *domain,
		Selectivity: *selectivity,
		Seed:        *seed,
	}

	var defs []experiments.Definition
	if strings.EqualFold(*exp, "all") {
		defs = all
	} else {
		def, ok := experiments.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		defs = []experiments.Definition{def}
	}

	for i, def := range defs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "=== %s: %s ===\n", def.ID, def.Title)
		res := def.Run(cfg)
		fmt.Fprintln(out, res.Text)
	}
	return nil
}
