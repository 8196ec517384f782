package server

import (
	"bytes"
	"go/build"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module.
const modulePath = "adaptiveindex"

// TestServingClosureExcludesPaperLibrary pins two boundaries.
//
// The first is between the serving stack and the paper library. The
// tutorial presents hybrids, adaptive merging, B-trees, the
// global-latch and value-range partitioned concurrency schemes and the
// experiment harness as alternatives to compare; they stay in the
// repository for the reproduction, but no package the three serving
// binaries import, directly or transitively, may be one of them.
//
// The second is between the engine and the front ends that only speak
// the wire contract: the router and the load generator reach the
// stats types, the stripe contract and the reply writers through
// internal/api, so neither may link the engine, its structures, the
// snapshot code, the shard cluster or the node's service layer.
//
// Run with -v, it also logs each binary's closure: the packages it
// reaches and their non-test lines.
func TestServingClosureExcludesPaperLibrary(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from this package's directory
	paperLibrary := []string{"hybrid", "adaptivemerge", "btree", "baseline", "concurrent", "partition", "bench", "experiments"}
	engineSide := []string{"engine", "core", "sideways", "updates", "crackeridx", "persist", "index", "shard", "server"}
	for _, tc := range []struct {
		bin       string
		forbidden []string
		// reaches guards against a walk that silently stops early.
		reaches string
	}{
		{"cmd/crackserve", paperLibrary, "engine"},
		{"cmd/crackrouter", append(engineSide, paperLibrary...), "api"},
		{"cmd/crackload", append(engineSide, paperLibrary...), "api"},
	} {
		forbidden := make(map[string]bool)
		for _, name := range tc.forbidden {
			forbidden[modulePath+"/internal/"+name] = true
		}
		start := modulePath + "/" + tc.bin
		// importer maps every package reached to the one that imported
		// it first, so a failure can print the import chain.
		importer := map[string]string{start: ""}
		queue := []string{start}
		lines := 0
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if forbidden[path] {
				t.Errorf("%s imports %s via %s", tc.bin, path, importChain(importer, path))
				continue
			}
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, f := range pkg.GoFiles {
				src, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				lines += bytes.Count(src, []byte("\n"))
			}
			for _, imp := range pkg.Imports {
				if imp != modulePath && !strings.HasPrefix(imp, modulePath+"/") {
					continue
				}
				if _, seen := importer[imp]; !seen {
					importer[imp] = path
					queue = append(queue, imp)
				}
			}
		}
		if _, ok := importer[modulePath+"/internal/"+tc.reaches]; !ok {
			t.Errorf("%s: import walk never reached internal/%s (reached %d packages)", tc.bin, tc.reaches, len(importer))
		}
		t.Logf("%s closure: %d packages, %d non-test lines", tc.bin, len(importer), lines)
	}
}

// importChain renders the path by which the walk first reached pkg,
// starting from the binary.
func importChain(importer map[string]string, pkg string) string {
	chain := []string{pkg}
	for p := importer[pkg]; p != ""; p = importer[p] {
		chain = append([]string{p}, chain...)
	}
	return strings.Join(chain, " -> ")
}
