package server

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module.
const modulePath = "adaptiveindex"

// TestServingClosureExcludesPaperLibrary pins the boundary between the
// serving stack and the paper library. The tutorial presents hybrids,
// adaptive merging, B-trees, the global-latch and value-range
// partitioned concurrency schemes and the experiment harness as
// alternatives to compare; they stay in the repository for the
// reproduction, but no package the three serving binaries import,
// directly or transitively, may be one of them.
func TestServingClosureExcludesPaperLibrary(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from this package's directory
	forbidden := make(map[string]bool)
	for _, name := range []string{"hybrid", "adaptivemerge", "btree", "baseline", "concurrent", "partition", "bench", "experiments"} {
		forbidden[modulePath+"/internal/"+name] = true
	}
	for _, bin := range []string{"cmd/crackserve", "cmd/crackrouter", "cmd/crackload"} {
		start := modulePath + "/" + bin
		// importer maps every package reached to the one that imported
		// it first, so a failure can print the import chain.
		importer := map[string]string{start: ""}
		queue := []string{start}
		for len(queue) > 0 {
			path := queue[0]
			queue = queue[1:]
			if forbidden[path] {
				t.Errorf("%s imports paper-library package %s via %s", bin, path, importChain(importer, path))
				continue
			}
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
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
		// Guard against a walk that silently stops early: every serving
		// binary runs queries through the engine.
		if _, ok := importer[modulePath+"/internal/engine"]; !ok {
			t.Errorf("%s: import walk never reached internal/engine (reached %d packages)", bin, len(importer))
		}
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
