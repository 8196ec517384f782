package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureFile creates a temporary file to capture the CLI's output.
func captureFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func readBack(t *testing.T, f *os.File) string {
	t.Helper()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestListFlag(t *testing.T) {
	f := captureFile(t)
	if err := run([]string{"-list"}, f); err != nil {
		t.Fatal(err)
	}
	out := readBack(t, f)
	for _, id := range []string{"E1", "E5", "E12"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %s:\n%s", id, out)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	f := captureFile(t)
	err := run([]string{"-exp", "E1", "-n", "20000", "-queries", "60", "-domain", "20000"}, f)
	if err != nil {
		t.Fatal(err)
	}
	out := readBack(t, f)
	if !strings.Contains(out, "E1") || !strings.Contains(out, "cracking") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	f := captureFile(t)
	for _, id := range []string{"E99", "E19"} { // E19 is retired
		if err := run([]string{"-exp", id}, f); err == nil {
			t.Fatalf("expected an error for unknown experiment %s", id)
		}
	}
}

func TestBadFlag(t *testing.T) {
	f := captureFile(t)
	if err := run([]string{"-definitely-not-a-flag"}, f); err == nil {
		t.Fatal("expected a flag parse error")
	}
}
