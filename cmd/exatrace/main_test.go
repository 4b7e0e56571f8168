package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"exaresil/internal/core"
)

func silently(t *testing.T, f func() error) error {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	return f()
}

func TestRunDefaults(t *testing.T) {
	if err := silently(t, func() error {
		return run([]string{"-steps", "120", "-fraction", "0.05"})
	}); err != nil {
		t.Fatalf("default trace failed: %v", err)
	}
}

func TestRunWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	err := silently(t, func() error {
		return run([]string{"-tech", "cr", "-steps", "120", "-fraction", "0.05", "-jsonl", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"start"`) {
		t.Errorf("jsonl missing start event: %.200s", data)
	}
	if !strings.Contains(string(data), `"kind":"complete"`) {
		t.Error("jsonl missing completion event")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	cases := [][]string{
		{"-tech", "quantum"},
		{"-class", "Z99"},
		{"-mtbf-years", "0"},
		{"-bogus"},
	}
	for _, args := range cases {
		if err := silently(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRejectsNonViable(t *testing.T) {
	// Full redundancy at 75% of the machine cannot be placed: the tool
	// should explain rather than trace nothing.
	err := silently(t, func() error {
		return run([]string{"-tech", "red2.0", "-fraction", "0.75", "-steps", "60"})
	})
	if err == nil || !strings.Contains(err.Error(), "cannot run") {
		t.Errorf("expected a cannot-run error, got %v", err)
	}
}

// TestEveryListedTechniqueTraces pins the -tech help: it lists every
// spelling ParseTechnique accepts, the label of every technique of the
// core menu among them, and each spelling it lists traces.
func TestEveryListedTechniqueTraces(t *testing.T) {
	names := core.TechniqueSpellings()
	for _, tech := range core.Techniques() {
		if !slices.Contains(names, tech.Label()) {
			t.Errorf("-tech lists %v, missing %s", names, tech.Label())
		}
	}
	for _, name := range names {
		if err := silently(t, func() error {
			return run([]string{"-tech", name, "-steps", "120", "-fraction", "0.05"})
		}); err != nil {
			t.Errorf("-tech %s: %v", name, err)
		}
	}
}
