package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"exaresil/internal/core"
)

// output runs exatrace with args and returns what it printed.
func output(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = old
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

func TestRunDefaults(t *testing.T) {
	if _, err := output(t, "-steps", "120", "-fraction", "0.05"); err != nil {
		t.Fatalf("default trace failed: %v", err)
	}
}

func TestRunWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := output(t, "-tech", "cr", "-steps", "120", "-fraction", "0.05", "-jsonl", path); err != nil {
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
		if _, err := output(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunRejectsNonViable(t *testing.T) {
	// Full redundancy at 75% of the machine cannot be placed: the tool
	// should explain rather than trace nothing.
	_, err := output(t, "-tech", "red2.0", "-fraction", "0.75", "-steps", "60")
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
		if _, err := output(t, "-tech", name, "-steps", "120", "-fraction", "0.05"); err != nil {
			t.Errorf("-tech %s: %v", name, err)
		}
	}
}

// TestIdealTraceIsNotIncomplete: the Ideal baseline emits no trace events,
// so exatrace says so and prints its completed Result instead of a trace
// summary of zero events that calls the run incomplete.
func TestIdealTraceIsNotIncomplete(t *testing.T) {
	out, err := output(t, "-tech", "ideal", "-steps", "60", "-fraction", "0.05")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "incomplete") || !strings.Contains(out, "emits no trace events") ||
		!strings.Contains(out, "Ideal: completed") {
		t.Errorf("ideal trace output:\n%s", out)
	}
}
