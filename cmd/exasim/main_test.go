package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exaresil/internal/experiments"
)

func TestExhibitDispatchKnowsEveryName(t *testing.T) {
	cfg := experiments.Default()
	for _, name := range []string{"table1", "table2"} {
		tb, _, err := exhibit(name, cfg, experiments.Params{Trials: 1, Patterns: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.Rows() == 0 {
			t.Errorf("%s produced an empty table", name)
		}
	}
	if _, _, err := exhibit("fig9", cfg, experiments.Params{}); err == nil {
		t.Error("unknown exhibit accepted")
	}
}

// TestFlagDefaultsAreRowDefaults: exasim's flag defaults and the zero
// Params a bare served spec maps to resolve to the same run for every
// exhibit — the registry row's Defaults, which reproduce results/.
func TestFlagDefaultsAreRowDefaults(t *testing.T) {
	fs := flag.NewFlagSet("exasim", flag.ContinueOnError)
	scale := scaleFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	for _, ex := range experiments.Exhibits() {
		got, want := ex.Resolve(scale()), ex.Resolve(experiments.Params{})
		if got.Trials != want.Trials || got.Patterns != want.Patterns || got.Arrivals != want.Arrivals {
			t.Errorf("%s: flag defaults resolve to %+v, the zero Params to %+v", ex.Name, got, want)
		}
		if want.Trials != ex.Defaults.Trials || want.Patterns != ex.Defaults.Patterns || want.Arrivals != ex.Defaults.Arrivals {
			t.Errorf("%s: the zero Params resolves to %+v, not the row's %+v", ex.Name, want, ex.Defaults)
		}
	}
}

func TestRunUnknownExhibit(t *testing.T) {
	if err := run([]string{"nonsense"}); err == nil {
		t.Error("unknown exhibit should error")
	}
}

// TestRunValidationIsUpfront: every flag-combination mistake is caught as a
// usageError (exit 2) before any simulation work starts.
func TestRunValidationIsUpfront(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"unknown exhibit", []string{"fig9"}, "unknown exhibit"},
		{"unknown exhibit among valid", []string{"fig1", "fig9"}, "unknown exhibit"},
		{"negative trials", []string{"-trials", "-1", "fig1"}, "-trials"},
		{"negative patterns", []string{"-patterns", "-3", "fig4"}, "-patterns"},
		{"negative workers", []string{"-workers", "-1", "fig1"}, "-workers"},
		{"bad metrics extension", []string{"-metrics", "out.csv", "fig1"}, "-metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.argv)
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("run(%v) = %v, want a usageError", tc.argv, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q, want it to mention %q", tc.argv, err, tc.want)
			}
		})
	}
	// Valid metrics spellings pass the same gate.
	for _, p := range []string{"-", "", "m.json", "m.prom", "m.txt"} {
		if !validMetricsPath(p) {
			t.Errorf("validMetricsPath(%q) = false, want true", p)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunTinyFigureWithCSVAndChart(t *testing.T) {
	dir := t.TempDir()
	// Redirect stdout to keep test output clean.
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

	if err := run([]string{"-trials", "2", "-chart", "-csv", dir, "fig1"}); err != nil {
		t.Fatalf("tiny fig1 run failed: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1.csv"))
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "Checkpoint Restart") {
		t.Error("csv missing technique column")
	}
}

func TestScalingChartShape(t *testing.T) {
	cfg := experiments.Default()
	_, res, err := experiments.ScalingSpec{Config: cfg, Trials: 2,
		Fractions: []float64{0.01, 0.25}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := scalingChart(res)
	out := c.String()
	if !strings.Contains(out, "1% of the machine") || !strings.Contains(out, "25% of the machine") {
		t.Errorf("chart missing size groups:\n%s", out)
	}
	if !strings.Contains(out, "Parallel Recovery") {
		t.Error("chart missing technique bars")
	}
}

func TestClusterChartShape(t *testing.T) {
	cfg := experiments.Default()
	_, res, err := experiments.ClusterSpec{Config: cfg, Patterns: 1, Arrivals: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := clusterChart(res).String()
	for _, label := range []string{"FCFS", "Random", "Slack-Based", "Ideal"} {
		if !strings.Contains(out, label) {
			t.Errorf("cluster chart missing %s:\n%s", label, out)
		}
	}
}
