// Command exacheck audits the simulator against the analytic models and
// against its own pinned outputs.
//
// Usage:
//
//	exacheck [flags] [sweep|golden]...
//
// With no mode arguments, "sweep" is assumed.
//
// The sweep mode runs the conformance audit of internal/check: a grid of
// (checkpoint cost x failure rate x node count x technique) cells, each
// comparing the Monte-Carlo mean efficiency against the closed-form
// prediction, checking every runtime invariant on the traces, testing the
// metamorphic properties of the analytic layer, and reconciling the obs
// metrics the engines emit against trace-derived totals. It exits non-zero
// on any violation.
//
// The golden mode regenerates reduced-size paper exhibits at a pinned seed
// and compares their CSV digests against results/golden/manifest.txt,
// catching unintended behavioural drift in the full pipeline. Run with
// -update after an intentional change (and justify the refresh in the
// commit).
//
// Flags:
//
//	-trials N   Monte-Carlo trials per sweep cell (default 30)
//	-seed N     master random seed (0 = default)
//	-workers N  worker goroutines (0 = all CPUs)
//	-quick      sweep a reduced grid (one MTBF, two sizes)
//	-vr         sweep with variance-reduced (antithetic paired) trials,
//	            certifying the paired sampler against the same bands
//	-update     golden: rewrite the manifest and fixtures instead of comparing
//	-dir DIR    golden: fixture directory (default results/golden)
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"exaresil/internal/check"
	"exaresil/internal/core"
	"exaresil/internal/experiments"
	"exaresil/internal/load"
	"exaresil/internal/report"
	"exaresil/internal/units"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "exacheck: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exacheck", flag.ContinueOnError)
	trials := fs.Int("trials", 0, "Monte-Carlo trials per sweep cell (0 = default)")
	seed := fs.Uint64("seed", 0, "master random seed (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs)")
	quick := fs.Bool("quick", false, "sweep a reduced grid")
	vr := fs.Bool("vr", false, "sweep with variance-reduced (antithetic paired) trials")
	update := fs.Bool("update", false, "golden: rewrite the manifest and fixtures")
	dir := fs.String("dir", filepath.Join("results", "golden"), "golden fixture directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	modes := fs.Args()
	if len(modes) == 0 {
		modes = []string{"sweep"}
	}
	for _, mode := range modes {
		switch mode {
		case "sweep":
			if err := runSweep(*trials, *seed, *workers, *quick, *vr); err != nil {
				return err
			}
		case "golden":
			if err := runGolden(*dir, *seed, *workers, *update); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown mode %q (want sweep or golden)", mode)
		}
	}
	return nil
}

// runSweep executes the conformance audit and renders its report.
func runSweep(trials int, seed uint64, workers int, quick, vr bool) error {
	s := check.DefaultSweep()
	s.Trials = trials // zero means the sweep default
	s.Seed = seed
	s.Paired = vr
	if workers == 0 {
		workers = runtime.NumCPU()
	}
	s.Workers = workers
	if quick {
		s.MTBFs = []units.Duration{10 * units.Year}
		s.Fractions = []float64{0.01, 0.50}
	}

	start := time.Now()
	rep, err := s.Run()
	if err != nil {
		return err
	}
	rep.Write(os.Stdout)
	fmt.Printf("(sweep of %d cells in %v)\n", len(rep.Cells), time.Since(start).Round(time.Millisecond))
	// Every technique in the core menu must be covered by exactly one cell
	// per grid point: a technique added to core without check coverage (or
	// a sweep that silently dropped cells) fails loudly here.
	if want := len(s.MTBFs) * len(s.Classes) * len(s.Fractions) * len(core.Techniques()); len(rep.Cells) != want {
		return fmt.Errorf("sweep covered %d cells, want %d (%d MTBFs x %d classes x %d sizes x %d core techniques); a technique may lack check coverage",
			len(rep.Cells), want, len(s.MTBFs), len(s.Classes), len(s.Fractions), len(core.Techniques()))
	}
	if !rep.OK() {
		return fmt.Errorf("audit failed: %d conformance failures, %d invariant violations, %d metamorphic failures, %d metrics reconciliation failures",
			rep.ConformanceFailures(), len(rep.Violations), len(rep.Metamorphic), len(rep.MetricsChecks))
	}
	return nil
}

// goldenExhibits lists the reduced-size exhibits pinned by the golden
// manifest. Trials and patterns are deliberately small: the fixtures exist
// to catch behavioural drift, not to reproduce publication-quality error
// bars, and regenerating them must stay cheap enough for every commit.
func goldenExhibits(cfg experiments.Config) []struct {
	name string
	gen  func() (*report.Table, error)
} {
	// registered runs a registry exhibit at reduced Params, the path
	// exasim and the HTTP service take.
	registered := func(exhibit string, p experiments.Params) func() (*report.Table, error) {
		return func() (*report.Table, error) {
			ex, ok := experiments.Lookup(exhibit)
			if !ok {
				return nil, fmt.Errorf("no exhibit %q", exhibit)
			}
			t, _, err := ex.Run(cfg, p)
			return t, err
		}
	}
	trials20 := experiments.Params{Trials: 20}
	return []struct {
		name string
		gen  func() (*report.Table, error)
	}{
		{"table1", registered("table1", experiments.Params{})},
		{"table2", registered("table2", experiments.Params{})},
		{"fig1", registered("fig1", trials20)},
		{"fig4", registered("fig4", experiments.Params{Patterns: 6})},
		{"fig5", registered("fig5", experiments.Params{Patterns: 6})},
		// The five extension sweeps, at fig1's 20 trials: each varies one
		// parameter the paper holds fixed (MTBF, failure shape, Eq. 4
		// period, blocking checkpoints, the machine).
		{"ext-mtbf", registered("ext-mtbf", trials20)},
		{"ext-weibull", registered("ext-weibull", trials20)},
		{"ext-tau", registered("ext-tau", trials20)},
		{"ext-semiblocking", registered("ext-semiblocking", trials20)},
		{"ext-machines", registered("ext-machines", trials20)},
		{"backfill", registered("ext-backfill", experiments.Params{Patterns: 6})},
		// The serving layer's saturation sweep: a real exaserve behind a
		// virtual clock, so the whole capacity curve is a pure function of
		// the pinned seed (see internal/load).
		{"loadsweep", load.GoldenSweepTable},
		// The heterogeneity study: homogeneous baseline vs. the mixed
		// fleet under both placement policies, reduced to 3 patterns of
		// 40 arrivals.
		{"ext-hetero", registered("ext-hetero", experiments.Params{Patterns: 3, Arrivals: 40})},
		// The expanded-menu selection study, reduced to two MTBFs, three
		// sizes, and three probe pairs per arm: enough cells to pin where
		// the post-2017 techniques dethrone the 2017 winners.
		{"ext-menu2", func() (*report.Table, error) {
			t, _, err := experiments.Menu2Spec{
				Config:       cfg,
				MTBFs:        []units.Duration{10 * units.Year, units.Duration(2.5) * units.Year},
				Fractions:    []float64{0.01, 0.12, 0.50},
				PairedTrials: 3,
			}.Run()
			return t, err
		}},
	}
}

// runGolden regenerates the golden exhibits and compares (or, with update
// set, rewrites) the digest manifest and CSV fixtures.
func runGolden(dir string, seed uint64, workers int, update bool) error {
	cfg := experiments.Default()
	if seed != 0 {
		cfg.Seed = seed
	}
	cfg.Workers = workers

	digests := map[string]string{}
	csvs := map[string][]byte{}
	for _, ex := range goldenExhibits(cfg) {
		start := time.Now()
		t, err := ex.gen()
		if err != nil {
			return fmt.Errorf("golden %s: %w", ex.name, err)
		}
		var buf bytes.Buffer
		if err := t.WriteCSV(&buf); err != nil {
			return fmt.Errorf("golden %s: %w", ex.name, err)
		}
		digests[ex.name] = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		csvs[ex.name] = buf.Bytes()
		fmt.Printf("golden %-16s %s  (%v)\n", ex.name, digests[ex.name][:16], time.Since(start).Round(time.Millisecond))
	}

	manifestPath := filepath.Join(dir, "manifest.txt")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var names []string
		for name := range digests {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# sha256 digests of the reduced-size golden exhibits.\n")
		b.WriteString("# Regenerate with: exacheck -update golden\n")
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", digests[name], name)
			if err := os.WriteFile(filepath.Join(dir, name+".csv"), csvs[name], 0o644); err != nil {
				return err
			}
		}
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("golden manifest rewritten at %s\n", manifestPath)
		return nil
	}

	want, err := readManifest(manifestPath)
	if err != nil {
		return fmt.Errorf("golden: %w (run `exacheck -update golden` to create fixtures)", err)
	}
	var diverged []string
	for name, digest := range digests {
		pinned, ok := want[name]
		if !ok {
			diverged = append(diverged, fmt.Sprintf("%s: not in manifest", name))
			continue
		}
		if pinned != digest {
			diverged = append(diverged, fmt.Sprintf("%s: digest %s, manifest pins %s", name, digest[:16], pinned[:16]))
		}
	}
	for name := range want {
		if _, ok := digests[name]; !ok {
			diverged = append(diverged, fmt.Sprintf("%s: in manifest but no longer generated", name))
		}
	}
	if len(diverged) > 0 {
		sort.Strings(diverged)
		return fmt.Errorf("golden exhibits diverged (intentional? rerun with -update and justify):\n  %s",
			strings.Join(diverged, "\n  "))
	}
	fmt.Printf("golden: %d exhibits match the manifest\n", len(digests))
	return nil
}

// readManifest parses "digest  name" lines, ignoring comments and blanks.
func readManifest(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || len(fields[0]) != 64 {
			return nil, fmt.Errorf("%s:%d: want \"<sha256>  <name>\"", path, i+1)
		}
		m[fields[1]] = fields[0]
	}
	return m, nil
}
