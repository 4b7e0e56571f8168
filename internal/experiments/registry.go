package experiments

// This file is the exhibit registry: the single table mapping every
// exhibit name — the paper's tables and figures plus the repository's
// extension studies — to the driver that regenerates it. cmd/exasim,
// cmd/exabench, and internal/serve all resolve names here, so adding an
// exhibit in one place makes it addressable from the CLI, the benchmark
// harness, and the HTTP service at once.

import (
	"fmt"
	"sort"
	"strings"

	"exaresil/internal/report"
	"exaresil/internal/selection"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// ChartKind tells renderers which bar-chart shape suits an exhibit's
// structured result.
type ChartKind int

// The chart shapes the registry distinguishes.
const (
	// ChartNone marks exhibits with no natural bar rendering.
	ChartNone ChartKind = iota
	// ChartScaling marks exhibits whose result is a SweepResult over
	// machine fractions (figures 1-3).
	ChartScaling
	// ChartCluster marks exhibits whose result is a ClusterResult.
	ChartCluster
)

// Params tunes the statistical scale of a registry run. Zero fields keep
// each driver's own defaults (the paper's scales), so the zero Params
// reproduces the published exhibits exactly.
type Params struct {
	// Trials is the Monte-Carlo repetition count for trial-based exhibits
	// (figures 1-3, ext-energy, the five ext-* sweeps); ext-menu2 runs
	// Trials/2 antithetic pairs per arm and policy Trials/4 probes per
	// cell, each at least 1.
	Trials int
	// Patterns is the arrival-pattern count for cluster exhibits
	// (figures 4-5, ext-backfill, ext-selectors, ext-hetero).
	Patterns int
	// Arrivals is the applications-per-pattern count for cluster exhibits.
	Arrivals int
	// Paired switches cluster exhibits (figures 4-5) to antithetic
	// pattern pairs — the variance-reduced mode (see ClusterSpec.Paired).
	Paired bool
	// Selection tunes selector construction for fig5 (zero value = the
	// driver defaults).
	Selection selection.Options
}

// share derives a count from Trials for exhibits that spend it in
// bigger units (ext-menu2's antithetic pairs, policy's per-cell probes):
// Trials/div, floored at 1 when Trials is positive, since a derived 0
// reads as "use the driver's default" and would run more, not less.
func (p Params) share(div int) int {
	if p.Trials > 0 {
		return max(1, p.Trials/div)
	}
	return p.Trials / div
}

// Exhibit is one registry entry.
type Exhibit struct {
	// Name is the exhibit's CLI and API identifier.
	Name string
	// Group is "paper" for the paper's own exhibits, "ext" for the
	// repository extensions.
	Group string
	// Chart names the bar-chart shape of the structured result.
	Chart ChartKind
	// Run regenerates the exhibit. The any value is the driver's
	// structured result (SweepResult, ClusterResult, ...), nil for
	// table-only exhibits.
	Run func(cfg Config, p Params) (*report.Table, any, error)
}

// registry lists every exhibit in display order: the paper's exhibits
// first (the "all" group), then the extensions (the "ext-all" group).
var registry = []Exhibit{
	{Name: "table1", Group: "paper", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			return TableI(), nil, nil
		}},
	{Name: "table2", Group: "paper", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, err := TableII(cfg)
			return t, nil, err
		}},
	// Figures 1-3: the scaling study for A32 and D64 at the machine's
	// ten-year MTBF, then D64 again at a 2.5-year MTBF.
	{Name: "fig1", Group: "paper", Chart: ChartScaling,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := ScalingSpec{Config: cfg, Class: workload.A32, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "fig2", Group: "paper", Chart: ChartScaling,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := ScalingSpec{Config: cfg, Class: workload.D64, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "fig3", Group: "paper", Chart: ChartScaling,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := ScalingSpec{Config: cfg, Class: workload.D64,
				MTBF: units.Duration(2.5) * units.Year, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "fig4", Group: "paper", Chart: ChartCluster,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := ClusterSpec{Config: cfg, Patterns: p.Patterns,
				Arrivals: p.Arrivals, Paired: p.Paired}.Run()
			return t, res, err
		}},
	{Name: "fig5", Group: "paper", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := SelectionSpec{Config: cfg, Patterns: p.Patterns,
				Arrivals: p.Arrivals, Paired: p.Paired, Selection: p.Selection}.Run()
			return t, res, err
		}},
	{Name: "ext-energy", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := EnergySpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-mtbf", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := MTBFSweepSpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-weibull", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := WeibullSpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-backfill", Group: "ext", Chart: ChartCluster,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := BackfillSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run()
			return t, res, err
		}},
	{Name: "ext-selectors", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := SelectorAgreementSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run()
			return t, res, err
		}},
	{Name: "ext-tau", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := TauSweepSpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-semiblocking", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := SemiBlockingSpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-machines", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := MachinesSpec{Config: cfg, Trials: p.Trials}.Run()
			return t, res, err
		}},
	{Name: "ext-whatif", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := WhatIfSpec{Config: cfg}.Run()
			return t, res, err
		}},
	{Name: "ext-hetero", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := HeteroSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run()
			return t, res, err
		}},
	{Name: "ext-menu2", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, res, err := Menu2Spec{Config: cfg, PairedTrials: p.share(2)}.Run()
			return t, res, err
		}},
	{Name: "policy", Group: "ext", Chart: ChartNone,
		Run: func(cfg Config, p Params) (*report.Table, any, error) {
			opts := p.Selection
			if opts.Trials == 0 {
				opts.Trials = p.share(4)
			}
			t, err := PolicyTable(cfg, opts)
			return t, nil, err
		}},
}

// Exhibits returns the registry in display order.
func Exhibits() []Exhibit {
	return append([]Exhibit(nil), registry...)
}

// Lookup finds an exhibit by name.
func Lookup(name string) (Exhibit, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Exhibit{}, false
}

// Names lists every exhibit name in display order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// GroupNames lists the expandable group aliases.
func GroupNames() []string { return []string{"all", "ext-all"} }

// expandGroup resolves a group alias to its member names, or nil when the
// name is not a group.
func expandGroup(name string) []string {
	var group string
	switch name {
	case "all":
		group = "paper"
	case "ext-all":
		group = "ext"
	default:
		return nil
	}
	var out []string
	for _, e := range registry {
		if e.Group == group {
			out = append(out, e.Name)
		}
	}
	return out
}

// ExpandNames resolves a mixed list of exhibit and group names ("all",
// "ext-all") into concrete exhibit names, in the order given, validating
// every name before anything runs. An empty list expands to "all".
func ExpandNames(names []string) ([]string, error) {
	if len(names) == 0 {
		names = []string{"all"}
	}
	var out []string
	for _, name := range names {
		if members := expandGroup(name); members != nil {
			out = append(out, members...)
			continue
		}
		if _, ok := Lookup(name); !ok {
			return nil, fmt.Errorf("unknown exhibit %q (want %s)", name, nameHint())
		}
		out = append(out, name)
	}
	return out, nil
}

// nameHint renders the accepted names for error messages.
func nameHint() string {
	names := append(Names(), GroupNames()...)
	sort.Strings(names)
	return strings.Join(names, ", ")
}
