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

// Params tunes the statistical scale of a registry run. Zero fields take
// the row's Defaults (the scale results/ was generated with), so the zero
// Params reproduces the published exhibits exactly.
type Params struct {
	// Trials is the Monte-Carlo repetition count for trial-based exhibits
	// (figures 1-3, ext-energy, the five ext-* sweeps); ext-menu2 runs
	// Trials/2 antithetic pairs per arm and policy Trials/4 probes per
	// cell, each at least 1 (see Exhibit.Resolve).
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

// Exhibit is one registry entry.
type Exhibit struct {
	// Name is the exhibit's CLI and API identifier.
	Name string
	// Group is "paper" for the paper's own exhibits, "ext" for the
	// repository extensions.
	Group string
	// Chart names the bar-chart shape of the structured result.
	Chart ChartKind
	// Defaults is the scale results/ was generated with: 200 trials and
	// 50 patterns as the exhibit spends them, and its driver's arrivals.
	// A zero field is one the exhibit does not read.
	Defaults Params

	// trialUnit is the trials one unit of the exhibit's work spends: 2 per
	// antithetic pair of ext-menu2, 4 per probe of policy; 0 is 1.
	trialUnit int
	run       func(cfg Config, p Params) (*report.Table, any, error)
}

// Resolve fills p's zero scale fields from the row's Defaults and rounds
// Trials down to whole units of work, at least one: the parameters Run
// runs the exhibit at, so equal work resolves alike.
func (e Exhibit) Resolve(p Params) Params {
	if p.Trials == 0 {
		p.Trials = e.Defaults.Trials
	}
	if u := e.trialUnit; u > 1 {
		p.Trials = u * max(1, p.Trials/u)
	}
	if p.Patterns == 0 {
		p.Patterns = e.Defaults.Patterns
	}
	if p.Arrivals == 0 {
		p.Arrivals = e.Defaults.Arrivals
	}
	return p
}

// Run regenerates the exhibit at Resolve(p). The any value is the
// driver's structured result (SweepResult, ClusterResult, ...), nil for
// table-only exhibits.
func (e Exhibit) Run(cfg Config, p Params) (*report.Table, any, error) {
	return e.run(cfg, e.Resolve(p))
}

// typed adapts a driver's typed result to the registry's any.
func typed[R any](t *report.Table, r R, err error) (*report.Table, any, error) {
	return t, r, err
}

// registry lists every exhibit in display order: the paper's exhibits
// first (the "all" group), then the extensions (the "ext-all" group).
var registry = []Exhibit{
	{Name: "table1", Group: "paper", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return TableI(), nil, nil
		}},
	{Name: "table2", Group: "paper", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			t, err := TableII(cfg)
			return t, nil, err
		}},
	// Figures 1-3: the scaling study for A32 and D64 at the machine's
	// ten-year MTBF, then D64 again at a 2.5-year MTBF.
	{Name: "fig1", Defaults: Params{Trials: 200}, Group: "paper", Chart: ChartScaling,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(ScalingSpec{Config: cfg, Class: workload.A32, Trials: p.Trials}.Run())
		}},
	{Name: "fig2", Defaults: Params{Trials: 200}, Group: "paper", Chart: ChartScaling,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(ScalingSpec{Config: cfg, Class: workload.D64, Trials: p.Trials}.Run())
		}},
	{Name: "fig3", Defaults: Params{Trials: 200}, Group: "paper", Chart: ChartScaling,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(ScalingSpec{Config: cfg, Class: workload.D64,
				MTBF: units.Duration(2.5) * units.Year, Trials: p.Trials}.Run())
		}},
	{Name: "fig4", Defaults: Params{Patterns: 50, Arrivals: 100}, Group: "paper", Chart: ChartCluster,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(ClusterSpec{Config: cfg, Patterns: p.Patterns,
				Arrivals: p.Arrivals, Paired: p.Paired}.Run())
		}},
	{Name: "fig5", Defaults: Params{Patterns: 50, Arrivals: 100}, Group: "paper", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(SelectionSpec{Config: cfg, Patterns: p.Patterns,
				Arrivals: p.Arrivals, Paired: p.Paired, Selection: p.Selection}.Run())
		}},
	{Name: "ext-energy", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(EnergySpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-mtbf", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(MTBFSweepSpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-weibull", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(WeibullSpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-backfill", Defaults: Params{Patterns: 50, Arrivals: 100}, Group: "ext", Chart: ChartCluster,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(BackfillSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run())
		}},
	{Name: "ext-selectors", Defaults: Params{Patterns: 50, Arrivals: 60}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(SelectorAgreementSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run())
		}},
	{Name: "ext-tau", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(TauSweepSpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-semiblocking", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(SemiBlockingSpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-machines", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(MachinesSpec{Config: cfg, Trials: p.Trials}.Run())
		}},
	{Name: "ext-whatif", Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(WhatIfSpec{Config: cfg}.Run())
		}},
	{Name: "ext-hetero", Defaults: Params{Patterns: 50, Arrivals: 60}, Group: "ext", Chart: ChartNone,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(HeteroSpec{Config: cfg, Patterns: p.Patterns, Arrivals: p.Arrivals}.Run())
		}},
	{Name: "ext-menu2", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone, trialUnit: 2,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			return typed(Menu2Spec{Config: cfg, PairedTrials: p.Trials / 2}.Run())
		}},
	{Name: "policy", Defaults: Params{Trials: 200}, Group: "ext", Chart: ChartNone, trialUnit: 4,
		run: func(cfg Config, p Params) (*report.Table, any, error) {
			opts := p.Selection
			if opts.Trials == 0 {
				opts.Trials = p.Trials / 4
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
