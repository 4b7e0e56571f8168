// Package selection implements the paper's Section VII "Resilience
// Selection": letting the resource manager pick, per application, the
// resilience technique most likely to give it the best performance.
//
// The selector is built the same way the paper derives its policy — from
// the Section V scaling study. At construction it probes every
// (application class, size) cell of a grid with a short Monte-Carlo study
// per candidate technique and remembers the winner; at scheduling time an
// arriving application is matched to its class and nearest size bucket.
package selection

import (
	"fmt"
	"math"
	"sort"

	"exaresil/internal/appsim"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/resilience"
	"exaresil/internal/workload"
)

// Options tunes selector construction.
type Options struct {
	// Techniques are the candidates; nil means the cluster-study trio
	// (Checkpoint Restart, Multilevel, Parallel Recovery).
	Techniques []core.Technique
	// SizeFractions is the probing grid; nil means the cluster-study
	// size population.
	SizeFractions []float64
	// Trials is the number of Monte-Carlo probes per cell per technique
	// (default 20 when PairedTrials is zero). Mutually exclusive with
	// PairedTrials; negative values are rejected.
	Trials int
	// PairedTrials, when positive, switches probing to variance-reduced
	// mode: each technique runs 2*PairedTrials probes as PairedTrials
	// antithetic pairs, and all technique arms of a cell share the same
	// cell-keyed random streams (common random numbers), so arm
	// differences are measured on identical failure draws. The table
	// typically reaches a given confidence width with far fewer probes
	// than the default mode; DESIGN.md §11 details the construction.
	// Mutually exclusive with Trials; negative values are rejected.
	PairedTrials int
	// TimeSteps is the probe application length (default 1440, one day).
	TimeSteps int
	// HorizonFactor bounds probe runs as a multiple of the baseline
	// (default 3, comparable to the deadline slack of the cluster
	// studies).
	HorizonFactor float64
	// Seed drives the probes.
	Seed uint64
	// Workers bounds the simulations probing grid cells concurrently
	// (default GOMAXPROCS): cells spread across them with one trial
	// worker each. Every cell derives its probe seeds from its position
	// in the grid, not from completion order, so the resulting table is
	// identical for every worker count — including 1.
	Workers int
	// Obs, when non-nil, receives the selector's metrics: probe and cell
	// counts, the schedule-cache activity of the table build, and Choose
	// resolutions over the selector's lifetime.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Techniques == nil {
		o.Techniques = core.ClusterTechniques()
	}
	if o.SizeFractions == nil {
		o.SizeFractions = workload.DefaultSizeFractions()
	}
	if o.Trials == 0 && o.PairedTrials == 0 {
		o.Trials = 20
	}
	if o.TimeSteps == 0 {
		o.TimeSteps = 1440
	}
	if o.HorizonFactor == 0 {
		o.HorizonFactor = 3
	}
	return o
}

// cell identifies one entry of the selection table.
type cell struct {
	class    string
	fraction float64
}

// Choice records what the selector learned for one cell.
type Choice struct {
	// Class and Fraction identify the cell.
	Class    workload.Class
	Fraction float64
	// Best is the winning technique.
	Best core.Technique
	// Efficiency is each candidate's mean probe efficiency, indexed as
	// Options.Techniques.
	Efficiency []float64
}

// Selector picks resilience techniques per application.
type Selector struct {
	techniques []core.Technique
	fractions  []float64
	machine    machine.Config
	table      map[cell]Choice
	m          *selectorMetrics
}

// NewSelector builds a selector for the given machine and failure model by
// probing the technique/size grid. Construction cost is that of
// (classes x fractions x techniques x trials) short simulations. Each
// (class, fraction) cell is a probe cell of the one cell loop
// (appsim.Cells): cells spread across Options.Workers with one trial
// worker each, and each cell's probe seeds are fixed by its grid
// position, so the table is bit-identical to a serial build. prog, when
// non-nil, records each probe cell's arm efficiencies, restores recorded
// cells, and stops the build once its context ends. The resulting
// Selector is immutable and safe for concurrent use.
func NewSelector(cfg machine.Config, model *failures.Model, rc resilience.Config, opts Options, prog *appsim.Progress) (*Selector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("selection: nil failure model")
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	if opts.Trials < 0 {
		return nil, fmt.Errorf("selection: trial count %d must be non-negative", opts.Trials)
	}
	if opts.PairedTrials < 0 {
		return nil, fmt.Errorf("selection: paired trial count %d must be non-negative", opts.PairedTrials)
	}
	if opts.Trials > 0 && opts.PairedTrials > 0 {
		return nil, fmt.Errorf("selection: Trials (%d) and PairedTrials (%d) are mutually exclusive",
			opts.Trials, opts.PairedTrials)
	}
	opts = opts.withDefaults()
	if len(opts.Techniques) == 0 {
		return nil, fmt.Errorf("selection: no candidate techniques")
	}
	for _, t := range opts.Techniques {
		if !t.Valid() || t == core.Ideal {
			return nil, fmt.Errorf("selection: invalid candidate technique %v", t)
		}
	}
	if len(opts.SizeFractions) == 0 {
		return nil, fmt.Errorf("selection: no size fractions")
	}

	s := &Selector{
		techniques: opts.Techniques,
		fractions:  append([]float64(nil), opts.SizeFractions...),
		machine:    cfg,
		table:      make(map[cell]Choice),
		m:          newSelectorMetrics(opts.Obs),
	}
	sort.Float64s(s.fractions)
	cacheHits0, cacheMisses0 := resilience.ScheduleCacheStats()

	// Flatten the (class x fraction) grid; cell i's probes are numbered
	// i*len(techniques) .. i*len(techniques)+len(techniques)-1, matching
	// the counter a serial class-major walk would have used.
	type gridCell struct {
		class workload.Class
		frac  float64
	}
	var cells []gridCell
	for _, class := range workload.Classes() {
		for _, frac := range s.fractions {
			cells = append(cells, gridCell{class, frac})
		}
	}
	effs, err := appsim.Cells(prog, len(cells), len(opts.Techniques), opts.Workers, true, func(i, workers int) ([]float64, error) {
		return probeCell(cfg, model, rc, opts, cells[i].class, cells[i].frac, uint64(i), workers)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		// The winner is the first arm with the strictly highest mean.
		choice := Choice{Class: c.class, Fraction: c.frac, Best: opts.Techniques[0], Efficiency: effs[i]}
		bestEff := math.Inf(-1)
		for ti, e := range effs[i] {
			if e > bestEff {
				bestEff, choice.Best = e, opts.Techniques[ti]
			}
		}
		s.table[cell{c.class.Name, c.frac}] = choice
	}
	s.m.observeBuild(len(cells), len(opts.Techniques), opts.Trials+2*opts.PairedTrials, cacheHits0, cacheMisses0)
	return s, nil
}

// probeCell evaluates every candidate technique on one (class, fraction)
// grid cell and returns their mean probe efficiencies, indexed as
// opts.Techniques. cellIndex is the cell's position in the flattened
// class-major grid; in the default mode the k-th candidate uses probe
// number cellIndex*len(techniques)+k, so seeds depend only on grid
// position. In paired mode (Options.PairedTrials > 0) every candidate
// instead shares the cell-keyed substream family (common random numbers)
// and runs its trials as antithetic pairs.
func probeCell(cfg machine.Config, model *failures.Model, rc resilience.Config, opts Options,
	class workload.Class, frac float64, cellIndex uint64, workers int) ([]float64, error) {
	app := workload.App{
		ID:        0,
		Class:     class,
		TimeSteps: opts.TimeSteps,
		Nodes:     cfg.NodesForFraction(frac),
	}
	probeBase := cellIndex * uint64(len(opts.Techniques))
	effs := make([]float64, 0, len(opts.Techniques))
	for ti, tech := range opts.Techniques {
		x, err := resilience.New(tech, app, cfg, model, rc)
		if err != nil {
			return nil, fmt.Errorf("selection: probing %v on %s@%.0f%%: %w",
				tech, class.Name, 100*frac, err)
		}
		spec := appsim.TrialSpec{
			Executor:      x,
			HorizonFactor: opts.HorizonFactor,
			Workers:       workers,
		}
		if opts.PairedTrials > 0 {
			// Every arm runs on the same (Seed, Cell) stream family, so the
			// arms see identical failure draws and their efficiency
			// difference is measured with common random numbers.
			spec.Trials = 2 * opts.PairedTrials
			spec.Seed = opts.Seed
			spec.Cell = cellIndex
			spec.Antithetic = true
		} else {
			spec.Trials = opts.Trials
			spec.Seed = opts.Seed ^ ((probeBase + uint64(ti)) * 0x9e3779b97f4a7c15)
		}
		effs = append(effs, appsim.Run(spec).Efficiency.Mean)
	}
	return effs, nil
}

// Techniques reports the candidate set the selector was built over.
func (s *Selector) Techniques() []core.Technique {
	return append([]core.Technique(nil), s.techniques...)
}

// Choose picks the technique for an application: its class's table row at
// the size bucket nearest the application's machine fraction.
func (s *Selector) Choose(app workload.App) core.Technique {
	frac := float64(app.Nodes) / float64(s.machine.Nodes)
	nearest := s.fractions[0]
	for _, f := range s.fractions {
		if math.Abs(f-frac) < math.Abs(nearest-frac) {
			nearest = f
		}
	}
	if c, ok := s.table[cell{app.Class.Name, nearest}]; ok {
		s.m.observeChoose(true)
		return c.Best
	}
	s.m.observeChoose(false)
	// Unknown class (user-defined): fall back to the paper's overall
	// winner, Parallel Recovery, if it is a candidate.
	for _, t := range s.techniques {
		if t == core.ParallelRecovery {
			return t
		}
	}
	return s.techniques[0]
}

// Choices returns the full selection table, ordered by class then size,
// for reports and the selection example.
func (s *Selector) Choices() []Choice {
	out := make([]Choice, 0, len(s.table))
	for _, class := range workload.Classes() {
		for _, frac := range s.fractions {
			if c, ok := s.table[cell{class.Name, frac}]; ok {
				out = append(out, c)
			}
		}
	}
	return out
}
