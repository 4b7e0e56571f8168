package analytic

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Grid describes a batch what-if sweep: every (MTBF, node count,
// technique) combination for one application class, scored with the
// closed-form models. A resource manager answering "what would the
// efficiency landscape look like if the component MTBF halved?" needs
// hundreds of such cells, and the per-call Efficiency entry point spends
// most of its time re-validating inputs and re-deriving per-axis values
// that the grid structure shares; Evaluator hoists all of that out of the
// cell loop.
type Grid struct {
	// Machine is the platform; its own MTBF is ignored in favour of the
	// MTBFs axis.
	Machine machine.Config
	// PMF is the failure-severity distribution.
	PMF failures.SeverityPMF
	// Resilience carries the technique parameters.
	Resilience resilience.Config
	// Class is the application class (checkpoint cost and communication
	// fraction axis collapse into this choice).
	Class workload.Class
	// TimeSteps is T_S per application (default 1440).
	TimeSteps int
	// MTBFs is the failure-rate axis.
	MTBFs []units.Duration
	// Nodes is the application-size axis, in nodes.
	Nodes []int
	// Techniques is the technique axis.
	Techniques []core.Technique
}

// Evaluator scores a Grid in one pass over preallocated column buffers.
// Construction validates the grid once and precomputes everything that is
// constant along an axis — the failure model and machine per MTBF, the
// application and checkpoint costs per node count — so Eval itself
// performs no per-cell allocation: a steady-state Eval is allocation-free
// (the multilevel schedule optimizer fills the evaluator's stretch cache
// on the first pass). An Evaluator is not safe for concurrent use.
type Evaluator struct {
	grid       Grid
	techniques []core.Technique

	// Per-MTBF columns.
	cfgs   []machine.Config
	models []*failures.Model

	// Per-node-count columns (checkpoint costs do not depend on MTBF).
	apps  []workload.App
	costs []resilience.Costs

	// ml caches the multilevel exact stretch per (MTBF, nodes) pair; the
	// optimizer behind it is the only non-trivial cost in the grid and is
	// technique-axis-invariant.
	ml []mlCache

	// eff is the reused output buffer, MTBF-major then nodes then
	// technique.
	eff []float64
}

// NewEvaluator validates the grid and builds the column buffers.
func NewEvaluator(g Grid) (*Evaluator, error) {
	if err := g.Machine.Validate(); err != nil {
		return nil, err
	}
	if err := g.Resilience.Validate(); err != nil {
		return nil, err
	}
	if len(g.MTBFs) == 0 {
		return nil, fmt.Errorf("analytic: batch grid has no MTBFs")
	}
	if len(g.Nodes) == 0 {
		return nil, fmt.Errorf("analytic: batch grid has no node counts")
	}
	if len(g.Techniques) == 0 {
		return nil, fmt.Errorf("analytic: batch grid has no techniques")
	}
	if g.TimeSteps == 0 {
		g.TimeSteps = 1440
	}

	e := &Evaluator{
		grid:       g,
		techniques: append([]core.Technique(nil), g.Techniques...),
		cfgs:       make([]machine.Config, len(g.MTBFs)),
		models:     make([]*failures.Model, len(g.MTBFs)),
		apps:       make([]workload.App, len(g.Nodes)),
		costs:      make([]resilience.Costs, len(g.Nodes)),
		ml:         make([]mlCache, len(g.MTBFs)*len(g.Nodes)),
		eff:        make([]float64, len(g.MTBFs)*len(g.Nodes)*len(g.Techniques)),
	}
	for mi, mtbf := range g.MTBFs {
		e.cfgs[mi] = g.Machine.WithMTBF(mtbf)
		model, err := failures.NewModel(mtbf, g.PMF)
		if err != nil {
			return nil, err
		}
		e.models[mi] = model
	}
	for ni, n := range g.Nodes {
		app := workload.App{Class: g.Class, TimeSteps: g.TimeSteps, Nodes: n}
		if err := app.Validate(); err != nil {
			return nil, err
		}
		if n > g.Machine.Nodes {
			return nil, fmt.Errorf("analytic: grid size %d exceeds machine %q (%d nodes)",
				n, g.Machine.Name, g.Machine.Nodes)
		}
		e.apps[ni] = app
		// Checkpoint costs depend only on the application and the
		// machine's memory/network shape, never on the MTBF axis.
		e.costs[ni] = resilience.ComputeCosts(app, g.Machine)
	}
	for _, t := range g.Techniques {
		if !t.Valid() {
			return nil, fmt.Errorf("analytic: no model for technique %v", t)
		}
	}
	return e, nil
}

// Index flattens a (MTBF, nodes, technique) coordinate into the Eval
// buffer.
func (e *Evaluator) Index(mi, ni, ti int) int {
	return (mi*len(e.grid.Nodes)+ni)*len(e.techniques) + ti
}

// Eval scores every grid cell and returns the efficiency buffer, indexed
// by Index. The buffer is owned by the evaluator and overwritten by the
// next Eval call.
func (e *Evaluator) Eval() []float64 {
	for mi := range e.grid.MTBFs {
		for ni := range e.grid.Nodes {
			c := newCell(e.apps[ni], e.cfgs[mi], e.costs[ni], e.models[mi], e.grid.Resilience)
			c.ml = &e.ml[mi*len(e.grid.Nodes)+ni]
			base := e.Index(mi, ni, 0)
			for ti, t := range e.techniques {
				e.eff[base+ti], _ = c.efficiency(t)
			}
		}
	}
	return e.eff
}

// mlCache is one (MTBF, nodes) pair's multilevel stretch: the schedule
// search runs on the first Eval and its exact stretch is reused by every
// later one.
type mlCache struct {
	stretch float64
	done    bool
}

// efficiency scores the multilevel cell through the cache.
func (m *mlCache) efficiency(c *cell) float64 {
	if !m.done {
		eff, err := multilevelEfficiency(c.app, c.costs, c.model, c.opts)
		m.stretch = 0
		if err == nil && eff > 0 {
			m.stretch = 1 / eff
		}
		m.done = true
	}
	if m.stretch > 0 {
		return clamp01(1 / m.stretch)
	}
	return 0
}
