package exaresil

import (
	"exaresil/internal/analytic"
	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/energy"
	"exaresil/internal/resilience"
	"exaresil/internal/trace"
	"exaresil/internal/workload"
)

// This file exposes the repository's extensions beyond the paper's own
// studies: energy accounting, analytic (closed-form) efficiency models,
// execution tracing, and the EASY-backfill scheduler.

// EASYBackfill is FCFS with EASY backfilling, a scheduler extension beyond
// the paper's three heuristics.
const EASYBackfill = core.EASYBackfill

// AllSchedulers lists every heuristic including the backfill extension.
func AllSchedulers() []Scheduler { return core.AllSchedulers() }

// Energy accounting types.
type (
	// PowerModel is the per-node power draw in each execution state.
	PowerModel = energy.PowerModel
	// EnergyBreakdown decomposes one execution's energy by phase.
	EnergyBreakdown = energy.Breakdown
	// Joules is electrical energy.
	Joules = energy.Joules
)

// DefaultPowerModel returns the projected exascale node power model.
func DefaultPowerModel() PowerModel { return energy.Default() }

// EnergyOf computes the energy breakdown of a simulated execution that
// occupied physicalNodes machine nodes (Executor.PhysicalNodes), under the
// given power model.
func (s *Simulation) EnergyOf(res Result, physicalNodes int, pm PowerModel) (EnergyBreakdown, error) {
	return energy.Account(res, physicalNodes, s.resCfg.RecoverySpeedup, pm)
}

// PredictEfficiency reports the closed-form first-order expected efficiency
// of running app under technique t — the analytic counterpart of Study,
// validated against the simulator in internal/analytic's tests.
func (s *Simulation) PredictEfficiency(t Technique, app App) (float64, error) {
	return analytic.Efficiency(t, app, s.machine, s.model, s.resCfg)
}

// AnalyticSelector is a Resilience Selection policy computed from the
// closed-form models: thousands of times faster to build than the
// Monte-Carlo Selector, at the cost of first-order accuracy.
type AnalyticSelector = analytic.Selector

// BuildAnalyticSelector returns the closed-form selection policy over the
// given candidate techniques (nil means Checkpoint Restart, Multilevel,
// and Parallel Recovery).
func (s *Simulation) BuildAnalyticSelector(candidates []Technique) (*AnalyticSelector, error) {
	return analytic.NewSelector(candidates, s.machine, s.model, s.resCfg)
}

// RunClusterWithChooser is RunCluster with an arbitrary per-application
// technique policy; both selector kinds' Choose methods satisfy it.
func (s *Simulation) RunClusterWithChooser(sch Scheduler, choose func(App) Technique, pattern Pattern, seed uint64) (ClusterMetrics, error) {
	return cluster.Run(cluster.Spec{
		Machine:    s.machine,
		Model:      s.model,
		Scheduler:  sch,
		Chooser:    cluster.TechniqueChooser(choose),
		Resilience: s.resCfg,
		Pattern:    pattern,
		Seed:       seed,
	})
}

// Execution tracing types.
type (
	// TraceEvent is one observed state transition of a simulated run.
	TraceEvent = resilience.TraceEvent
	// TraceRecorder accumulates trace events; pass its Observe to TraceApp.
	TraceRecorder = trace.Recorder
	// TraceSummary aggregates a recorded trace.
	TraceSummary = trace.Summary
)

// WithSemiBlockingCheckpoints is a Simulation option enabling the
// semi-blocking checkpoint extension: applications keep computing at the
// given rate (in [0, 1)) while checkpoints are written, instead of the
// paper's fully blocking model.
func WithSemiBlockingCheckpoints(rate float64) Option {
	return func(o *simOptions) { o.resCfg.CheckpointComputeRate = rate }
}

// WithWeibullFailures is a Simulation option selecting Weibull-distributed
// failure inter-arrival times of the given shape at the machine's MTBF
// (shape 1 is the paper's Poisson assumption; smaller shapes are
// burstier).
func WithWeibullFailures(shape float64) Option {
	return func(o *simOptions) { o.weibullShape = shape }
}

// chooserFromWorkload adapts the internal chooser type for documentation
// examples; kept unexported and referenced to pin the type identity.
var _ cluster.TechniqueChooser = func(workload.App) core.Technique { return core.ParallelRecovery }
