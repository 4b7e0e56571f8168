package exaresil

import (
	"fmt"

	"exaresil/internal/appsim"
	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/selection"
	"exaresil/internal/stats"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Domain types re-exported from the internal packages. The aliases are the
// public API; the internal packages remain free to grow private helpers.
type (
	// Machine describes the simulated platform hardware.
	Machine = machine.Config
	// Network describes the interconnect.
	Network = machine.Network
	// Node describes one machine node.
	Node = machine.Node
	// App is an application descriptor.
	App = workload.App
	// AppClass is a synthetic benchmark class (Table I of the paper).
	AppClass = workload.Class
	// Pattern is a generated arrival pattern.
	Pattern = workload.Pattern
	// PatternSpec configures arrival-pattern generation.
	PatternSpec = workload.PatternSpec
	// Bias selects an arrival-pattern population.
	Bias = workload.Bias
	// Technique identifies a resilience technique.
	Technique = core.Technique
	// Scheduler identifies a resource-management heuristic.
	Scheduler = core.Scheduler
	// Executor is the read-only description of one application under
	// one technique; RunApp, TraceApp and Study run it.
	Executor = resilience.Executor
	// Result is one simulated execution's outcome.
	Result = resilience.Result
	// TrialStats aggregates a Monte-Carlo study.
	TrialStats = appsim.TrialStats
	// ClusterSpec configures a cluster simulation.
	ClusterSpec = cluster.Spec
	// ClusterMetrics aggregates a cluster simulation.
	ClusterMetrics = cluster.Metrics
	// Selector chooses techniques per application (Resilience Selection).
	Selector = selection.Selector
	// SelectorOptions tunes selector construction.
	SelectorOptions = selection.Options
	// SeverityPMF is the failure severity distribution.
	SeverityPMF = failures.SeverityPMF
	// Duration is simulated time in minutes.
	Duration = units.Duration
	// Summary is a frozen statistical summary.
	Summary = stats.Summary
)

// The resilience techniques (paper Section IV).
const (
	// Ideal is the failure-free, overhead-free baseline.
	Ideal = core.Ideal
	// CheckpointRestart is blocking checkpointing to the PFS.
	CheckpointRestart = core.CheckpointRestart
	// MultilevelCheckpoint is the three-level scheme of Moody et al.
	MultilevelCheckpoint = core.MultilevelCheckpoint
	// ParallelRecovery is message logging with parallelized rework.
	ParallelRecovery = core.ParallelRecovery
	// PartialRedundancy replicates half the virtual nodes (r = 1.5).
	PartialRedundancy = core.PartialRedundancy
	// FullRedundancy replicates every virtual node (r = 2.0).
	FullRedundancy = core.FullRedundancy
	// InMemoryReplicatedCheckpoint keeps checkpoints replicated in peer
	// memory, ReStore-style (post-2017 extension).
	InMemoryReplicatedCheckpoint = core.InMemoryReplicatedCheckpoint
	// LightweightReplication runs two loosely-synchronized teams,
	// TeaMPI-style (post-2017 extension).
	LightweightReplication = core.LightweightReplication
)

// The resource-management heuristics (paper Section III-D).
const (
	// FCFS maps applications strictly in arrival order.
	FCFS = core.FCFS
	// RandomOrder maps applications in random order.
	RandomOrder = core.RandomOrder
	// SlackBased prioritizes the least schedule slack and drops hopeless
	// applications.
	SlackBased = core.SlackBased
)

// The arrival-pattern populations of the Section VII study.
const (
	// Unbiased draws from all classes and sizes.
	Unbiased = workload.Unbiased
	// HighMemoryBias draws only 64 GB/node classes.
	HighMemoryBias = workload.HighMemory
	// HighCommBias draws only classes with T_C > 0.25.
	HighCommBias = workload.HighComm
	// LargeAppsBias draws only the 12-50% machine sizes.
	LargeAppsBias = workload.LargeApps
)

// The eight synthetic benchmark classes of Table I.
var (
	ClassA32 = workload.A32
	ClassA64 = workload.A64
	ClassB32 = workload.B32
	ClassB64 = workload.B64
	ClassC32 = workload.C32
	ClassC64 = workload.C64
	ClassD32 = workload.D32
	ClassD64 = workload.D64
)

// Classes returns the eight Table I application classes.
func Classes() []AppClass { return workload.Classes() }

// Techniques returns the full technique menu: the paper's five variants
// plus the post-2017 extensions.
func Techniques() []Technique { return core.Techniques() }

// Schedulers returns the three resource-management heuristics.
func Schedulers() []Scheduler { return core.Schedulers() }

// ExascaleMachine returns the paper's projected 120,000-node exascale
// platform.
func ExascaleMachine() Machine { return machine.Exascale() }

// SunwayTaihuLight returns the contemporary reference machine.
func SunwayTaihuLight() Machine { return machine.SunwayTaihuLight() }

// Simulation bundles a machine, a failure model, and technique parameters:
// the environment every study runs in. Construct with New; a Simulation is
// immutable and safe for concurrent use.
type Simulation struct {
	machine machine.Config
	pmf     failures.SeverityPMF
	resCfg  resilience.Config
	model   *failures.Model
}

// Option configures a Simulation.
type Option func(*simOptions)

type simOptions struct {
	machine      machine.Config
	pmf          failures.SeverityPMF
	resCfg       resilience.Config
	weibullShape float64
}

// WithMachine selects the platform (default: ExascaleMachine).
func WithMachine(m Machine) Option {
	return func(o *simOptions) { o.machine = m }
}

// WithMTBF overrides the per-node mean time between failures.
func WithMTBF(mtbf Duration) Option {
	return func(o *simOptions) { o.machine = o.machine.WithMTBF(mtbf) }
}

// WithSeverityPMF overrides the failure severity distribution.
func WithSeverityPMF(pmf SeverityPMF) Option {
	return func(o *simOptions) { o.pmf = pmf }
}

// WithRecoverySpeedup overrides Parallel Recovery's rework speedup phi.
func WithRecoverySpeedup(phi float64) Option {
	return func(o *simOptions) { o.resCfg.RecoverySpeedup = phi }
}

// New constructs a Simulation. With no options it models the paper's
// exascale machine at a ten-year component MTBF.
func New(opts ...Option) (*Simulation, error) {
	o := simOptions{
		machine:      machine.Exascale(),
		pmf:          failures.DefaultSeverityPMF(),
		resCfg:       resilience.DefaultConfig(),
		weibullShape: 1,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.machine.Validate(); err != nil {
		return nil, err
	}
	if err := o.resCfg.Validate(); err != nil {
		return nil, err
	}
	model, err := failures.NewWeibullModel(o.machine.MTBF, o.pmf, o.weibullShape)
	if err != nil {
		return nil, err
	}
	return &Simulation{
		machine: o.machine,
		pmf:     o.pmf,
		resCfg:  o.resCfg,
		model:   model,
	}, nil
}

// Machine reports the simulated platform.
func (s *Simulation) Machine() Machine { return s.machine }

// Executor builds the executor for one (technique, application) pair.
func (s *Simulation) Executor(t Technique, app App) (*Executor, error) {
	return resilience.New(t, app, s.machine, s.model, s.resCfg)
}

// RunApp simulates a single execution of app under technique t, beginning
// at time zero, with randomness drawn from seed. The run is abandoned
// (Result.Completed false) if it exceeds 100x the baseline execution time.
func (s *Simulation) RunApp(t Technique, app App, seed uint64) (Result, error) {
	return s.TraceApp(t, app, seed, nil)
}

// TraceApp is RunApp reporting each state transition of the run to obs
// (nil observes nothing). The Ideal baseline and blocked runs emit no
// events.
func (s *Simulation) TraceApp(t Technique, app App, seed uint64, obs func(TraceEvent)) (Result, error) {
	x, err := s.Executor(t, app)
	if err != nil {
		return Result{}, err
	}
	rt := resilience.NewRuntime(nil)
	rt.Observer = obs
	horizon := Duration(appsim.DefaultHorizonFactor * float64(app.Baseline()))
	return rt.Run(x, horizon, rng.New(seed)), nil
}

// Study runs a Monte-Carlo study: trials independent executions of app
// under t, aggregated. Trials are distributed over all CPUs; results are
// reproducible for a given seed regardless of parallelism.
func (s *Simulation) Study(t Technique, app App, trials int, seed uint64) (TrialStats, error) {
	if trials <= 0 {
		return TrialStats{}, fmt.Errorf("exaresil: trials must be positive, got %d", trials)
	}
	x, err := s.Executor(t, app)
	if err != nil {
		return TrialStats{}, err
	}
	return appsim.Run(appsim.TrialSpec{Executor: x, Trials: trials, Seed: seed}), nil
}

// GeneratePattern creates an arrival pattern for this simulation's machine.
func (s *Simulation) GeneratePattern(spec PatternSpec, seed uint64) Pattern {
	return spec.Generate(s.machine, rng.New(seed))
}

// RunCluster simulates an oversubscribed cluster serving pattern under the
// given scheduler and resilience technique.
func (s *Simulation) RunCluster(sch Scheduler, t Technique, pattern Pattern, seed uint64) (ClusterMetrics, error) {
	return cluster.Run(cluster.Spec{
		Machine:    s.machine,
		Model:      s.model,
		Scheduler:  sch,
		Technique:  t,
		Resilience: s.resCfg,
		Pattern:    pattern,
		Seed:       seed,
	})
}

// RunClusterWithSelector is RunCluster with per-application Resilience
// Selection instead of a fixed technique.
func (s *Simulation) RunClusterWithSelector(sch Scheduler, sel *Selector, pattern Pattern, seed uint64) (ClusterMetrics, error) {
	if sel == nil {
		return ClusterMetrics{}, fmt.Errorf("exaresil: nil selector")
	}
	return cluster.Run(cluster.Spec{
		Machine:    s.machine,
		Model:      s.model,
		Scheduler:  sch,
		Chooser:    sel.Choose,
		Resilience: s.resCfg,
		Pattern:    pattern,
		Seed:       seed,
	})
}

// BuildSelector probes the technique/size grid and returns a Resilience
// Selection policy for this simulation's environment.
func (s *Simulation) BuildSelector(opts SelectorOptions) (*Selector, error) {
	return selection.NewSelector(s.machine, s.model, s.resCfg, opts, nil)
}
