// Package failures models when, where, and how severely the simulated
// system fails.
//
// Following Section III-E of the paper, a failure has three independent
// random attributes:
//
//   - time: failures form a Poisson process whose rate is the number of
//     non-idle nodes divided by the per-node MTBF (Eq. 2);
//   - location: the failed node is uniform over the active nodes, so by
//     Poisson thinning each application experiences an independent Poisson
//     failure process with rate N_a / M_n;
//   - severity: a three-level discrete distribution consumed by multilevel
//     checkpointing to decide which checkpoint level a recovery needs.
//
// The paper takes its severity ratios from the BlueGene/L failure-log
// analysis used by Moody et al.; those logs are not published alongside the
// paper, so this package defaults to (0.65, 0.25, 0.10) — preserving the
// property every multilevel-checkpointing study relies on, that the large
// majority of failures are recoverable at the cheapest level — and exposes
// the distribution as configuration.
package failures

import (
	"fmt"

	"exaresil/internal/rng"
	"exaresil/internal/units"
)

// Severity classifies how much of the checkpoint hierarchy a failure
// destroys. Higher severities require restoring from slower, more durable
// checkpoint levels.
type Severity int

// The three severity levels of the Moody et al. model.
const (
	// SeverityTransient (level 1) leaves node memory intact: a local RAM
	// checkpoint suffices for recovery (e.g. a software error).
	SeverityTransient Severity = 1
	// SeverityNodeLoss (level 2) destroys the failed node's memory: the
	// partner-node checkpoint copy is required.
	SeverityNodeLoss Severity = 2
	// SeverityCatastrophic (level 3) takes out the node and its partner
	// (e.g. correlated hardware faults): only the parallel file system
	// checkpoint survives.
	SeverityCatastrophic Severity = 3
)

// NumSeverities is the number of severity levels.
const NumSeverities = 3

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityTransient:
		return "transient"
	case SeverityNodeLoss:
		return "node-loss"
	case SeverityCatastrophic:
		return "catastrophic"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// SeverityPMF is the probability of each severity level, indexed by
// level-1. It is the lambda_Lj / lambda_Lt ratio vector of Section III-E.
type SeverityPMF [NumSeverities]float64

// DefaultSeverityPMF returns the repository's stand-in for the BlueGene/L
// level ratios (see the package comment and DESIGN.md §5).
func DefaultSeverityPMF() SeverityPMF { return SeverityPMF{0.65, 0.25, 0.10} }

// Validate reports whether the PMF is a usable distribution (non-negative,
// positive total; it tolerates unnormalized weights).
func (p SeverityPMF) Validate() error {
	total := 0.0
	for i, w := range p {
		if w < 0 {
			return fmt.Errorf("failures: severity weight %d is negative (%v)", i+1, w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("failures: severity weights sum to zero")
	}
	return nil
}

// Failure is one failure occurrence.
type Failure struct {
	// Time is when the failure strikes.
	Time units.Duration
	// Node is the index of the failed node within the affected scope
	// (application-local for Process, machine-global for SystemProcess).
	Node int
	// Severity is the failure's severity level.
	Severity Severity
}

// String renders the failure for traces.
func (f Failure) String() string {
	return fmt.Sprintf("failure@%s node=%d sev=%s", f.Time, f.Node, f.Severity)
}

// Model bundles the reliability parameters shared by all failure processes
// of a study.
type Model struct {
	mtbf       units.Duration
	severities *rng.Discrete
	pmf        SeverityPMF
	shape      float64 // Weibull inter-arrival shape; 1 = exponential
}

// NewModel constructs a failure model from a per-node MTBF and a severity
// distribution, with exponentially distributed inter-arrival times (the
// Poisson process of Section III-E).
func NewModel(mtbf units.Duration, pmf SeverityPMF) (*Model, error) {
	return NewWeibullModel(mtbf, pmf, 1)
}

// NewWeibullModel is NewModel with Weibull-distributed inter-arrival times
// of the given shape, keeping the same mean (the MTBF). Shape 1 is the
// exponential case; shapes below 1 reproduce the decreasing hazard rates
// several HPC failure-log studies report, and are used by the sensitivity
// study to test how much the Poisson assumption matters.
//
// Note that only the exponential case makes per-application processes an
// exact thinning of the system process; for other shapes the per-app
// process is a renewal process with the same marginal inter-arrival
// distribution, a standard approximation.
func NewWeibullModel(mtbf units.Duration, pmf SeverityPMF, shape float64) (*Model, error) {
	if mtbf <= 0 {
		return nil, fmt.Errorf("failures: MTBF %v must be positive", mtbf)
	}
	if err := pmf.Validate(); err != nil {
		return nil, err
	}
	if shape <= 0 {
		return nil, fmt.Errorf("failures: Weibull shape %v must be positive", shape)
	}
	d, err := rng.NewDiscrete(pmf[:])
	if err != nil {
		return nil, err
	}
	return &Model{mtbf: mtbf, severities: d, pmf: pmf, shape: shape}, nil
}

// Shape reports the inter-arrival Weibull shape (1 for exponential).
func (m *Model) Shape() float64 { return m.shape }

// MustModel is NewModel but panics on error; for constant parameters.
func MustModel(mtbf units.Duration, pmf SeverityPMF) *Model {
	m, err := NewModel(mtbf, pmf)
	if err != nil {
		panic(err)
	}
	return m
}

// MTBF reports the per-node mean time between failures M_n.
func (m *Model) MTBF() units.Duration { return m.mtbf }

// WithMTBF derives a model with a different per-node MTBF and the same
// severity distribution and inter-arrival shape. Heterogeneous fleets
// use it to give each node class its own reliability while sharing the
// study's severity assumptions (machine.NodeClass.MTBF feeds this).
func (m *Model) WithMTBF(mtbf units.Duration) (*Model, error) {
	return NewWeibullModel(mtbf, m.pmf, m.shape)
}

// PMF reports the severity distribution.
func (m *Model) PMF() SeverityPMF { return m.pmf }

// Rate reports the aggregate Poisson failure rate of a population of nodes
// (lambda_a = N_a / M_n for an application, Eq. 2 for a whole system).
func (m *Model) Rate(nodes int) units.Rate {
	if nodes <= 0 {
		return 0
	}
	return units.Rate(float64(nodes) / float64(m.mtbf))
}

// SeverityRates splits the aggregate failure rate of a population of
// nodes across the severity levels in proportion to the PMF: entry j-1 is
// lambda_Lj of Section III-E, the rate of failures of severity exactly j.
// The multilevel schedule optimizer and the analytic model read these.
func (m *Model) SeverityRates(nodes int) [NumSeverities]units.Rate {
	total := 0.0
	for _, w := range m.pmf {
		total += w
	}
	full := float64(m.Rate(nodes))
	var rates [NumSeverities]units.Rate
	for i, w := range m.pmf {
		rates[i] = units.Rate(full * w / total)
	}
	return rates
}

// Process generates the failure sequence experienced by a fixed population
// of nodes (typically one application's allocation). It is a Poisson
// process with rate nodes/MTBF; successive calls to Next return
// strictly increasing times. A Process is not safe for concurrent use.
type Process struct {
	model *Model
	nodes int
	rate  float64 // per minute; zero disables the process
	src   *rng.Source
	last  units.Duration
}

// Process creates a failure process over the given node population, drawing
// randomness from src. A non-positive population yields a process that
// never fires.
func (m *Model) Process(nodes int, src *rng.Source) *Process {
	p := new(Process)
	p.Reinit(m, nodes, src)
	return p
}

// Reinit re-arms a process in place over a (possibly different) model,
// population, and source, clearing the process clock; the zero Process
// re-armed this way is m.Process(nodes, src). The resilience engine holds
// one Process by value and re-arms it for each of the thousands of
// sequential runs of a study.
func (p *Process) Reinit(m *Model, nodes int, src *rng.Source) {
	rate := 0.0
	if nodes > 0 {
		rate = float64(m.Rate(nodes))
	}
	*p = Process{model: m, nodes: nodes, rate: rate, src: src}
}

// Nodes reports the population size the process covers.
func (p *Process) Nodes() int { return p.nodes }

// Rate reports the process's failure rate.
func (p *Process) Rate() units.Rate { return units.Rate(p.rate) }

// Next returns the next failure, advancing the process. The second return
// is false when the process can never fire (empty population).
func (p *Process) Next() (Failure, bool) {
	if p.rate <= 0 {
		return Failure{}, false
	}
	if p.model.shape == 1 {
		p.last += units.Duration(p.src.Exp(p.rate))
	} else {
		scale := rng.WeibullScaleForMean(p.model.shape, 1/p.rate)
		p.last += units.Duration(p.src.Weibull(p.model.shape, scale))
	}
	return Failure{
		Time:     p.last,
		Node:     p.src.Intn(p.nodes),
		Severity: p.model.sampleSeverity(p.src),
	}, true
}

// Skip advances the process clock to at least t without emitting failures;
// used when an application is idle (not occupying nodes) so failures
// cannot strike it. Because the exponential distribution is memoryless,
// restarting the clock at t preserves the process statistics.
func (p *Process) Skip(t units.Duration) {
	if t > p.last {
		p.last = t
	}
}

func (m *Model) sampleSeverity(src *rng.Source) Severity {
	return Severity(m.severities.Sample(src) + 1)
}
