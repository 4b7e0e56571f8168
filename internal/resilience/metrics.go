package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/obs"
)

// Metrics is the resilience layer's observability bundle: per-technique
// run counts, failure counts by severity level, and the makespan time
// split the paper's event taxonomy implies — useful work, checkpoint
// writes, checkpoint restores, from-scratch relaunches, and rework
// (recomputation of lost work). All series are registered eagerly at
// construction (one fixed table per technique), so the per-event hot path
// is an index plus an atomic add with no allocation.
//
// The time split doubles as a correctness oracle: cmd/exacheck's
// conformance sweep cross-checks these counters against both the summed
// Result fields and an independent trace-derived split (see
// internal/check).
type Metrics struct {
	des     *des.Metrics
	perTech [core.NumTechniques]techMetrics
}

// techMetrics is one technique's series.
type techMetrics struct {
	runs, completions   *obs.Counter
	failures, rollbacks *obs.Counter
	bySeverity          [4]*obs.Counter
	useful, checkpoint  *obs.FloatCounter
	restore, relaunch   *obs.FloatCounter
	rework              *obs.FloatCounter
}

// The phase label values of exaresil_resilience_time_minutes_total.
const (
	PhaseUseful     = "useful"
	PhaseCheckpoint = "checkpoint"
	PhaseRestore    = "restore"
	PhaseRelaunch   = "relaunch"
	PhaseRework     = "rework"
)

// NewMetrics registers the resilience series on r for every technique
// (nil r yields the disabled bundle, whose hooks are no-ops). The bundle is
// memoized per registry: repeat construction — one per cluster run in a
// sweep — is a single cache hit instead of ~90 series lookups.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return r.Memo("resilience.Metrics", func() any { return newMetrics(r) }).(*Metrics)
}

func newMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{des: des.NewMetrics(r)}
	for t := range m.perTech {
		tech := obs.L("technique", core.Technique(t).Label())
		tm := &m.perTech[t]
		tm.runs = r.Counter("exaresil_resilience_runs_total", "executor runs", tech)
		tm.completions = r.Counter("exaresil_resilience_completions_total", "runs that finished before their horizon", tech)
		tm.failures = r.Counter("exaresil_resilience_failures_total", "failures striking the application", tech)
		tm.rollbacks = r.Counter("exaresil_resilience_rollbacks_total", "failures that forced a restore", tech)
		for sev := 1; sev <= 3; sev++ {
			tm.bySeverity[sev] = r.Counter("exaresil_resilience_failures_by_severity_total",
				"failures by severity level", tech, obs.L("severity", fmt.Sprintf("%d", sev)))
		}
		split := func(phase string) *obs.FloatCounter {
			return r.FloatCounter("exaresil_resilience_time_minutes_total",
				"makespan decomposition in simulated minutes", tech, obs.L("phase", phase))
		}
		tm.useful = split(PhaseUseful)
		tm.checkpoint = split(PhaseCheckpoint)
		tm.restore = split(PhaseRestore)
		tm.relaunch = split(PhaseRelaunch)
		tm.rework = split(PhaseRework)
	}
	return m
}

// forTechnique resolves the per-technique series table; nil when the
// bundle is disabled or the technique is out of range.
func (m *Metrics) forTechnique(t core.Technique) *techMetrics {
	if m == nil || int(t) < 0 || int(t) >= len(m.perTech) {
		return nil
	}
	return &m.perTech[t]
}

// desMetrics resolves the engine-simulator bundle.
func (m *Metrics) desMetrics() *des.Metrics {
	if m == nil {
		return nil
	}
	return m.des
}

// observeFailure records one failure by severity.
func (t *techMetrics) observeFailure(severity int) {
	if t == nil {
		return
	}
	if severity >= 1 && severity <= 3 {
		t.bySeverity[severity].Inc()
	}
}

// observeRun folds one finished run's Result into the split. Useful work
// is the makespan residual after the accounted overheads; a blocking phase
// still in flight at the horizon is unaccounted in both the Result and the
// trace, so the residual definition keeps all three ledgers consistent.
func (t *techMetrics) observeRun(res Result) {
	if t == nil {
		return
	}
	t.runs.Inc()
	if res.Completed {
		t.completions.Inc()
	}
	t.failures.Add(uint64(res.Failures))
	t.rollbacks.Add(uint64(res.Rollbacks))
	t.checkpoint.Add(res.CheckpointTime.Minutes())
	t.restore.Add((res.RestartTime - res.RelaunchTime).Minutes())
	t.relaunch.Add(res.RelaunchTime.Minutes())
	t.rework.Add(res.ReworkTime.Minutes())
	if useful := res.End - res.CheckpointTime - res.RestartTime - res.ReworkTime; useful > 0 {
		t.useful.Add(useful.Minutes())
	}
}
