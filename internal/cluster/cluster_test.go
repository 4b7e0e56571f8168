package cluster

import (
	"math"
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/workload"
)

func testSpec(t *testing.T, sch core.Scheduler, tech core.Technique, seed uint64) Spec {
	t.Helper()
	cfg := machine.Exascale()
	pattern := workload.PatternSpec{Arrivals: 30, FillSystem: true}.Generate(cfg, rng.New(seed))
	return Spec{
		Machine:    cfg,
		Model:      failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF()),
		Scheduler:  sch,
		Technique:  tech,
		Resilience: resilience.DefaultConfig(),
		Pattern:    pattern,
		Seed:       seed,
	}
}

func TestRunValidation(t *testing.T) {
	spec := testSpec(t, core.FCFS, core.CheckpointRestart, 1)

	bad := spec
	bad.Machine = machine.Config{}
	if _, err := Run(bad); err == nil {
		t.Error("invalid machine accepted")
	}
	bad = spec
	bad.Model = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil model accepted")
	}
	bad = spec
	bad.Scheduler = core.Scheduler(99)
	if _, err := Run(bad); err == nil {
		t.Error("unknown scheduler accepted")
	}
	bad = spec
	bad.Technique = core.Technique(99)
	if _, err := Run(bad); err == nil {
		t.Error("unknown technique accepted")
	}
	bad = spec
	bad.Resilience = resilience.Config{RecoverySpeedup: -1}
	if _, err := Run(bad); err == nil {
		t.Error("invalid resilience config accepted")
	}
}

func TestAllJobsResolve(t *testing.T) {
	for _, sch := range core.Schedulers() {
		for _, tech := range core.ClusterTechniques() {
			spec := testSpec(t, sch, tech, 2)
			m, err := Run(spec)
			if err != nil {
				t.Fatalf("%v/%v: %v", sch, tech, err)
			}
			if m.Total != len(spec.Pattern.Apps) {
				t.Errorf("%v/%v: total %d, want %d", sch, tech, m.Total, len(spec.Pattern.Apps))
			}
			if m.Completed+m.Dropped != m.Total {
				t.Errorf("%v/%v: completed %d + dropped %d != total %d",
					sch, tech, m.Completed, m.Dropped, m.Total)
			}
			if m.Dropped != m.DroppedQueued+m.DroppedRunning {
				t.Errorf("%v/%v: drop decomposition inconsistent", sch, tech)
			}
			if m.PeakUtilization <= 0 || m.PeakUtilization > 1 {
				t.Errorf("%v/%v: peak utilization %v", sch, tech, m.PeakUtilization)
			}
			if len(m.Results) != m.Total {
				t.Errorf("%v/%v: %d results for %d jobs", sch, tech, len(m.Results), m.Total)
			}
		}
	}
}

func TestIdealBaselineDropsLeast(t *testing.T) {
	// The Ideal baseline (no failures, no overhead) must never drop more
	// applications than a real technique on the same pattern and
	// scheduler.
	for _, sch := range core.Schedulers() {
		ideal, err := Run(testSpec(t, sch, core.Ideal, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range core.ClusterTechniques() {
			real, err := Run(testSpec(t, sch, tech, 3))
			if err != nil {
				t.Fatal(err)
			}
			if ideal.Dropped > real.Dropped {
				t.Errorf("%v: Ideal dropped %d > %v dropped %d",
					sch, ideal.Dropped, tech, real.Dropped)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testSpec(t, core.SlackBased, core.ParallelRecovery, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testSpec(t, core.SlackBased, core.ParallelRecovery, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dropped != b.Dropped || a.Completed != b.Completed ||
		math.Abs(float64(a.MeanWait-b.MeanWait)) > 1e-9 {
		t.Errorf("replays diverged: %+v vs %+v", a, b)
	}
}

func TestFullMachineStart(t *testing.T) {
	// With FillSystem the machine starts (nearly) full: peak utilization
	// should be high from the outset.
	m, err := Run(testSpec(t, core.FCFS, core.CheckpointRestart, 5))
	if err != nil {
		t.Fatal(err)
	}
	if m.PeakUtilization < 0.95 {
		t.Errorf("peak utilization %v; expected a nearly full machine", m.PeakUtilization)
	}
}

func TestIdealWithGenerousDeadlinesDropsNothingQueuedForever(t *testing.T) {
	// Few small apps, enormous slack, no fill: every app must complete.
	cfg := machine.Exascale()
	pattern := workload.PatternSpec{
		Arrivals: 10,
		SlackLo:  50, SlackHi: 60,
		SizeFractions: []float64{0.01},
	}.Generate(cfg, rng.New(6))
	spec := Spec{
		Machine:    cfg,
		Model:      failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF()),
		Scheduler:  core.FCFS,
		Technique:  core.Ideal,
		Resilience: resilience.DefaultConfig(),
		Pattern:    pattern,
		Seed:       6,
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 {
		t.Errorf("dropped %d of %d apps despite generous deadlines and an empty machine",
			m.Dropped, m.Total)
	}
	if m.MeanEfficiency != 1 {
		t.Errorf("ideal mean efficiency %v, want 1", m.MeanEfficiency)
	}
}

func TestCompletedRunsRespectDeadlines(t *testing.T) {
	m, err := Run(testSpec(t, core.SlackBased, core.MultilevelCheckpoint, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		switch r.Outcome {
		case OutcomeCompleted:
			if r.App.Deadline > 0 && r.End > r.App.Deadline {
				t.Errorf("app %d completed at %v after deadline %v", r.App.ID, r.End, r.App.Deadline)
			}
			if !r.Started || r.End <= r.Start {
				t.Errorf("app %d completed with degenerate interval [%v, %v]", r.App.ID, r.Start, r.End)
			}
		case OutcomeDroppedRunning:
			if !r.Started {
				t.Errorf("app %d dropped-running but never started", r.App.ID)
			}
			if r.App.Deadline > 0 && math.Abs(float64(r.End-r.App.Deadline)) > 1e-9 {
				t.Errorf("app %d dropped-running at %v, not its deadline %v", r.App.ID, r.End, r.App.Deadline)
			}
		case OutcomeDroppedQueued:
			if r.Started {
				t.Errorf("app %d dropped-queued but started", r.App.ID)
			}
		}
		if r.Waited() < 0 {
			t.Errorf("app %d negative wait %v", r.App.ID, r.Waited())
		}
	}
}

func TestChooserOverridesTechnique(t *testing.T) {
	spec := testSpec(t, core.FCFS, core.CheckpointRestart, 8)
	spec.Chooser = func(app workload.App) core.Technique {
		if app.Class.CommFraction > 0.25 {
			return core.MultilevelCheckpoint
		}
		return core.ParallelRecovery
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Results {
		want := core.ParallelRecovery
		if r.App.Class.CommFraction > 0.25 {
			want = core.MultilevelCheckpoint
		}
		if r.Technique != want {
			t.Errorf("app %d ran %v, chooser wanted %v", r.App.ID, r.Technique, want)
		}
	}
}

func TestBlockedTechniqueDropsInsteadOfWedging(t *testing.T) {
	// Full redundancy on 50%-of-machine apps needs 100% of the machine;
	// with the machine partly busy those apps can never be placed, and on
	// a pattern of only such apps the run must still terminate.
	cfg := machine.Exascale()
	pattern := workload.PatternSpec{
		Arrivals:      8,
		SizeFractions: []float64{0.60},
	}.Generate(cfg, rng.New(9))
	spec := Spec{
		Machine:    cfg,
		Model:      failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF()),
		Scheduler:  core.FCFS,
		Technique:  core.FullRedundancy, // needs 120% of the machine: blocked
		Resilience: resilience.DefaultConfig(),
		Pattern:    pattern,
		Seed:       9,
	}
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m.DroppedQueued != m.Total {
		t.Errorf("expected all %d apps dropped as unplaceable, got %d", m.Total, m.DroppedQueued)
	}
}

func TestSlackBasedBeatsFCFSOnDrops(t *testing.T) {
	// Figure 4's qualitative claim: slack-based resource management drops
	// fewer applications than FCFS under the same failures and technique.
	var slackDrops, fcfsDrops int
	for seed := uint64(10); seed < 16; seed++ {
		s, err := Run(testSpec(t, core.SlackBased, core.ParallelRecovery, seed))
		if err != nil {
			t.Fatal(err)
		}
		f, err := Run(testSpec(t, core.FCFS, core.ParallelRecovery, seed))
		if err != nil {
			t.Fatal(err)
		}
		slackDrops += s.Dropped
		fcfsDrops += f.Dropped
	}
	if slackDrops >= fcfsDrops {
		t.Errorf("slack-based dropped %d, FCFS dropped %d; expected slack-based to win",
			slackDrops, fcfsDrops)
	}
}

func TestBackfillSchedulerRuns(t *testing.T) {
	m, err := Run(testSpec(t, core.EASYBackfill, core.ParallelRecovery, 21))
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed+m.Dropped != m.Total {
		t.Errorf("backfill run inconsistent: %d + %d != %d", m.Completed, m.Dropped, m.Total)
	}
}

func TestBackfillBeatsFCFSOnDrops(t *testing.T) {
	// The extension's rationale: EASY backfilling removes FCFS's
	// head-of-line blocking, so it should drop fewer applications on the
	// same patterns.
	var bf, fcfs int
	for seed := uint64(30); seed < 36; seed++ {
		b, err := Run(testSpec(t, core.EASYBackfill, core.ParallelRecovery, seed))
		if err != nil {
			t.Fatal(err)
		}
		f, err := Run(testSpec(t, core.FCFS, core.ParallelRecovery, seed))
		if err != nil {
			t.Fatal(err)
		}
		bf += b.Dropped
		fcfs += f.Dropped
	}
	if bf >= fcfs {
		t.Errorf("backfill dropped %d, FCFS dropped %d; expected backfill to win", bf, fcfs)
	}
}

func TestAvgUtilizationBounds(t *testing.T) {
	m, err := Run(testSpec(t, core.SlackBased, core.ParallelRecovery, 40))
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgUtilization <= 0 || m.AvgUtilization > m.PeakUtilization+1e-9 {
		t.Errorf("avg utilization %v outside (0, peak=%v]", m.AvgUtilization, m.PeakUtilization)
	}
	// A filled, oversubscribed machine should stay busy on average.
	if m.AvgUtilization < 0.3 {
		t.Errorf("avg utilization %v implausibly low for an oversubscribed system", m.AvgUtilization)
	}
}

// TestRepeatedAppIDRejected: a pattern whose last two applications share
// an ID is refused up front, for every scheduler, with an error naming the
// ID instead of one that blames the scheduler.
func TestRepeatedAppIDRejected(t *testing.T) {
	for _, sch := range core.Schedulers() {
		spec := testSpec(t, sch, core.ParallelRecovery, 9)
		apps := spec.Pattern.Apps
		apps[len(apps)-2].ID, apps[len(apps)-1].ID = 27, 27
		_, err := Run(spec)
		if err == nil || !strings.Contains(err.Error(), "repeats application ID 27") {
			t.Errorf("%v: Run error = %v, want the repeated ID 27 named", sch, err)
		}
	}
}
