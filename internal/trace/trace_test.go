package trace

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/workload"
)

// record runs one execution under observation and returns the recorder
// plus the run's result.
func record(t *testing.T, tech core.Technique) (*Recorder, resilience.Result) {
	t.Helper()
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.C64, TimeSteps: 720, Nodes: 12000}
	x, err := resilience.New(tech, app, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	rt := resilience.NewRuntime(nil)
	rt.Observer = rec.Observe
	res := rt.Run(x, 1e8, rng.New(3))
	return rec, res
}

func TestRecorderCapturesRun(t *testing.T) {
	rec, res := record(t, core.CheckpointRestart)
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}
	events := rec.Events()
	if events[0].Kind != resilience.TraceStart {
		t.Errorf("first event %v, want start", events[0].Kind)
	}
	if events[len(events)-1].Kind != resilience.TraceComplete {
		t.Errorf("last event %v, want complete", events[len(events)-1].Kind)
	}
	// Times nondecreasing, progress never exceeds effective work.
	var last resilience.TraceEvent
	for i, ev := range events {
		if i > 0 && ev.Time < last.Time {
			t.Fatalf("event %d goes back in time: %v after %v", i, ev.Time, last.Time)
		}
		if ev.Progress > res.EffectiveWork {
			t.Fatalf("event %d progress %v beyond total work %v", i, ev.Progress, res.EffectiveWork)
		}
		last = ev
	}
}

func TestSummaryMatchesResult(t *testing.T) {
	rec, res := record(t, core.MultilevelCheckpoint)
	s := rec.Summarize()
	if !s.Completed {
		t.Error("summary missed completion")
	}
	if s.Failures != res.Failures {
		t.Errorf("summary failures %d, result %d", s.Failures, res.Failures)
	}
	if s.Rollbacks != res.Rollbacks {
		t.Errorf("summary rollbacks %d, result %d", s.Rollbacks, res.Rollbacks)
	}
	for lvl := 1; lvl <= 3; lvl++ {
		if s.Checkpoints[lvl] != res.Checkpoints[lvl] {
			t.Errorf("summary L%d checkpoints %d, result %d", lvl, s.Checkpoints[lvl], res.Checkpoints[lvl])
		}
	}
	if s.Span != res.End {
		t.Errorf("summary span %v, makespan %v", s.Span, res.End)
	}
	if !strings.Contains(s.String(), "completed") {
		t.Error("summary string missing status")
	}
}

func TestRedundancyAbsorbedFailuresVisible(t *testing.T) {
	rec, res := record(t, core.FullRedundancy)
	s := rec.Summarize()
	if s.Failures != res.Failures || s.Rollbacks != res.Rollbacks {
		t.Errorf("trace failure accounting (%d/%d) disagrees with result (%d/%d)",
			s.Failures, s.Rollbacks, res.Failures, res.Rollbacks)
	}
	if s.Failures > 0 && s.Rollbacks == s.Failures {
		t.Log("note: every failure rolled back; absorbed-failure path untested this seed")
	}
}

func TestReset(t *testing.T) {
	rec, _ := record(t, core.CheckpointRestart)
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("reset did not clear events")
	}
}

func TestWriteJSONL(t *testing.T) {
	rec, _ := record(t, core.ParallelRecovery)
	var b strings.Builder
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(strings.NewReader(b.String()))
	lines := 0
	for scanner.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		if _, ok := ev["kind"]; !ok {
			t.Fatalf("line %d missing kind: %s", lines, scanner.Text())
		}
		lines++
	}
	if lines != rec.Len() {
		t.Errorf("wrote %d lines for %d events", lines, rec.Len())
	}
}

func TestWriteTimelineElision(t *testing.T) {
	rec, _ := record(t, core.MultilevelCheckpoint)
	if rec.Len() <= 20 {
		t.Skip("trace too short to test elision")
	}
	var b strings.Builder
	if err := rec.WriteTimeline(&b, 20); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "elided") {
		t.Error("long trace not elided")
	}
	if n := strings.Count(out, "\n"); n > 22 {
		t.Errorf("elided timeline has %d lines, want <= 21", n)
	}
	// Unlimited render includes everything.
	b.Reset()
	if err := rec.WriteTimeline(&b, 0); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != rec.Len() {
		t.Errorf("full timeline has %d lines for %d events", n, rec.Len())
	}
}

// TestIdealExecutorNotObservable: the Ideal baseline never reaches the
// engine, so an observed run of it records no event.
func TestIdealExecutorNotObservable(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	x, err := resilience.New(core.Ideal, workload.App{Class: workload.A32, TimeSteps: 10, Nodes: 1}, cfg, model, resilience.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recorder{}
	rt := resilience.NewRuntime(nil)
	rt.Observer = rec.Observe
	if res := rt.Run(x, 1e8, rng.New(3)); !res.Completed {
		t.Fatalf("ideal run incomplete: %v", res)
	}
	if rec.Len() != 0 {
		t.Errorf("ideal run recorded %d events, want none", rec.Len())
	}
}
