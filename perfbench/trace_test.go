package main

import (
	"math"
	"testing"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// TestServedStagesReconcile runs a short traced served-zipf workload and
// requires every job's stages to add up to its end-to-end latency (the
// traced run records a problem for any job that does not), every output
// to verify, and the layer numbers to be populated.
func TestServedStagesReconcile(t *testing.T) {
	spanDir = t.TempDir()
	// A tenth of the workload's arrival rate, so that the fleet keeps up
	// under the race detector too.
	p, err := zipfPlan(3, 3*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var thin []arrival
	for i := 0; i < len(p.Open); i += 10 {
		thin = append(thin, p.Open[i])
	}
	p.Open = thin
	o, err := servePlan(p, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) > 0 || o.failed > 0 {
		t.Fatalf("failed %d of %d: %v", o.failed, o.attempted, o.problems)
	}
	for _, name := range []string{"serve.exec_ms.p50", "http.handler_ms.submit", "des.events_dispatched", "load.samples"} {
		if o.values[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, o.values[name])
		}
	}
	if sum := o.values["serve.hit_share"] + o.values["serve.join_share"] + o.values["serve.miss_share"]; math.Abs(sum-1) > 1e-9 {
		t.Errorf("cache outcome shares sum to %v, want 1", sum)
	}
}

// TestReconcileCatchesMisStampedStage: a job whose server stamps are
// inconsistent with the client's clock readings does not reconcile.
func TestReconcileCatchesMisStampedStage(t *testing.T) {
	t0 := time.Now()
	at := func(d time.Duration) *time.Time { x := t0.Add(d * time.Millisecond); return &x }
	good := job{
		Due: t0, Issued: *at(1), Responded: *at(3), SeenDone: *at(12), End: *at(13),
		View: serve.JobView{SubmittedAt: *at(2), StartedAt: at(4), FinishedAt: at(10)},
	}
	if r, ok := reconcile(good); !ok || r != time.Millisecond {
		t.Fatalf("consistent job: residual %v ok %v, want 1ms (the response leg) and ok", r, ok)
	}
	bad := good
	bad.View.StartedAt = at(-5) // started before it was submitted
	if r, ok := reconcile(bad); ok {
		t.Errorf("mis-stamped job reconciled with residual %v", r)
	}
}

// TestSimulationCountsRepeat: two traced passes over the same inputs, at
// different worker counts, do exactly the same simulation.
func TestSimulationCountsRepeat(t *testing.T) {
	counts := func(workers int) map[string]float64 {
		cfg := experiments.Default()
		cfg.Workers = workers
		cfg.Obs = obs.NewRegistry()
		o := &outcome{values: map[string]float64{}}
		runPass(cfg, warmParams, nil, &recorder{}, o)
		if o.failed > 0 {
			t.Fatalf("pass failed: %v", o.problems)
		}
		return simLayers(regText(cfg.Obs))
	}
	a, b := counts(2), counts(1)
	if diff := sameCounts(a, b); len(diff) > 0 {
		t.Errorf("counts differ: %v", diff)
	}
	for _, n := range simCountNames {
		if a[n] == 0 {
			t.Errorf("%s = 0: the pass did no work in that layer", n)
		}
	}
}
