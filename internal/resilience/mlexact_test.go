package resilience

import (
	"math"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

func TestExactStretchFailureFree(t *testing.T) {
	costs := Costs{L1: 1, L2: 2, PFS: 10}
	m := MultilevelSchedule{Interval: 10, L1PerL2: 2, L2PerL3: 2}
	// Pattern of 4: levels 1,2,1,3 -> costs 1+2+1+10 = 14 over 40 work.
	got := m.ExactStretch(costs, [3]units.Rate{})
	want := (40.0 + 14.0) / 40.0
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("failure-free exact stretch %v, want %v", got, want)
	}
}

func TestExactStretchDegenerate(t *testing.T) {
	costs := Costs{L1: 1, L2: 2, PFS: 10}
	bad := []MultilevelSchedule{
		{Interval: 0, L1PerL2: 1, L2PerL3: 1},
		{Interval: 1, L1PerL2: 0, L2PerL3: 1},
		{Interval: 1, L1PerL2: 1, L2PerL3: 0},
	}
	for i, m := range bad {
		if !math.IsInf(m.ExactStretch(costs, [3]units.Rate{0.01, 0, 0}), 1) {
			t.Errorf("degenerate schedule %d got finite stretch", i)
		}
	}
}

func TestExactStretchMonotoneInRate(t *testing.T) {
	cfg := machine.Exascale()
	costs := ComputeCosts(testApp(workload.C64, 30000), cfg)
	m := MultilevelSchedule{Interval: 1 * units.Minute, L1PerL2: 8, L2PerL3: 8}
	prev := 1.0
	for _, nodes := range []int{1000, 10000, 30000, 120000} {
		rates := exaRates(nodes, 10*units.Year)
		got := m.ExactStretch(costs, rates)
		if got <= prev {
			t.Errorf("exact stretch not increasing in failure rate: %v at %d nodes (prev %v)",
				got, nodes, prev)
		}
		prev = got
	}
}

func TestExactMatchesFirstOrderAtLowRates(t *testing.T) {
	// In the small-lambda regime the first-order renewal formula and the
	// exact chain must agree closely.
	cfg := machine.Exascale()
	costs := ComputeCosts(testApp(workload.B32, 1200), cfg)
	rates := exaRates(1200, 10*units.Year)
	m := MultilevelSchedule{Interval: 4 * units.Minute, L1PerL2: 6, L2PerL3: 6}
	exact := m.ExactStretch(costs, rates)
	first := m.ExpectedStretch(costs, rates)
	if rel := math.Abs(exact-first) / first; rel > 0.02 {
		t.Errorf("exact %v vs first-order %v: relative gap %v", exact, first, rel)
	}
}

// TestExactStretchMatchesSimulation is the model's validation: the chain's
// prediction must match the simulated mean stretch of the multilevel
// executor running the very same schedule.
func TestExactStretchMatchesSimulation(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	for _, nodes := range []int{12000, 60000} {
		app := testApp(workload.C64, nodes)
		x, err := New(core.MultilevelCheckpoint, app, cfg, model, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		sched := x.strat.(*multilevel).schedule
		predicted := sched.ExactStretch(ComputeCosts(app, cfg), model.SeverityRates(nodes))

		var sum float64
		const trials = 40
		for seed := uint64(0); seed < trials; seed++ {
			res := NewRuntime(nil).Run(x, 0, 1e8, rng.New(seed))
			if !res.Completed {
				t.Fatalf("run incomplete at %d nodes", nodes)
			}
			sum += float64(res.Makespan()) / float64(res.Baseline)
		}
		simulated := sum / trials
		if rel := math.Abs(predicted-simulated) / simulated; rel > 0.05 {
			t.Errorf("%d nodes: exact chain %v vs simulated %v (rel %v)",
				nodes, predicted, simulated, rel)
		}
	}
}

func TestOptimizeExactNeverWorse(t *testing.T) {
	cfg := machine.Exascale()
	for _, nodes := range []int{1200, 30000, 120000} {
		costs := ComputeCosts(testApp(workload.C64, nodes), cfg)
		rates := exaRates(nodes, 10*units.Year)
		first, err := OptimizeMultilevel(costs, rates, DefaultMultilevelConfig())
		if err != nil {
			t.Fatal(err)
		}
		refined, err := OptimizeMultilevelExact(costs, rates, DefaultMultilevelConfig())
		if err != nil {
			t.Fatal(err)
		}
		fv := first.ExactStretch(costs, rates)
		rv := refined.ExactStretch(costs, rates)
		if rv > fv+1e-12 {
			t.Errorf("%d nodes: exact refinement (%v) worse than first-order pick (%v)", nodes, rv, fv)
		}
	}
}

func TestOptimizeExactZeroRates(t *testing.T) {
	costs := Costs{L1: 1, L2: 2, PFS: 10}
	sched, err := OptimizeMultilevelExact(costs, [3]units.Rate{}, DefaultMultilevelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(sched.Interval), 1) {
		t.Errorf("no failures should disable checkpointing, got %v", sched.Interval)
	}
}
