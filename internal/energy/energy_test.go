package energy

import (
	"math"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

func TestJoulesConversions(t *testing.T) {
	j := Joules(3.6e6)
	if j.KWh() != 1 {
		t.Errorf("3.6 MJ = %v kWh, want 1", j.KWh())
	}
	if Joules(3.6e9).MWh() != 1 {
		t.Errorf("3.6 GJ = %v MWh, want 1", Joules(3.6e9).MWh())
	}
}

func TestJoulesString(t *testing.T) {
	cases := map[Joules]string{
		100:   "100J",
		7.2e6: "2kWh",
		7.2e9: "2MWh",
	}
	for j, want := range cases {
		if got := j.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", float64(j), got, want)
		}
	}
}

func TestPowerModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default power model invalid: %v", err)
	}
	bad := []PowerModel{
		{Compute: 0, IO: 1, Idle: 1},
		{Compute: 100, IO: 200, Idle: 50},  // IO above compute
		{Compute: 300, IO: 200, Idle: 250}, // idle above IO
	}
	for i, pm := range bad {
		if err := pm.Validate(); err == nil {
			t.Errorf("bad power model %d accepted", i)
		}
	}
}

func TestAccountFailureFreeRun(t *testing.T) {
	// A synthetic result with no failures: pure compute + checkpoints.
	res := resilience.Result{
		Technique:      core.CheckpointRestart,
		Completed:      true,
		End:            1100,
		Baseline:       1000,
		EffectiveWork:  1000,
		CheckpointTime: 100,
	}
	pm := PowerModel{Compute: 800, IO: 350, Idle: 200}
	b, err := Account(res, 10, 1, pm)
	if err != nil {
		t.Fatal(err)
	}
	wantCompute := 10.0 * 800 * (1000 * 60)
	wantCkpt := 10.0 * 350 * (100 * 60)
	if math.Abs(float64(b.Compute)-wantCompute) > 1 {
		t.Errorf("compute energy %v, want %v", float64(b.Compute), wantCompute)
	}
	if math.Abs(float64(b.Checkpoint)-wantCkpt) > 1 {
		t.Errorf("checkpoint energy %v, want %v", float64(b.Checkpoint), wantCkpt)
	}
	if b.Rework != 0 || b.Restart != 0 {
		t.Error("failure-free run has rework/restart energy")
	}
	if math.Abs(float64(b.Total-(b.Compute+b.Checkpoint))) > 1e-6 {
		t.Error("total does not sum")
	}
	if ov := b.Overhead(); math.Abs(ov-float64(b.Checkpoint)/float64(b.Total)) > 1e-12 {
		t.Errorf("overhead %v inconsistent", ov)
	}
}

func TestAccountParallelRecoveryIdlesWaiters(t *testing.T) {
	res := resilience.Result{
		Technique:  core.ParallelRecovery,
		Completed:  true,
		End:        1010,
		ReworkTime: 10,
	}
	pm := PowerModel{Compute: 800, IO: 350, Idle: 200}
	const nodes, phi = 100, 8
	b, err := Account(res, nodes, phi, pm)
	if err != nil {
		t.Fatal(err)
	}
	// phi nodes at compute power, the rest idle, for 10 minutes.
	want := (phi*800.0 + (nodes-phi)*200.0) * 10 * 60
	if math.Abs(float64(b.Rework)-want) > 1 {
		t.Errorf("PR rework energy %v, want %v", float64(b.Rework), want)
	}
	// The same rework under CR semantics burns everyone.
	res.Technique = core.CheckpointRestart
	bc, err := Account(res, nodes, 1, pm)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Rework <= b.Rework {
		t.Error("CR rework should cost more energy than PR's idle-the-rest rework")
	}
}

func TestAccountValidation(t *testing.T) {
	res := resilience.Result{End: 10}
	if _, err := Account(res, 0, 1, Default()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := Account(res, 10, 1, PowerModel{}); err == nil {
		t.Error("zero power model accepted")
	}
}

func TestIdealEnergy(t *testing.T) {
	pm := PowerModel{Compute: 800, IO: 350, Idle: 200}
	got := IdealEnergy(1440*units.Minute, 1000, pm)
	want := 1000.0 * 800 * 1440 * 60
	if math.Abs(float64(got)-want) > 1 {
		t.Errorf("ideal energy %v, want %v", float64(got), want)
	}
}

// TestEnergyAdvantageOfParallelRecovery reproduces the paper's qualitative
// energy claim end-to-end: at equal scale, Parallel Recovery's recovery
// energy overhead is below Checkpoint Restart's, because only the failed
// node's work is replayed (fast) while the machine idles.
func TestEnergyAdvantageOfParallelRecovery(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	app := workload.App{Class: workload.A32, TimeSteps: 1440, Nodes: 30000}
	pm := Default()
	opts := resilience.DefaultConfig()

	avgOverhead := func(tech core.Technique) float64 {
		x, err := resilience.New(tech, app, cfg, model, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt := resilience.NewRuntime(nil)
		var sum float64
		const trials = 12
		for seed := uint64(0); seed < trials; seed++ {
			res := rt.Run(x, 1e8, rng.New(seed))
			if !res.Completed {
				t.Fatalf("%v run incomplete", tech)
			}
			b, err := Account(res, x.PhysicalNodes(), opts.RecoverySpeedup, pm)
			if err != nil {
				t.Fatal(err)
			}
			sum += b.Overhead()
		}
		return sum / trials
	}

	pr := avgOverhead(core.ParallelRecovery)
	cr := avgOverhead(core.CheckpointRestart)
	if pr >= cr {
		t.Errorf("PR energy overhead (%v) should be below CR's (%v)", pr, cr)
	}
}
