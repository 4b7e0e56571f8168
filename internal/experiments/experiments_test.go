package experiments

import (
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/selection"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// fastConfig keeps integration tests quick while preserving the paper's
// machine and failure model.
func fastConfig() Config {
	cfg := Default()
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBrokenConfigs(t *testing.T) {
	cfg := Default()
	cfg.SeverityPMF = failures.SeverityPMF{0, 0, 0}
	if err := cfg.Validate(); err == nil {
		t.Error("zero severity PMF accepted")
	}
}

func TestTableI(t *testing.T) {
	tb := TableI()
	out := tb.String()
	for _, c := range workload.Classes() {
		if !strings.Contains(out, c.Name) {
			t.Errorf("Table I missing class %s:\n%s", c.Name, out)
		}
	}
	if tb.Rows() != 4 {
		t.Errorf("Table I has %d rows, want 4 communication levels", tb.Rows())
	}
}

func TestTableII(t *testing.T) {
	tb, err := TableII(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, param := range []string{"T_S", "T_C", "T_W", "N_m", "N_a", "L", "B_N",
		"N_S", "lambda_a", "M_n", "tau", "T_C_PFS", "T_C_L1", "T_C_L2", "mu", "r"} {
		if !strings.Contains(out, param) {
			t.Errorf("Table II missing parameter %s", param)
		}
	}
}

func TestScalingStudyShapes(t *testing.T) {
	// A reduced-trials Figure 1 must reproduce the paper's qualitative
	// claims exactly.
	cfg := fastConfig()
	tb, res, err := ScalingSpec{Config: cfg, Class: workload.A32, Trials: 12}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != len(DefaultScalingFractions()) {
		t.Errorf("figure has %d rows, want %d", tb.Rows(), len(DefaultScalingFractions()))
	}

	for _, frac := range DefaultScalingFractions() {
		pr, ok := res.Point(core.ParallelRecovery, fracLabel(frac))
		if !ok {
			t.Fatalf("missing PR point at %v", frac)
		}
		// Claim (Fig. 1): Parallel Recovery is the most efficient at every
		// size for low-communication applications. The figure reproduces
		// the paper's menu (PaperTechniques), not the full extended one.
		for _, tech := range core.PaperTechniques() {
			p, ok := res.Point(tech, fracLabel(frac))
			if !ok {
				t.Fatalf("missing %v point at %v", tech, frac)
			}
			if p.Efficiency.Mean > pr.Efficiency.Mean+1e-9 {
				t.Errorf("at %.0f%%: %v (%.4f) beats Parallel Recovery (%.4f)",
					100*frac, tech, p.Efficiency.Mean, pr.Efficiency.Mean)
			}
		}
	}

	// Claim: traditional checkpointing decreases fastest with size.
	crSmall, _ := res.Point(core.CheckpointRestart, "1%")
	crBig, _ := res.Point(core.CheckpointRestart, "100%")
	mlSmall, _ := res.Point(core.MultilevelCheckpoint, "1%")
	mlBig, _ := res.Point(core.MultilevelCheckpoint, "100%")
	crDrop := crSmall.Efficiency.Mean - crBig.Efficiency.Mean
	mlDrop := mlSmall.Efficiency.Mean - mlBig.Efficiency.Mean
	if crDrop <= mlDrop {
		t.Errorf("CR efficiency drop (%v) should exceed multilevel's (%v)", crDrop, mlDrop)
	}

	// Claim: redundancy provides zero efficiency once the replica set
	// exceeds the machine (r=2.0 above 50%, r=1.5 above ~67%).
	for _, tc := range []struct {
		tech core.Technique
		frac float64
	}{
		{core.FullRedundancy, 1.00},
		{core.PartialRedundancy, 1.00},
	} {
		p, _ := res.Point(tc.tech, fracLabel(tc.frac))
		if p.Efficiency.Mean != 0 {
			t.Errorf("%v at %.0f%%: efficiency %v, want 0 (unplaceable)",
				tc.tech, 100*tc.frac, p.Efficiency.Mean)
		}
	}
	full50, _ := res.Point(core.FullRedundancy, "50%")
	if full50.Efficiency.Mean == 0 {
		t.Error("r=2.0 at 50% should exactly fit the machine and run")
	}
}

func TestFigure2Crossover(t *testing.T) {
	// Claim (Fig. 2): for high-communication high-memory applications the
	// optimal technique shifts from Multilevel to Parallel Recovery when
	// the application needs >= 25% of the machine.
	_, res, err := ScalingSpec{Config: fastConfig(), Class: workload.D64, Trials: 12}.Run()
	if err != nil {
		t.Fatal(err)
	}
	mlSmall, _ := res.Point(core.MultilevelCheckpoint, "1%")
	prSmall, _ := res.Point(core.ParallelRecovery, "1%")
	if mlSmall.Efficiency.Mean <= prSmall.Efficiency.Mean {
		t.Errorf("at 1%%: multilevel (%.4f) should beat PR (%.4f) on D64",
			mlSmall.Efficiency.Mean, prSmall.Efficiency.Mean)
	}
	mlBig, _ := res.Point(core.MultilevelCheckpoint, "50%")
	prBig, _ := res.Point(core.ParallelRecovery, "50%")
	if prBig.Efficiency.Mean <= mlBig.Efficiency.Mean {
		t.Errorf("at 50%%: PR (%.4f) should beat multilevel (%.4f) on D64",
			prBig.Efficiency.Mean, mlBig.Efficiency.Mean)
	}
	// Redundancy suffers more on D64 than on A32 (communication scaling).
	_, resA, err := ScalingSpec{Config: fastConfig(), Class: workload.A32, Trials: 12}.Run()
	if err != nil {
		t.Fatal(err)
	}
	redD, _ := res.Point(core.FullRedundancy, "10%")
	redA, _ := resA.Point(core.FullRedundancy, "10%")
	if redD.Efficiency.Mean >= redA.Efficiency.Mean {
		t.Errorf("full redundancy on D64 (%.4f) should trail A32 (%.4f)",
			redD.Efficiency.Mean, redA.Efficiency.Mean)
	}
}

func TestFigure3LowMTBF(t *testing.T) {
	// Claim (Fig. 3): with a 2.5-year MTBF every technique loses
	// efficiency faster, and CR cannot complete at exascale.
	_, res10, err := ScalingSpec{Config: fastConfig(), Class: workload.D64, Trials: 10,
		Fractions: []float64{0.25, 1.00}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, res25, err := ScalingSpec{Config: fastConfig(), Class: workload.D64, Trials: 10,
		MTBF: units.Duration(2.5) * units.Year, Fractions: []float64{0.25, 1.00}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery} {
		p10, _ := res10.Point(tech, "25%")
		p25, _ := res25.Point(tech, "25%")
		if p25.Efficiency.Mean > p10.Efficiency.Mean+1e-9 {
			t.Errorf("%v at 25%%: 2.5y MTBF efficiency (%.4f) exceeds 10y (%.4f)",
				tech, p25.Efficiency.Mean, p10.Efficiency.Mean)
		}
	}
	cr, _ := res25.Point(core.CheckpointRestart, "100%")
	if cr.Efficiency.Mean > 0.02 {
		t.Errorf("CR at exascale/2.5y MTBF: efficiency %.4f, want ~0 (cannot complete)",
			cr.Efficiency.Mean)
	}
	if cr.Completion > 0.2 {
		t.Errorf("CR at exascale/2.5y MTBF: completion rate %.2f, want ~0", cr.Completion)
	}
}

func TestFigure4Structure(t *testing.T) {
	tb, res, err := ClusterSpec{Config: fastConfig(), Patterns: 4, Arrivals: 40}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Errorf("figure 4 table has %d rows, want 3 schedulers", tb.Rows())
	}
	if len(res.Cells) != 3*4 {
		t.Fatalf("figure 4 has %d cells, want 12", len(res.Cells))
	}
	// Claim: failures and resilience overhead degrade system performance
	// relative to the Ideal baseline. Scheduling is chaotic (longer
	// runtimes shift every later mapping decision), so individual cells
	// at four patterns can luck below Ideal; the claim is asserted on the
	// scheduler-averaged means.
	idealMean, techMean := 0.0, 0.0
	for _, sch := range core.Schedulers() {
		ideal, ok := res.Cell(sch, core.Ideal)
		if !ok {
			t.Fatalf("missing Ideal cell for %v", sch)
		}
		if ideal.Dropped.N != 4 {
			t.Errorf("%v/Ideal summarized %d patterns, want 4", sch, ideal.Dropped.N)
		}
		idealMean += ideal.Dropped.Mean
		for _, tech := range core.ClusterTechniques() {
			c, ok := res.Cell(sch, tech)
			if !ok {
				t.Fatalf("missing %v/%v cell", sch, tech)
			}
			if c.Dropped.Mean < 0 || c.Dropped.Mean > 100 {
				t.Errorf("%v/%v dropped %v%% out of range", sch, tech, c.Dropped.Mean)
			}
			techMean += c.Dropped.Mean / float64(len(core.ClusterTechniques()))
		}
	}
	if techMean < idealMean {
		t.Errorf("average technique drop rate (%.2f%%) below Ideal's (%.2f%%)",
			techMean/3, idealMean/3)
	}
}

func TestFigure5Structure(t *testing.T) {
	tb, res, err := SelectionSpec{
		Config:   fastConfig(),
		Patterns: 3,
		Arrivals: 30,
		Biases:   []workload.Bias{workload.Unbiased, workload.HighComm},
		Selection: selection.Options{
			Trials:        4,
			TimeSteps:     360,
			SizeFractions: []float64{0.01, 0.25},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2*3 {
		t.Errorf("figure 5 table has %d rows, want 6", tb.Rows())
	}
	if len(res.Table) == 0 {
		t.Error("selection table missing from result")
	}
	for _, c := range res.Cells {
		if c.Baseline.N != 3 || c.Selected.N != 3 {
			t.Errorf("%v/%v: pattern counts %d/%d, want 3", c.Bias, c.Scheduler,
				c.Baseline.N, c.Selected.N)
		}
	}
}

func TestFigure4DeterministicAcrossWorkerCounts(t *testing.T) {
	// runCells folds per-(combo, pattern) slots in index order, so the
	// study must be bit-identical for any worker count.
	run := func(workers int) ClusterResult {
		t.Helper()
		cfg := fastConfig()
		cfg.Workers = workers
		_, res, err := ClusterSpec{Config: cfg, Patterns: 3, Arrivals: 30}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if len(serial.Cells) != len(parallel.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial.Cells), len(parallel.Cells))
	}
	for i := range serial.Cells {
		if serial.Cells[i] != parallel.Cells[i] {
			t.Errorf("cell %d differs:\n 1 worker: %+v\n 8 workers: %+v",
				i, serial.Cells[i], parallel.Cells[i])
		}
	}
}
