package experiments

import (
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/report"
	"exaresil/internal/selection"
	"exaresil/internal/workload"
)

func TestEnergyStudy(t *testing.T) {
	tb, res, err := EnergySpec{Config: fastConfig(), Trials: 8, TimeSteps: 720}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Errorf("energy table has %d rows, want 4 classes", tb.Rows())
	}
	if len(res.Cells) != 4*3 {
		t.Fatalf("energy study has %d cells, want 12", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.TotalMWh.Mean <= 0 {
			t.Errorf("%v/%s: non-positive energy %v", c.Technique, c.Class.Name, c.TotalMWh.Mean)
		}
		if c.Overhead.Mean < 0 || c.Overhead.Mean > 1 {
			t.Errorf("%v/%s: overhead %v outside [0,1]", c.Technique, c.Class.Name, c.Overhead.Mean)
		}
	}
	// The paper's energy claim, in aggregate: PR's overhead stays below
	// CR's for the low-communication class.
	pr, _ := res.Cell(core.ParallelRecovery, "A32")
	cr, _ := res.Cell(core.CheckpointRestart, "A32")
	if pr.Overhead.Mean >= cr.Overhead.Mean {
		t.Errorf("PR energy overhead (%v) should be below CR's (%v) on A32",
			pr.Overhead.Mean, cr.Overhead.Mean)
	}
}

func TestMTBFSweep(t *testing.T) {
	tb, res, err := MTBFSweepSpec{
		Config:    fastConfig(),
		MTBFYears: []float64{10, 2.5},
		Trials:    10,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("sweep table has %d rows, want 2", tb.Rows())
	}
	for _, tech := range []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery} {
		hi, ok1 := res.Point(tech, "10")
		lo, ok2 := res.Point(tech, "2.5")
		if !ok1 || !ok2 {
			t.Fatalf("%v: missing sweep points", tech)
		}
		if lo.Efficiency.Mean > hi.Efficiency.Mean+1e-9 {
			t.Errorf("%v: efficiency rose as MTBF fell (%v -> %v)",
				tech, hi.Efficiency.Mean, lo.Efficiency.Mean)
		}
	}
}

func TestWeibullStudy(t *testing.T) {
	tb, res, err := WeibullSpec{
		Config: fastConfig(),
		Shapes: []float64{1.0, 0.6},
		Trials: 10,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("weibull table has %d rows, want 2", tb.Rows())
	}
	// Sanity only: both shapes must produce efficiencies in (0,1]; the
	// direction of the effect is the study's finding, not an invariant.
	for _, p := range res.Points {
		if p.Efficiency.Mean <= 0 || p.Efficiency.Mean > 1 {
			t.Errorf("%v at shape %s: efficiency %v", p.Technique, p.Row, p.Efficiency.Mean)
		}
	}
}

func TestBackfillStudy(t *testing.T) {
	tb, res, err := BackfillSpec{Config: fastConfig(), Patterns: 4, Arrivals: 40}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Errorf("backfill table has %d rows, want 4 schedulers", tb.Rows())
	}
	if !strings.Contains(tb.String(), "EASY-Backfill") {
		t.Error("backfill row missing")
	}
	// Backfilling must beat strict FCFS on the same patterns for the same
	// technique, on average.
	var fcfs, bf float64
	for _, tech := range core.ClusterTechniques() {
		f, _ := res.Cell(core.FCFS, tech)
		b, _ := res.Cell(core.EASYBackfill, tech)
		fcfs += f.Dropped.Mean
		bf += b.Dropped.Mean
	}
	if bf >= fcfs {
		t.Errorf("backfill mean drop %v not below FCFS %v", bf/3, fcfs/3)
	}
}

func TestSelectorAgreement(t *testing.T) {
	tb, res, err := SelectorAgreementSpec{
		Config:   fastConfig(),
		Patterns: 2,
		Arrivals: 25,
		Probe: selection.Options{
			Trials:        4,
			TimeSteps:     360,
			SizeFractions: []float64{0.01, 0.25, 0.50},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Errorf("agreement table has %d rows, want 3", tb.Rows())
	}
	// The two policies derive from the same models; they should agree on
	// a solid majority of cells.
	if res.Agreement < 0.5 {
		t.Errorf("selector agreement %v; expected at least half the cells", res.Agreement)
	}
	if res.MonteCarloDropped.N != 2 || res.AnalyticDropped.N != 2 {
		t.Error("cluster comparison pattern counts wrong")
	}
	_ = workload.Unbiased
}

func TestTauSweep(t *testing.T) {
	tb, res, err := TauSweepSpec{
		Config: fastConfig(),
		Scales: []float64{0.1, 1, 10},
		Trials: 25,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 3 {
		t.Errorf("tau sweep table has %d rows, want 3", tb.Rows())
	}
	// The computed optimum must beat gross mis-tunings in both directions
	// for Checkpoint Restart, where the period matters most.
	at := func(scale float64) float64 {
		p, ok := res.Point(core.CheckpointRestart, report.F(scale))
		if !ok {
			t.Fatalf("missing CR point at scale %v", scale)
		}
		return p.Efficiency.Mean
	}
	if opt := at(1); opt <= at(0.1) || opt <= at(10) {
		t.Errorf("CR efficiency not maximal at the Daly period: 0.1x=%.4f 1x=%.4f 10x=%.4f",
			at(0.1), at(1), at(10))
	}
}

func TestMachinesStudy(t *testing.T) {
	tb, res, err := MachinesSpec{Config: fastConfig(), Trials: 10}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("machines table has %d rows, want 2", tb.Rows())
	}
	sw, ok1 := res.Point(core.CheckpointRestart, "sunway-taihulight")
	ex, ok2 := res.Point(core.CheckpointRestart, "exascale-120k")
	if !ok1 || !ok2 {
		t.Fatal("missing cross-machine cells")
	}
	if ex.Nodes <= sw.Nodes {
		t.Errorf("exascale quarter (%d nodes) should exceed TaihuLight quarter (%d)", ex.Nodes, sw.Nodes)
	}
	// On both machines, Parallel Recovery (which never touches the weak
	// PFS path) must beat Checkpoint Restart for this class; absolute
	// levels differ because the machines' I/O balance differs (the study's
	// finding: TaihuLight's slower fabric makes equal-fraction PFS
	// checkpointing *worse* than on the projected exascale machine).
	for _, name := range []string{"sunway-taihulight", "exascale-120k"} {
		cr, _ := res.Point(core.CheckpointRestart, name)
		pr, _ := res.Point(core.ParallelRecovery, name)
		if pr.Efficiency.Mean <= cr.Efficiency.Mean {
			t.Errorf("%s: PR (%v) should beat CR (%v)", name, pr.Efficiency.Mean, cr.Efficiency.Mean)
		}
		if cr.Efficiency.Mean <= 0 || pr.Efficiency.Mean > 1 {
			t.Errorf("%s: efficiencies out of range", name)
		}
	}
}

func TestPolicyTable(t *testing.T) {
	tb, err := PolicyTable(fastConfig(), selection.Options{
		Trials:        4,
		TimeSteps:     360,
		SizeFractions: []float64{0.01, 0.50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 16 { // 8 classes x 2 sizes
		t.Errorf("policy table has %d rows, want 16", tb.Rows())
	}
	if !strings.Contains(tb.String(), "Parallel Recovery") {
		t.Error("policy table missing technique names")
	}
}

func TestSemiBlockingStudy(t *testing.T) {
	tb, res, err := SemiBlockingSpec{
		Config: fastConfig(),
		Rates:  []float64{0, 0.5},
		Trials: 15,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 2 {
		t.Errorf("semi-blocking table has %d rows, want 2", tb.Rows())
	}
	// Overlapping computation with checkpoint writes must help CR, whose
	// blocking PFS checkpoints dominate its overhead at 50% of the machine.
	blocking, _ := res.Point(core.CheckpointRestart, "0")
	semi, _ := res.Point(core.CheckpointRestart, "0.5")
	if semi.Efficiency.Mean <= blocking.Efficiency.Mean {
		t.Errorf("semi-blocking CR (%v) should beat blocking (%v)",
			semi.Efficiency.Mean, blocking.Efficiency.Mean)
	}
}
