package selection

import (
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/workload"
)

// buildSelector constructs a small, fast selector for tests.
func buildSelector(t *testing.T) *Selector {
	t.Helper()
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	s, err := NewSelector(cfg, model, resilience.DefaultConfig(), Options{
		Trials:        6,
		TimeSteps:     360,
		SizeFractions: []float64{0.01, 0.25, 0.50},
		Seed:          1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSelectorValidation(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	rc := resilience.DefaultConfig()
	if _, err := NewSelector(machine.Config{}, model, rc, Options{}, nil); err == nil {
		t.Error("invalid machine accepted")
	}
	if _, err := NewSelector(cfg, nil, rc, Options{}, nil); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewSelector(cfg, model, resilience.Config{RecoverySpeedup: 0}, Options{}, nil); err == nil {
		t.Error("invalid resilience config accepted")
	}
}

func TestSelectorTableComplete(t *testing.T) {
	s := buildSelector(t)
	choices := s.Choices()
	if want := 8 * 3; len(choices) != want {
		t.Fatalf("table has %d cells, want %d", len(choices), want)
	}
	for _, c := range choices {
		if !c.Best.Valid() || c.Best == core.Ideal {
			t.Errorf("cell %s@%.0f%%: invalid best %v", c.Class.Name, 100*c.Fraction, c.Best)
		}
		if len(c.Efficiency) != len(s.Techniques()) {
			t.Errorf("cell %s@%.0f%%: %d efficiencies for %d techniques",
				c.Class.Name, 100*c.Fraction, len(c.Efficiency), len(s.Techniques()))
		}
		// Best must actually attain the maximum probe efficiency.
		bestIdx := -1
		for i, tech := range s.Techniques() {
			if tech == c.Best {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			t.Fatalf("best %v not among candidates", c.Best)
		}
		for i, e := range c.Efficiency {
			if e > c.Efficiency[bestIdx]+1e-12 {
				t.Errorf("cell %s@%.0f%%: candidate %d (%.4f) beats chosen best (%.4f)",
					c.Class.Name, 100*c.Fraction, i, e, c.Efficiency[bestIdx])
			}
		}
	}
}

func TestSelectorPrefersParallelRecoveryForLowComm(t *testing.T) {
	// Figure 1's conclusion: for communication-free applications Parallel
	// Recovery dominates at every size.
	s := buildSelector(t)
	for _, frac := range []float64{0.01, 0.25, 0.50} {
		app := workload.App{
			Class: workload.A32, TimeSteps: 1440,
			Nodes: machine.Exascale().NodesForFraction(frac),
		}
		if got := s.Choose(app); got != core.ParallelRecovery {
			t.Errorf("A32@%.0f%%: chose %v, want Parallel Recovery", 100*frac, got)
		}
	}
}

func TestChooseNearestBucket(t *testing.T) {
	s := buildSelector(t)
	cfg := machine.Exascale()
	// An app at 3% of the machine should use the 1% bucket (nearest of
	// {1, 25, 50}); at 40% the 50% bucket. Verify Choose is consistent
	// with the table rather than asserting which technique wins.
	for _, tc := range []struct {
		appFrac, bucket float64
	}{
		{0.03, 0.01},
		{0.20, 0.25},
		{0.40, 0.50},
		{0.90, 0.50},
	} {
		app := workload.App{Class: workload.D64, TimeSteps: 720,
			Nodes: cfg.NodesForFraction(tc.appFrac)}
		got := s.Choose(app)
		var want core.Technique
		for _, c := range s.Choices() {
			if c.Class.Name == "D64" && c.Fraction == tc.bucket {
				want = c.Best
			}
		}
		if got != want {
			t.Errorf("D64@%.0f%%: chose %v, want bucket %.0f%%'s winner %v",
				100*tc.appFrac, got, 100*tc.bucket, want)
		}
	}
}

func TestChooseUnknownClassFallsBack(t *testing.T) {
	s := buildSelector(t)
	odd := workload.App{
		Class:     workload.Class{Name: "X48", CommFraction: 0.4, MemoryPerNode: 48},
		TimeSteps: 720, Nodes: 1000,
	}
	if got := s.Choose(odd); got != core.ParallelRecovery {
		t.Errorf("unknown class fallback chose %v, want Parallel Recovery", got)
	}
}

func TestSelectorIsChooserCompatible(t *testing.T) {
	// The selector's Choose must be assignable to the cluster package's
	// TechniqueChooser (same underlying func type); compile-time check.
	s := buildSelector(t)
	var f func(workload.App) core.Technique = s.Choose
	if f == nil {
		t.Fatal("unreachable")
	}
}

func TestSelectorDeterministic(t *testing.T) {
	a := buildSelector(t)
	b := buildSelector(t)
	ca, cb := a.Choices(), b.Choices()
	for i := range ca {
		if ca[i].Best != cb[i].Best {
			t.Errorf("cell %s@%.0f%%: selectors disagree (%v vs %v)",
				ca[i].Class.Name, 100*ca[i].Fraction, ca[i].Best, cb[i].Best)
		}
	}
}

// TestParallelConstructionMatchesSerial asserts the fanned-out grid probe
// is bit-identical to a one-worker build: same winners AND same mean
// efficiencies in every cell, because probe seeds derive from grid
// position, not completion order.
func TestParallelConstructionMatchesSerial(t *testing.T) {
	build := func(workers int) *Selector {
		t.Helper()
		cfg := machine.Exascale()
		model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
		s, err := NewSelector(cfg, model, resilience.DefaultConfig(), Options{
			Trials:        4,
			TimeSteps:     360,
			SizeFractions: []float64{0.01, 0.25},
			Seed:          42,
			Workers:       workers,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := build(1)
	parallel := build(8)
	cs, cp := serial.Choices(), parallel.Choices()
	if len(cs) != len(cp) {
		t.Fatalf("table sizes differ: %d vs %d", len(cs), len(cp))
	}
	for i := range cs {
		if cs[i].Best != cp[i].Best || cs[i].Class.Name != cp[i].Class.Name || cs[i].Fraction != cp[i].Fraction {
			t.Errorf("cell %d: serial %+v vs parallel %+v", i, cs[i], cp[i])
			continue
		}
		for j := range cs[i].Efficiency {
			if cs[i].Efficiency[j] != cp[i].Efficiency[j] {
				t.Errorf("cell %s@%g%% candidate %d: efficiency %v (serial) != %v (parallel)",
					cs[i].Class.Name, 100*cs[i].Fraction, j, cs[i].Efficiency[j], cp[i].Efficiency[j])
			}
		}
	}
}

func TestOptionsTrialValidation(t *testing.T) {
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	rc := resilience.DefaultConfig()
	bad := []Options{
		{Trials: -1},
		{PairedTrials: -2},
		{Trials: 4, PairedTrials: 2}, // mutually exclusive
	}
	for _, opts := range bad {
		if _, err := NewSelector(cfg, model, rc, opts, nil); err == nil {
			t.Errorf("Options %+v accepted, want an error", opts)
		}
	}
}

func TestOptionsCandidateValidation(t *testing.T) {
	// The candidate menu must hold real, executable techniques: Ideal (the
	// overhead-free baseline, not a selectable strategy) and out-of-range
	// values are rejected before any probe runs.
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	rc := resilience.DefaultConfig()
	bad := []struct {
		name string
		menu []core.Technique
	}{
		{"ideal candidate", []core.Technique{core.Ideal}},
		{"ideal among real candidates", []core.Technique{core.CheckpointRestart, core.Ideal}},
		{"unknown technique", []core.Technique{core.Technique(99)}},
	}
	for _, tc := range bad {
		if _, err := NewSelector(cfg, model, rc, Options{Techniques: tc.menu}, nil); err == nil {
			t.Errorf("%s: menu %v accepted, want an error", tc.name, tc.menu)
		}
	}
	// The full expanded menu (paper's five plus the post-2017 pair) builds.
	s, err := NewSelector(cfg, model, rc, Options{
		Techniques:    core.Techniques(),
		Trials:        1,
		TimeSteps:     60,
		SizeFractions: []float64{0.01},
		Seed:          3,
	}, nil)
	if err != nil {
		t.Fatalf("expanded menu rejected: %v", err)
	}
	for _, c := range s.Choices() {
		if len(c.Efficiency) != len(core.Techniques()) {
			t.Fatalf("choice probed %d arms, want %d", len(c.Efficiency), len(core.Techniques()))
		}
	}
}

func TestOptionsTrialDefaulting(t *testing.T) {
	// The zero trial configuration must fall back to the documented 20
	// probes per arm, not degenerate to zero (a zero-trial appsim run
	// panics, so a successful build proves the default applied).
	cfg := machine.Exascale()
	model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
	s, err := NewSelector(cfg, model, resilience.DefaultConfig(), Options{
		TimeSteps:     360,
		SizeFractions: []float64{0.25},
		Seed:          5,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Choices()); got != 8 {
		t.Fatalf("defaulted selector has %d cells, want 8", got)
	}
}

func TestPairedTrialsDeterministicAcrossWorkers(t *testing.T) {
	// Variance-reduced probing must keep the worker-count invariance of
	// the default mode: probe streams are keyed by grid position, never
	// by completion order.
	build := func(workers int) *Selector {
		t.Helper()
		cfg := machine.Exascale()
		model := failures.MustModel(cfg.MTBF, failures.DefaultSeverityPMF())
		s, err := NewSelector(cfg, model, resilience.DefaultConfig(), Options{
			PairedTrials:  2,
			TimeSteps:     360,
			SizeFractions: []float64{0.01, 0.25},
			Seed:          42,
			Workers:       workers,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, parallel := build(1), build(8)
	cs, cp := serial.Choices(), parallel.Choices()
	if len(cs) != len(cp) {
		t.Fatalf("table sizes differ: %d vs %d", len(cs), len(cp))
	}
	for i := range cs {
		if cs[i].Best != cp[i].Best {
			t.Errorf("cell %d: serial best %v vs parallel best %v", i, cs[i].Best, cp[i].Best)
		}
		for j := range cs[i].Efficiency {
			if cs[i].Efficiency[j] != cp[i].Efficiency[j] {
				t.Errorf("cell %d technique %d: efficiency %v vs %v",
					i, j, cs[i].Efficiency[j], cp[i].Efficiency[j])
			}
		}
	}
}
