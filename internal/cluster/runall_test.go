package cluster

import (
	"reflect"
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestRunAllMatchesSeparateRuns: RunAll over the specs of one pattern
// returns exactly what a Run of each spec returns, although the specs
// share every trajectory they can.
func TestRunAllMatchesSeparateRuns(t *testing.T) {
	var specs []Spec
	for _, c := range pinCases() {
		if !c.spec.Machine.Heterogeneous() && !c.spec.Mirror {
			specs = append(specs, c.spec)
		}
	}
	// The chooser case's spec is last, so its trajectories come from the
	// table the fixed-technique specs filled.
	got, err := RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("RunAll returned %d metrics for %d specs", len(got), len(specs))
	}
	for i, s := range specs {
		want, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("spec %d (%v/%v): RunAll differs from Run", i, s.Scheduler, s.Technique)
		}
	}
}

// TestRunAllRefusesAnotherWorkload: specs that differ in pattern, seed,
// mirror, failure model, resilience config or registry cannot share
// trajectories, so RunAll refuses them.
func TestRunAllRefusesAnotherWorkload(t *testing.T) {
	base := testSpec(t, core.FCFS, core.ParallelRecovery, 4)
	other := testSpec(t, core.FCFS, core.ParallelRecovery, 5)
	for name, mutate := range map[string]func(*Spec){
		"pattern": func(s *Spec) { s.Pattern = other.Pattern },
		"pattern of equal length": func(s *Spec) {
			s.Pattern.Apps = append([]workload.App(nil), s.Pattern.Apps...)
			s.Pattern.Apps[1].Nodes++
		},
		"seed":              func(s *Spec) { s.Seed++ },
		"mirror":            func(s *Spec) { s.Mirror = true },
		"failure model":     func(s *Spec) { s.Model = other.Model },
		"resilience config": func(s *Spec) { s.Resilience.RecoverySpeedup++ },
	} {
		s := base
		mutate(&s)
		if _, err := RunAll([]Spec{base, s}); err == nil || !strings.Contains(err.Error(), "spec 1") {
			t.Errorf("%s: RunAll error = %v, want spec 1 refused", name, err)
		}
	}
	// Policy may differ: scheduler, technique and placement.
	s := base
	s.Scheduler, s.Technique, s.Placement = core.SlackBased, core.Ideal, PlaceReliability
	if _, err := RunAll([]Spec{base, s}); err != nil {
		t.Errorf("policy-only difference refused: %v", err)
	}
}

// TestRunAllNeverSharesAcrossMachines: a trajectory belongs to the machine
// or node class its executor was built for. Two homogeneous machines, and
// two fleets whose classes differ only in speed, each run exactly as they
// do alone.
func TestRunAllNeverSharesAcrossMachines(t *testing.T) {
	slow := machine.Exascale()
	slow.Network.Bandwidth /= 4 // every PFS checkpoint costs more
	fleet := func(speed float64) machine.Config {
		c := machine.Exascale()
		c.Classes = []machine.NodeClass{
			{Name: "a", Count: 60000, Speed: speed, MTBF: units.Year},
			{Name: "b", Count: 60000, Speed: 1, MTBF: units.Year},
		}
		return c
	}
	cr := pinCases()[1].spec // FCFS under Checkpoint Restart
	for name, machines := range map[string][2]machine.Config{
		"homogeneous":   {machine.Exascale(), slow},
		"heterogeneous": {fleet(1), fleet(1.5)},
	} {
		var specs []Spec
		for _, m := range machines {
			s := cr
			s.Machine = m
			specs = append(specs, s)
		}
		got, err := RunAll(specs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var alone [2]Metrics
		for i, s := range specs {
			if alone[i], err = Run(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got[i], alone[i]) {
				t.Errorf("%s: machine %d runs differently beside machine %d", name, i, 1-i)
			}
		}
		if reflect.DeepEqual(alone[0].Results, alone[1].Results) {
			t.Fatalf("%s: the two machines give the same results, so the test shows nothing", name)
		}
	}
}

// TestTrajectoryTableSize: the table holds a technique column per
// technique its specs can run (one per fixed technique, every one once a
// spec has a chooser) and a slot per machine or node class, so a one-spec
// Run sizes it for that spec alone.
func TestTrajectoryTableSize(t *testing.T) {
	cases := map[string]pinCase{}
	for _, c := range pinCases() {
		cases[c.name] = c
	}
	spec := func(name string) Spec {
		c, ok := cases[name]
		if !ok {
			t.Fatalf("no pin case %q", name)
		}
		return c.spec
	}
	apps := len(spec("chooser").Pattern.Apps)
	for _, c := range []struct {
		name  string
		specs []Spec
		slots int
		cols  int
	}{
		{"one fixed technique", []Spec{spec("FCFS/cr")}, 1, 1},
		{"one technique, two schedulers", []Spec{spec("FCFS/cr"), spec("Slack-Based/cr")}, 1, 1},
		{"two techniques", []Spec{spec("FCFS/cr"), spec("FCFS/pr")}, 1, 2},
		{"chooser", []Spec{spec("FCFS/cr"), spec("chooser")}, 1, core.NumTechniques},
		{"two node classes", []Spec{spec("hetero/first-fit")}, 2, core.NumTechniques},
	} {
		tab := newTrajectories(c.specs)
		if tab.cols != c.cols || len(tab.entries) != c.slots*c.cols*apps {
			t.Errorf("%s: %d columns, %d entries; want %d columns, %d entries",
				c.name, tab.cols, len(tab.entries), c.cols, c.slots*c.cols*apps)
		}
	}
}
