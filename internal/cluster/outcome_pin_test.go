package cluster

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// pinCase is one cluster run whose every AppResult is pinned.
type pinCase struct {
	name string
	spec Spec
}

// pinCases covers the three schedulers under the Ideal baseline and the
// three cluster techniques, a per-application technique chooser, both
// placements on a two-class fleet, and a mirrored run. Every pattern holds
// two deadline-free applications: one of the initial fill, one that
// arrives late. The failure model runs at a
// one-year node MTBF, so every case sees failures and dropped-running
// applications.
func pinCases() []pinCase {
	homo := machine.Exascale()
	pattern := func(cfg machine.Config) workload.Pattern {
		p := workload.PatternSpec{Arrivals: 12, FillSystem: true}.Generate(cfg, rng.New(3))
		p.Apps[3].Deadline = 0
		p.Apps[len(p.Apps)-2].Deadline = 0
		return p
	}
	model := failures.MustModel(units.Year, failures.DefaultSeverityPMF())
	base := func(cfg machine.Config) Spec {
		return Spec{
			Machine:    cfg,
			Model:      model,
			Resilience: resilience.DefaultConfig(),
			Pattern:    pattern(cfg),
			Seed:       3,
		}
	}
	var cases []pinCase
	for _, sch := range core.Schedulers() {
		for _, tech := range []core.Technique{core.Ideal, core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery} {
			s := base(homo)
			s.Scheduler, s.Technique = sch, tech
			cases = append(cases, pinCase{fmt.Sprintf("%v/%v", sch, tech.Label()), s})
		}
	}
	menu := core.Techniques()[1:] // every technique but Ideal, redundancy and TeaMPI included
	chooser := func(app workload.App) core.Technique { return menu[app.ID%len(menu)] }
	s := base(homo)
	s.Scheduler, s.Chooser = core.SlackBased, chooser
	cases = append(cases, pinCase{"chooser", s})

	fleet := machine.Exascale()
	fleet.Classes = []machine.NodeClass{
		{Name: "fast", Count: 60000, Speed: 1.25, MTBF: units.Year},
		{Name: "hardened", Count: 60000, Speed: 0.8, MTBF: 10 * units.Year},
	}
	for _, pl := range []PlacementPolicy{PlaceFirstFit, PlaceReliability} {
		s := base(fleet)
		s.Scheduler, s.Chooser, s.Placement = core.SlackBased, chooser, pl
		cases = append(cases, pinCase{"hetero/" + pl.String(), s})
	}

	s = base(homo)
	s.Scheduler, s.Technique, s.Mirror = core.RandomOrder, core.ParallelRecovery, true
	cases = append(cases, pinCase{"mirrored", s})
	return cases
}

// TestOutcomesPinned holds every application's fate in the pinned cases
// to testdata/outcomes.txt: Outcome and Started exactly, Start and End to
// 1e-12 relative. The file was recorded by the code that simulated each
// start's run from its absolute start time; start-relative trajectories
// move End in its last bits only (DESIGN.md §4.4), never an outcome, and a
// start at a departure inherits that departure's last bits. The file is a
// fixed record: nothing here rewrites it.
func TestOutcomesPinned(t *testing.T) {
	var lines []string
	for _, c := range pinCases() {
		m, err := Run(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, r := range m.Results {
			lines = append(lines, fmt.Sprintf("%s\t%d\t%d\t%t\t%s\t%s", c.name, i, r.Outcome, r.Started,
				strconv.FormatFloat(float64(r.Start), 'g', -1, 64), strconv.FormatFloat(float64(r.End), 'g', -1, 64)))
		}
	}
	f, err := os.Open(filepath.Join("testdata", "outcomes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("%d application results, pinned %d", len(lines), len(want))
	}
	for i := range lines {
		g, w := strings.Split(lines[i], "\t"), strings.Split(want[i], "\t")
		if len(w) != 6 || !slices.Equal(g[:4], w[:4]) {
			t.Errorf("result %d: got %q, pinned %q", i, lines[i], want[i])
			continue
		}
		for k, name := range map[int]string{4: "Start", 5: "End"} {
			got, _ := strconv.ParseFloat(g[k], 64)
			pinned, err := strconv.ParseFloat(w[k], 64)
			if err != nil {
				t.Fatalf("pinned line %d: %v", i, err)
			}
			if math.Abs(got-pinned) > 1e-12*math.Abs(pinned) {
				t.Errorf("%s app %s: %s %v, pinned %v", g[0], g[1], name, got, pinned)
			}
		}
	}
}
