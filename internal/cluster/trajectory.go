package cluster

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// An application's trajectory under a technique does not depend on when,
// or by which scheduler, it is started: its failure process starts with
// it and is seeded from (seed, app ID) alone (DESIGN.md §4.4). The
// trajectory table simulates each one once, from time zero, and every run
// of the pattern places it at its own start time.

// trajectory is one application's simulated run, measured from its start.
type trajectory struct {
	simulated bool
	completed bool
	end       units.Duration
}

// trajectories is the table of one pattern's trajectories, keyed by the
// application's index in the pattern, its technique, and the slot of the
// machine or node class its executor was built for. It is sized once, for
// the slots and techniques its specs can reach, and every run of a RunAll
// call reads and fills it on one goroutine.
type trajectories struct {
	apps     int
	cols     int                     // technique columns per slot
	col      [core.NumTechniques]int // each technique's column, -1 if no spec reaches it
	entries  []trajectory            // [slot][column][app]
	machines []machine.Config        // distinct machines of the specs, in order
	bases    []int                   // each machine's first slot
	shared   bool                    // several specs read the table
	rt       *resilience.Runtime     // simulates every trajectory of the table
	src      rng.Source              // re-seeded per trajectory
	seed     uint64
	mirror   bool
}

// newTrajectories sizes the table for specs, which share pattern, seed,
// mirror, failure model, resilience config and registry (RunAll checks).
// A homogeneous machine takes one slot, a heterogeneous one a slot per
// node class; a fixed-technique spec reaches one technique column, a
// chooser every one.
func newTrajectories(specs []Spec) *trajectories {
	first := specs[0]
	t := &trajectories{
		apps:   len(first.Pattern.Apps),
		shared: len(specs) > 1,
		rt:     resilience.NewRuntime(resilience.NewMetrics(first.Obs)),
		seed:   first.Seed,
		mirror: first.Mirror,
	}
	var reach [core.NumTechniques]bool
	slots := 0
	for _, s := range specs {
		switch {
		case s.Chooser != nil:
			for tech := range reach {
				reach[tech] = true
			}
		case s.Technique.Valid():
			reach[s.Technique] = true
		}
		if t.slotBase(s.Machine) >= 0 {
			continue
		}
		t.machines = append(t.machines, s.Machine)
		t.bases = append(t.bases, slots)
		slots += max(1, len(s.Machine.Classes))
	}
	for tech, ok := range reach {
		t.col[tech] = -1
		if ok {
			t.col[tech] = t.cols
			t.cols++
		}
	}
	t.entries = make([]trajectory, slots*t.cols*t.apps)
	return t
}

// slotBase reports the first slot of machine m, or -1 if the table has
// none for it.
func (t *trajectories) slotBase(m machine.Config) int {
	for i, have := range t.machines {
		if have.Equal(m) {
			return t.bases[i]
		}
	}
	return -1
}

// get returns the trajectory of the app at index i of the pattern, run by
// x on the given slot from a start that leaves it window before its
// horizon, simulating it on first use. A shared table simulates the app's
// whole budget, which holds every start's window. A one-spec table's entry
// is read once, since an application starts at most once per run, so it
// simulates just that window, as the run would without a table.
func (t *trajectories) get(slot, i int, x *resilience.Executor, app workload.App, window units.Duration) trajectory {
	col := t.col[x.Technique()]
	if col < 0 {
		panic(fmt.Sprintf("cluster: no spec of the trajectory table runs %v", x.Technique()))
	}
	e := &t.entries[(slot*t.cols+col)*t.apps+i]
	if !e.simulated {
		span := window
		if t.shared {
			span = budget(app)
		}
		t.src.SetStream(t.seed, uint64(app.ID)+1)
		t.src.SetMirror(t.mirror)
		res := t.rt.Run(x, span, &t.src)
		*e = trajectory{simulated: true, completed: res.Completed, end: res.End}
	}
	return *e
}

// budget is the longest an application can run: from its arrival to its
// deadline, or 100 baselines when it has none. Every start's window (from
// the start to the deadline, or 100 baselines) fits inside it.
func budget(app workload.App) units.Duration {
	if app.Deadline <= 0 {
		return units.Duration(100 * float64(app.Baseline()))
	}
	return app.Deadline - app.Arrival
}
