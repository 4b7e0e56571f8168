package resilience

import (
	"sync"
	"testing"
	"unsafe"

	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestCloneAfterRunOwnsItsRuntime: an Executor that has already run and a
// copy of it made then (all a clone of a read-only Executor is) run at
// once, the original on two Runtimes and the copy on a third, as appsim's
// trial workers run one executor, and each run gives exactly the Result of
// a fresh Runtime. An executor that a run wrote to would race between the
// goroutines, which -race reports, and would hand what its earlier runs
// left to the copy, which the Results show.
func TestCloneAfterRunOwnsItsRuntime(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)
	horizon := units.Duration(200 * float64(app.Baseline()))
	seeds := []uint64{11, 12, 13, 14, 15, 16}
	for _, tech := range append(core.Techniques(), core.Ideal) {
		x := mustExecutor(t, tech, app, cfg, model)
		want := make([]Result, len(seeds))
		for i, seed := range seeds {
			want[i] = NewRuntime(nil).Run(x, horizon, rng.New(seed))
		}
		y := *x
		runners := []*Executor{x, x, &y}
		got := make([][]Result, len(runners))
		var wg sync.WaitGroup
		for k, ex := range runners {
			got[k] = make([]Result, len(seeds))
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := NewRuntime(nil)
				for i, seed := range seeds {
					got[k][i] = rt.Run(ex, horizon, rng.New(seed))
				}
			}()
		}
		wg.Wait()
		for k, name := range []string{"original on Runtime 0", "original on Runtime 1", "clone"} {
			for i := range seeds {
				if got[k][i] != want[i] {
					t.Errorf("%v: %s, seed %d: got %+v, fresh Runtime %+v", tech, name, seeds[i], got[k][i], want[i])
				}
			}
		}
	}
}

// TestRunStateResetClearsTheRun: reset leaves nothing a strategy decided
// in the previous run — committed checkpoints, the pattern counter, holder
// losses, re-syncs in flight, failure marks of a live generation — and
// grows the marks to the next executor's nodes. A leaked re-sync would
// only show when a later run's failure hit its twin, which a whole-run
// comparison rarely draws.
func TestRunStateResetClearsTheRun(t *testing.T) {
	st := runState{
		saved:    [4]units.Duration{0, 1, 2, 3},
		has:      [4]bool{false, true, true, true},
		counter:  5,
		lost:     2,
		failedIn: []uint64{7, 7},
		gen:      7,
		repairs:  []repair{{node: 1, until: 9}},
	}
	for _, marks := range []int{2, 4} {
		st.reset(marks)
		if st.saved != ([4]units.Duration{}) || st.has != ([4]bool{}) || st.counter != 0 || st.lost != 0 || len(st.repairs) != 0 {
			t.Errorf("reset(%d) left run state behind: %+v", marks, st)
		}
		if len(st.failedIn) < marks {
			t.Errorf("reset(%d) left %d failure marks", marks, len(st.failedIn))
		}
		for node, gen := range st.failedIn {
			if gen == st.gen {
				t.Errorf("reset(%d) left node %d marked failed", marks, node)
			}
		}
	}
}

// TestPaddedOwnsItsLines pins padded's layout for every type the package
// pads: a whole cache line of the value's own allocation lies before it
// and after it, so no other heap object can share a line with it.
func TestPaddedOwnsItsLines(t *testing.T) {
	for _, l := range []paddedLayout{
		layoutOf[Runtime]("Runtime"),
		layoutOf[rollback]("rollback"),
		layoutOf[multilevel]("multilevel"),
		layoutOf[redundancy]("redundancy"),
		layoutOf[teamReplication]("teamReplication"),
	} {
		if l.before < 64 || l.after < 64 {
			t.Errorf("padded %s: %d B before its %d B and %d B after, want at least 64 B on each side", l.name, l.before, l.size, l.after)
		}
	}
}

// paddedLayout is where padded places a value in its allocation.
type paddedLayout struct {
	name                string
	before, size, after uintptr
}

func layoutOf[T any](name string) paddedLayout {
	var b paddedBox[T]
	l := paddedLayout{name: name, before: unsafe.Offsetof(b.v), size: unsafe.Sizeof(b.v)}
	l.after = unsafe.Sizeof(b) - l.before - l.size
	return l
}
