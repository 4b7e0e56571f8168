package resilience

import (
	"sync"
	"testing"
	"unsafe"

	"exaresil/internal/core"
	"exaresil/internal/des"
	"exaresil/internal/machine"
	"exaresil/internal/obs"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestCloneAfterRunOwnsItsRuntime: an executor that has already run (and so
// holds a Runtime) and a Clone of it run concurrently, as appsim's workers
// do, and each gives exactly the Results of a fresh executor. A clone that
// shared its original's Runtime would race on it, which -race reports and
// the Results show.
func TestCloneAfterRunOwnsItsRuntime(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)
	seeds := []uint64{11, 12, 13, 14, 15, 16}
	for _, tech := range core.Techniques() {
		want := make([]Result, len(seeds))
		for i, seed := range seeds {
			want[i] = run(t, mustExecutor(t, tech, app, cfg, model), seed)
		}

		x := mustExecutor(t, tech, app, cfg, model)
		run(t, x, 1) // x now holds a Runtime
		y := x.Clone()
		if e, ok := y.(*executor); ok && e.rt != nil {
			t.Fatalf("%v: Clone carries a Runtime", tech)
		}
		got := [2][]Result{make([]Result, len(seeds)), make([]Result, len(seeds))}
		var wg sync.WaitGroup
		for k, ex := range []Executor{x, y} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, seed := range seeds {
					got[k][i] = run(t, ex, seed)
				}
			}()
		}
		wg.Wait()
		if e, ok := x.(*executor); ok && e.rt == y.(*executor).rt {
			t.Fatalf("%v: a clone shares its original's Runtime", tech)
		}
		for k, name := range []string{"original", "clone"} {
			for i := range seeds {
				if got[k][i] != want[i] {
					t.Errorf("%v: %s, seed %d: got %+v, fresh executor %+v", tech, name, seeds[i], got[k][i], want[i])
				}
			}
		}
	}
}

// TestInstrumentAfterRunCounts: metrics attached to an executor that has
// already run reach its Runtime's simulator, so the next run counts exactly
// the events a fresh instrumented executor's run does.
func TestInstrumentAfterRunCounts(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := testApp(workload.C64, 12000)
	dispatched := func(x Executor, warm bool) uint64 {
		if warm {
			run(t, x, 1)
		}
		r := obs.NewRegistry()
		if !Instrument(x, NewMetrics(r)) {
			t.Fatalf("%v: not instrumentable", x.Technique())
		}
		run(t, x, 7)
		return des.NewMetrics(r).Dispatched.Value()
	}
	for _, tech := range core.Techniques() {
		if tech == core.Ideal {
			continue
		}
		fresh := dispatched(mustExecutor(t, tech, app, cfg, model), false)
		late := dispatched(mustExecutor(t, tech, app, cfg, model), true)
		if fresh == 0 || late != fresh {
			t.Errorf("%v: exaresil_des_events_dispatched_total is %d when instrumented after a run, %d when fresh", tech, late, fresh)
		}
	}
}

// TestPaddedOwnsItsLines pins padded's layout for every type the package
// pads: a whole cache line of the value's own allocation lies before it
// and after it, so no other heap object can share a line with it.
func TestPaddedOwnsItsLines(t *testing.T) {
	for _, l := range []paddedLayout{
		layoutOf[multilevel]("multilevel"),
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
