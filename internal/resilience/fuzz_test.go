package resilience

import (
	"math"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// FuzzReStoreReplicaLoss throws arbitrary (degree, size, MTBF, seed)
// configurations at the In-Memory Replicated Checkpoint executor and
// replays each run's trace against an independent mirror of the replica
// bookkeeping. The contract under any failure sequence:
//
//   - every phase-time counter in the result is non-negative, and
//     relaunch time never exceeds restart time;
//   - trace timestamps never run backwards;
//   - no restore ever reads a checkpoint whose replica set the failures
//     since its commit have destroyed: once the holder losses reach the
//     degree k, the next restore must be a from-scratch relaunch (trace
//     level 0, progress 0) until a new commit re-provisions the set;
//   - while the set survives, restores resume exactly the committed
//     progress at the in-memory level (2; PFS level 3 when degenerate).
func FuzzReStoreReplicaLoss(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(12000), uint16(720), uint8(25))
	f.Add(uint64(7), uint8(0), uint16(2), uint16(360), uint8(10))      // degenerate: no peers
	f.Add(uint64(42), uint8(5), uint16(60000), uint16(1440), uint8(5)) // high rate, big set
	f.Add(uint64(3), uint8(1), uint16(300), uint16(120), uint8(100))
	f.Fuzz(func(t *testing.T, seed uint64, degreeRaw uint8, nodesRaw, stepsRaw uint16, mtbfTenths uint8) {
		cfg := machine.Exascale().WithMTBF(units.Duration(float64(mtbfTenths%200+1) / 10 * float64(units.Year)))
		model := defaultModel(cfg)
		// Nodes start at 2 so small allocations exercise the degenerate
		// (no-peers) fallback; degree 0 resolves to the default.
		app := workload.App{
			Class:     workload.C64,
			TimeSteps: int(stepsRaw)%1440 + 60,
			Nodes:     int(nodesRaw)%60000 + 2,
		}
		opts := DefaultConfig()
		opts.ReStoreDegree = int(degreeRaw % 6)

		x, err := New(core.InMemoryReplicatedCheckpoint, app, cfg, model, opts)
		if err != nil {
			t.Fatalf("constructor rejected a valid config: %v", err)
		}
		info, ok := ReStoreInfoOf(x)
		if !ok {
			t.Fatal("ReStoreInfoOf missed its own executor")
		}
		if ok, _ := x.Viable(); !ok {
			return
		}

		// Mirror of the strategy's replica-placement state, rebuilt purely
		// from the trace.
		var (
			saved     units.Duration
			has       bool
			lost      int
			lastTime  units.Duration
			liveLevel = 2
		)
		if info.Degenerate {
			liveLevel = 3
		}
		rt := NewRuntime(nil)
		rt.Observer = func(ev TraceEvent) {
			if ev.Time < lastTime {
				t.Fatalf("trace time ran backwards: %s after %s", ev.Time, lastTime)
			}
			lastTime = ev.Time
			switch ev.Kind {
			case TraceCheckpointEnd:
				if ev.Level != liveLevel {
					t.Fatalf("checkpoint committed at level %d, want %d", ev.Level, liveLevel)
				}
				saved, has, lost = ev.Progress, true, 0
			case TraceFailure:
				if !ev.Rollback {
					t.Fatalf("ReStore absorbed a failure (%v); every failure must roll back", ev.Severity)
				}
				if !info.Degenerate {
					lost += holderLoss(ev.Severity)
					if lost >= info.Degree {
						saved, has = 0, false
					}
				}
			case TraceRestartEnd:
				wantLevel, wantProgress := 0, units.Duration(0)
				if has {
					wantLevel, wantProgress = liveLevel, saved
				}
				if ev.Level != wantLevel {
					t.Fatalf("restored from level %d with %d/%d holders lost, want level %d",
						ev.Level, lost, info.Degree, wantLevel)
				}
				if ev.Progress != wantProgress {
					t.Fatalf("restore resumed progress %s, want %s", ev.Progress, wantProgress)
				}
			}
		}

		res := rt.Run(x, 0, units.Duration(50*float64(app.Baseline())), rng.New(seed))
		for _, c := range []struct {
			name string
			v    units.Duration
		}{
			{"checkpoint", res.CheckpointTime}, {"restart", res.RestartTime},
			{"rework", res.ReworkTime}, {"relaunch", res.RelaunchTime},
			{"lost work", res.LostWork},
		} {
			if c.v < 0 {
				t.Fatalf("negative %s time %s", c.name, c.v)
			}
		}
		if res.RelaunchTime > res.RestartTime+1e-9 {
			t.Fatalf("relaunch time %s exceeds restart time %s", res.RelaunchTime, res.RestartTime)
		}
		if res.Rollbacks != res.Failures {
			t.Fatalf("%d rollbacks != %d failures; ReStore cannot absorb", res.Rollbacks, res.Failures)
		}
	})
}

// FuzzOptimizeMultilevel throws arbitrary (costs, rates, bounds) tuples at
// the schedule search and checks its contract: no panic, the winner lies
// inside the requested bounds with a finite stretch >= 1, the failure-free
// degenerate case never checkpoints, and the memoized path returns exactly
// what the raw search returns.
func FuzzOptimizeMultilevel(f *testing.F) {
	f.Add(1.0, 3.0, 10.0, 1e-3, 1e-4, 1e-5, uint8(4), uint8(4), uint8(9))
	f.Add(0.1, 0.1, 0.1, 0.0, 0.0, 0.0, uint8(1), uint8(1), uint8(2))
	f.Add(5.0, 5.0, 500.0, 0.01, 0.01, 0.01, uint8(8), uint8(8), uint8(17))
	f.Add(30.0, 30.0, 30.0, 0.9, 0.9, 0.9, uint8(3), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, l1, l2, pfs, r1, r2, r3 float64, n1cap, n2cap, steps uint8) {
		for _, v := range []float64{l1, l2, pfs, r1, r2, r3} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		if l1 <= 0 || l2 <= 0 || pfs <= 0 || l1 > 1e6 || l2 > 1e6 || pfs > 1e6 {
			t.Skip("cost outside the meaningful range")
		}
		if r1 < 0 || r2 < 0 || r3 < 0 || r1 > 1e3 || r2 > 1e3 || r3 > 1e3 {
			t.Skip("rate outside the meaningful range")
		}
		costs := Costs{L1: units.Duration(l1), L2: units.Duration(l2), PFS: units.Duration(pfs)}
		rates := [3]units.Rate{units.Rate(r1), units.Rate(r2), units.Rate(r3)}
		bounds := MultilevelConfig{
			MaxL1PerL2:    1 + int(n1cap%8),
			MaxL2PerL3:    1 + int(n2cap%8),
			IntervalSteps: 2 + int(steps%16),
		}
		sched, err := optimizeMultilevel(costs, rates, bounds)
		if err != nil {
			// Infeasible regimes (failures eat work faster than it is
			// computed) are a legitimate outcome — but a deterministic one.
			if _, err2 := optimizeMultilevel(costs, rates, bounds); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("infeasibility not deterministic: %v then %v", err, err2)
			}
			return
		}
		if !(sched.Interval > 0) {
			t.Fatalf("non-positive interval %v", sched.Interval)
		}
		if sched.L1PerL2 < 1 || sched.L1PerL2 > bounds.MaxL1PerL2 ||
			sched.L2PerL3 < 1 || sched.L2PerL3 > bounds.MaxL2PerL3 {
			t.Fatalf("pattern counts %d/%d outside bounds %d/%d",
				sched.L1PerL2, sched.L2PerL3, bounds.MaxL1PerL2, bounds.MaxL2PerL3)
		}
		if r1+r2+r3 == 0 {
			if !math.IsInf(float64(sched.Interval), 1) {
				t.Fatalf("failure-free optimum should never checkpoint, got interval %v", sched.Interval)
			}
		} else {
			st := sched.ExpectedStretch(costs, rates)
			if math.IsNaN(st) || math.IsInf(st, 0) || st < 1 {
				t.Fatalf("winning schedule %v has stretch %v, want finite >= 1", sched, st)
			}
		}
		// The memoized path must agree with the raw search, on both the
		// cold (store) and warm (load) lookups.
		for pass := 0; pass < 2; pass++ {
			again, err2 := OptimizeMultilevel(costs, rates, bounds)
			if err2 != nil || again != sched {
				t.Fatalf("cached pass %d returned %v (%v), raw search returned %v", pass, again, err2, sched)
			}
		}
	})
}
