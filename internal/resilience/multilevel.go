package resilience

import (
	"fmt"

	"exaresil/internal/failures"
	"exaresil/internal/units"
)

// multilevel implements the three-level checkpointing scheme of Section
// IV-C, after Moody et al. Checkpoints are taken every tau of work in a
// repeating pattern: most go to local RAM (level 1), every n1-th instead
// goes to a partner node (level 2), and every (n1*n2)-th to the parallel
// file system (level 3). A failure of severity j is recovered from the
// newest surviving checkpoint of level >= j.
type multilevel struct {
	costs    Costs
	schedule MultilevelSchedule
}

// withMultilevel makes x run the multilevel scheme, optimizing the
// checkpoint schedule for the application's failure rates.
func (x *Executor) withMultilevel(costs Costs, opts MultilevelConfig, periodScale float64) {
	sched, err := OptimizeMultilevel(costs, x.model.SeverityRates(x.app.Nodes), opts)
	if err != nil {
		x.block(fmt.Sprintf("no feasible multilevel schedule: %v", err))
	}
	x.interval = sched.Interval * units.Duration(periodScale)
	x.strat = padded(multilevel{costs: costs, schedule: sched})
}

// nextCheckpoint advances the repeating level pattern. The counter is
// never reset by rollbacks: the schedule marches on as in SCR.
func (s *multilevel) nextCheckpoint(st *runState) (int, units.Duration) {
	st.counter++
	level := s.schedule.LevelAt(st.counter)
	return level, s.costs.CostForLevel(level)
}

func (s *multilevel) onCheckpointDone(st *runState, level int, progress units.Duration) {
	st.saved[level] = progress
	st.has[level] = true
}

// onFailure restores from the newest checkpoint whose level can survive
// the failure's severity; ties between equally fresh levels break toward
// the cheaper restore. A severity-j failure destroys the storage backing
// every level below j (a node-loss failure takes the local-RAM checkpoint
// slice with it, and a distributed checkpoint missing one node's slice is
// useless), so those levels are invalidated outright. Every surviving
// level then necessarily holds progress at or below the restore point.
func (s *multilevel) onFailure(st *runState, f failures.Failure) response {
	minLevel := int(f.Severity)
	for level := 1; level < minLevel && level <= 3; level++ {
		st.has[level] = false
		st.saved[level] = 0
	}

	best := 0 // level 0 = no surviving checkpoint, restart from scratch
	var bestProgress units.Duration
	for level := minLevel; level <= 3; level++ {
		if st.has[level] && (best == 0 || st.saved[level] > bestProgress) {
			best = level
			bestProgress = st.saved[level]
		}
	}

	resp := response{rollback: true, restoreTo: bestProgress, restoreLevel: best}
	if best == 0 {
		// Restart from the beginning. The relaunch still pays the failing
		// level's (symmetric) restore time — re-provisioning replaces what
		// the failure destroyed — but the restore LEVEL stays 0: in Moody's
		// model a from-scratch restart reads no checkpoint, so attributing
		// it to level minLevel would inflate that level's restore count in
		// traces and summaries (trace.Summary.Restores keeps index 0 for
		// exactly these relaunches).
		resp.restartCost = s.costs.CostForLevel(minLevel)
	} else {
		resp.restartCost = s.costs.CostForLevel(best)
	}
	return resp
}
