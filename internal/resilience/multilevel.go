package resilience

import (
	"fmt"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// multilevel implements the three-level checkpointing scheme of Section
// IV-C, after Moody et al. Checkpoints are taken every tau of work in a
// repeating pattern: most go to local RAM (level 1), every n1-th instead
// goes to a partner node (level 2), and every (n1*n2)-th to the parallel
// file system (level 3). A failure of severity j is recovered from the
// newest surviving checkpoint of level >= j.
type multilevel struct {
	application workload.App
	costs       Costs
	schedule    MultilevelSchedule

	counter int               // completed-checkpoint counter driving the pattern
	saved   [4]units.Duration // newest checkpointed progress per level (1-3)
	has     [4]bool           // whether a checkpoint exists at each level
}

// newMultilevel builds the Multilevel Checkpoint executor, optimizing the
// checkpoint schedule for the application's failure rates.
func newMultilevel(app workload.App, costs Costs, model *failures.Model, opts MultilevelConfig, periodScale float64) *executor {
	s := padded(multilevel{application: app, costs: costs})
	x := &executor{strat: s, model: model, phys: app.Nodes, viable: true}
	optimize := OptimizeMultilevel
	if opts.UseExact {
		optimize = OptimizeMultilevelExact
	}
	sched, err := optimize(costs, levelRates(model, app.Nodes), opts)
	if err != nil {
		x.viable = false
		x.reason = fmt.Sprintf("no feasible multilevel schedule: %v", err)
	}
	sched.Interval *= units.Duration(periodScale)
	s.schedule = sched
	return x
}

// levelRates reports the per-severity failure rates (lambda_Lj of Section
// III-E) for an application population of the given size.
func levelRates(model *failures.Model, nodes int) [3]units.Rate {
	pmf := model.PMF()
	total := 0.0
	for _, w := range pmf {
		total += w
	}
	full := float64(model.Rate(nodes))
	var rates [3]units.Rate
	for i, w := range pmf {
		rates[i] = units.Rate(full * w / total)
	}
	return rates
}

func (s *multilevel) technique() core.Technique { return core.MultilevelCheckpoint }
func (s *multilevel) app() workload.App         { return s.application }
func (s *multilevel) physicalNodes() int        { return s.application.Nodes }

// effectiveWork: like plain checkpointing, no intrinsic slowdown.
func (s *multilevel) effectiveWork() units.Duration { return s.application.Baseline() }

func (s *multilevel) checkpointInterval() units.Duration { return s.schedule.Interval }

// nextCheckpoint advances the repeating level pattern. The counter is
// never reset by rollbacks: the schedule marches on as in SCR.
func (s *multilevel) nextCheckpoint() (int, units.Duration) {
	s.counter++
	level := s.schedule.LevelAt(s.counter)
	return level, s.costs.CostForLevel(level)
}

func (s *multilevel) onCheckpointDone(level int, progress units.Duration) {
	s.saved[level] = progress
	s.has[level] = true
}

// onFailure restores from the newest checkpoint whose level can survive
// the failure's severity; ties between equally fresh levels break toward
// the cheaper restore. A severity-j failure destroys the storage backing
// every level below j (a node-loss failure takes the local-RAM checkpoint
// slice with it, and a distributed checkpoint missing one node's slice is
// useless), so those levels are invalidated outright. Every surviving
// level then necessarily holds progress at or below the restore point.
func (s *multilevel) onFailure(f failures.Failure, _ units.Duration) response {
	minLevel := int(f.Severity)
	for level := 1; level < minLevel && level <= 3; level++ {
		s.has[level] = false
		s.saved[level] = 0
	}

	best := 0 // level 0 = no surviving checkpoint, restart from scratch
	var bestProgress units.Duration
	for level := minLevel; level <= 3; level++ {
		if s.has[level] && (best == 0 || s.saved[level] > bestProgress) {
			best = level
			bestProgress = s.saved[level]
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

func (s *multilevel) recoverySpeed() float64 { return 1 }

func (s *multilevel) reset() {
	s.counter = 0
	s.saved = [4]units.Duration{}
	s.has = [4]bool{}
}

func (s *multilevel) clone() strategy { return padded(*s) }
