package cluster

// Class-aware placement for heterogeneous machines. A homogeneous run
// (no machine.Config.Classes) never touches this file: the cluster keeps
// one free-node count and the mapper's decision is the whole story, so
// every pre-existing exhibit is bit-identical. On a heterogeneous fleet
// the mapper still sees only aggregate free capacity — deciding *who*
// starts stays its job — and the placement policy decides *where*: which
// class hosts each started application, with per-class capacity ledgers,
// per-class failure models, and speed-scaled execution.

import (
	"fmt"

	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/workload"
)

// PlacementPolicy selects which node class hosts a starting application
// on a heterogeneous machine. Homogeneous machines ignore it.
type PlacementPolicy int

// The placement policies.
const (
	// PlaceFirstFit walks classes in declared order and takes the first
	// with room — capacity-only, the heterogeneity-blind baseline.
	PlaceFirstFit PlacementPolicy = iota
	// PlaceReliability matches the technique to the fleet: applications
	// under checkpoint-heavy techniques (whose recovery cost scales with
	// failure frequency) prefer the highest-MTBF class with room, while
	// replication-style techniques — already paying their overhead up
	// front and shrugging off single failures — prefer the fastest class.
	PlaceReliability
)

// String names the policy for reports.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceFirstFit:
		return "first-fit"
	case PlaceReliability:
		return "reliability"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// Valid reports whether the policy is one of the defined values.
func (p PlacementPolicy) Valid() bool {
	return p == PlaceFirstFit || p == PlaceReliability
}

// classState is one node class's runtime ledger.
type classState struct {
	class machine.NodeClass
	view  machine.Config  // the class projected as a homogeneous machine
	model *failures.Model // the study model at the class MTBF
	free  int
	slot  int // the class's slot in the trajectory table
}

// buildClasses materializes the per-class ledgers, views, and failure
// models for a heterogeneous spec (nil for homogeneous machines).
func buildClasses(spec Spec) ([]*classState, error) {
	if !spec.Machine.Heterogeneous() {
		return nil, nil
	}
	if !spec.Placement.Valid() {
		return nil, fmt.Errorf("cluster: invalid placement policy %v", spec.Placement)
	}
	classes := make([]*classState, len(spec.Machine.Classes))
	for i, cl := range spec.Machine.Classes {
		model, err := spec.Model.WithMTBF(cl.MTBF)
		if err != nil {
			return nil, fmt.Errorf("cluster: class %q failure model: %w", cl.Name, err)
		}
		classes[i] = &classState{
			class: cl,
			view:  spec.Machine.ClassView(i),
			model: model,
			free:  cl.Count,
		}
	}
	return classes, nil
}

// scaleApp projects an application onto a class of the given speed: a
// class s times faster works through the same computation in 1/s the
// time steps (never below one). All bookkeeping stays in wall time; only
// the amount of work per wall-minute changes.
func scaleApp(app workload.App, speed float64) workload.App {
	if speed == 1 {
		return app
	}
	steps := int(float64(app.TimeSteps)/speed + 0.5)
	if steps < 1 {
		steps = 1
	}
	app.TimeSteps = steps
	return app
}

// placeClass picks the class that will host j and builds the executor
// that runs it there (class view, class failure model, speed-scaled
// app). It returns nils when no single class currently has room for the
// job's physical footprint — the job stays queued even though aggregate
// free capacity admitted it (fragmentation), and the next mapping event
// retries.
func (c *run) placeClass(j *job) (*classState, *resilience.Executor) {
	best := -1
	for i, cls := range c.classes {
		if cls.free < j.phys {
			continue
		}
		if best < 0 {
			best = i
			if c.spec.Placement == PlaceFirstFit {
				break
			}
			continue
		}
		a, b := c.classes[best].class, cls.class
		if j.tech.CheckpointHeavy() {
			if b.MTBF > a.MTBF || (b.MTBF == a.MTBF && b.Speed > a.Speed) {
				best = i
			}
		} else {
			if b.Speed > a.Speed || (b.Speed == a.Speed && b.MTBF > a.MTBF) {
				best = i
			}
		}
	}
	if best < 0 {
		return nil, nil
	}
	cls := c.classes[best]
	exec, err := resilience.New(j.tech, scaleApp(j.app, cls.class.Speed), cls.view, cls.model, c.spec.Resilience)
	if err != nil {
		c.err = fmt.Errorf("cluster: building class %q executor for app %d: %w", cls.class.Name, j.app.ID, err)
		c.sim.Stop()
		return nil, nil
	}
	if got := exec.PhysicalNodes(); got != j.phys {
		// The mapper's ledger was built from the base-machine footprint;
		// a class executor that disagrees would corrupt the accounting.
		c.err = fmt.Errorf("cluster: class %q executor for app %d occupies %d nodes, ledger reserved %d",
			cls.class.Name, j.app.ID, got, j.phys)
		c.sim.Stop()
		return nil, nil
	}
	if ok, _ := exec.Viable(); !ok {
		return nil, nil
	}
	return cls, exec
}
