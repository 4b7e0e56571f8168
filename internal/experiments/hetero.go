package experiments

import (
	"errors"
	"fmt"

	"exaresil/internal/cluster"
	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/report"
	"exaresil/internal/stats"
)

// HeteroSpec configures the heterogeneity extension study: the cluster
// simulation rerun on a mixed fleet of node classes (see
// internal/machine/hetero.go), asking two questions the homogeneous paper
// machine cannot pose. First, what does heterogeneity itself cost — the
// same workload on a fleet whose aggregate capacity matches the uniform
// machine but whose nodes differ in speed and reliability? Second, how
// much of that cost does placement recover — does steering
// checkpoint-heavy applications onto the hardened partition
// (cluster.PlaceReliability) beat capacity-only first-fit?
type HeteroSpec struct {
	Config
	// Fleet is the heterogeneous machine under study (default
	// machine.ExascaleHetero()). It must declare classes and match the
	// homogeneous Machine's node count so both fleets run identical
	// arrival patterns.
	Fleet machine.Config
	// Patterns and Arrivals size the study (the registry's defaults:
	// 50 x 60).
	Patterns int
	Arrivals int
	// Techniques are the resilience techniques compared across fleets
	// (default: multilevel checkpointing, the placement-sensitive
	// technique, against lightweight replication, the placement-neutral
	// one).
	Techniques []core.Technique
}

// HeteroCell is one (fleet arm, technique) outcome.
type HeteroCell struct {
	// Arm labels the fleet/placement combination.
	Arm string
	// Placement is the policy the arm ran under (meaningful only for the
	// heterogeneous arms).
	Placement cluster.PlacementPolicy
	Technique core.Technique
	// Dropped is the percentage of applications dropped, summarized over
	// patterns; MeanWaitMinutes the queueing delay.
	Dropped         stats.Summary
	MeanWaitMinutes stats.Summary
}

// HeteroResult is the study's full data set.
type HeteroResult struct {
	Cells []HeteroCell
}

// Cell finds one arm/technique combination.
func (r HeteroResult) Cell(arm string, t core.Technique) (HeteroCell, bool) {
	for _, c := range r.Cells {
		if c.Arm == arm && c.Technique == t {
			return c, true
		}
	}
	return HeteroCell{}, false
}

func (s HeteroSpec) withDefaults() HeteroSpec {
	if !s.Fleet.Heterogeneous() {
		s.Fleet = machine.ExascaleHetero()
	}
	if s.Techniques == nil {
		s.Techniques = []core.Technique{core.MultilevelCheckpoint, core.LightweightReplication}
	}
	return s
}

// heteroArm is one fleet/placement row of the study.
type heteroArm struct {
	label     string
	machine   machine.Config
	placement cluster.PlacementPolicy
}

// Run executes the study through runCells: three arms (the homogeneous baseline, the
// heterogeneous fleet under first-fit, and the same fleet under
// reliability-aware placement) over shared arrival patterns under
// slack-based scheduling, so every difference between rows is
// attributable to the fleet and the placement policy alone.
func (s HeteroSpec) Run() (*report.Table, HeteroResult, error) {
	s = s.withDefaults()
	if err := errors.Join(s.Validate(), scale(s.Patterns, s.Arrivals)); err != nil {
		return nil, HeteroResult{}, err
	}
	if err := s.Fleet.Validate(); err != nil {
		return nil, HeteroResult{}, fmt.Errorf("experiments: hetero fleet: %w", err)
	}
	if s.Fleet.Nodes != s.Machine.Nodes {
		return nil, HeteroResult{}, fmt.Errorf("experiments: hetero fleet has %d nodes, homogeneous baseline %d; equal capacity is what makes the comparison meaningful",
			s.Fleet.Nodes, s.Machine.Nodes)
	}

	// Every arm sees the same submissions (both fleets have the same node
	// count, so fill-system patterns transfer verbatim) and the same
	// per-pattern cluster seed.
	cs := ClusterSpec{Config: s.Config, Patterns: s.Patterns, Arrivals: s.Arrivals}
	patterns := cs.patterns(9000)

	arms := []heteroArm{
		{label: "homogeneous", machine: s.Machine, placement: cluster.PlaceFirstFit},
		{label: "hetero/first-fit", machine: s.Fleet, placement: cluster.PlaceFirstFit},
		{label: "hetero/reliability", machine: s.Fleet, placement: cluster.PlaceReliability},
	}

	t := report.New("Heterogeneity extension: dropped applications by fleet and placement policy",
		techColumns(s.Techniques, "fleet / placement")...)
	t.AddNote("mean ± stddev over %d arrival patterns of %d applications each; slack-based scheduling",
		s.Patterns, s.Arrivals)
	for _, cl := range s.Fleet.Classes {
		t.AddNote("fleet class %s: %d nodes, speed %.2fx, MTBF %s", cl.Name, cl.Count, cl.Speed, cl.MTBF)
	}
	t.AddNote("reliability-aware placement steers checkpoint-heavy applications onto the high-MTBF class")

	var combos []cluster.Spec
	for _, arm := range arms {
		for _, tech := range s.Techniques {
			combos = append(combos, cluster.Spec{Machine: arm.machine, Scheduler: core.SlackBased,
				Technique: tech, Placement: arm.placement})
		}
	}
	raw, err := cs.runCells(patterns, combos)
	if err != nil {
		return nil, HeteroResult{}, err
	}

	var result HeteroResult
	for ai, arm := range arms {
		row := []string{arm.label}
		for ti, tech := range s.Techniques {
			cr := raw[ai*len(s.Techniques)+ti]
			sum := cr.dropped.Summarize()
			result.Cells = append(result.Cells, HeteroCell{
				Arm:             arm.label,
				Placement:       arm.placement,
				Technique:       tech,
				Dropped:         sum,
				MeanWaitMinutes: cr.wait.Summarize(),
			})
			row = append(row, report.Pct(sum.Mean, sum.StdDev))
		}
		t.AddRow(row...)
	}
	return t, result, nil
}
