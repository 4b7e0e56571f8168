// Package core holds the small set of domain types shared by every layer
// of the simulator — technique identifiers and study-wide enumerations —
// so that the workload, resilience, scheduling, and experiment packages can
// agree on vocabulary without importing one another.
package core

import (
	"fmt"
	"slices"
	"strings"
)

// Technique identifies one of the HPC resilience strategies compared by the
// study.
type Technique int

// The four techniques of the paper (redundancy appears at two degrees, as
// in Figures 1-3), plus the no-resilience ideal baseline used by the
// resource-management study.
const (
	// Ideal is the failure-free, overhead-free baseline.
	Ideal Technique = iota
	// CheckpointRestart is blocking, uncoordinated checkpointing to the
	// parallel file system with a Daly-optimal period.
	CheckpointRestart
	// MultilevelCheckpoint is the three-level scheme of Moody et al.:
	// local RAM, partner RAM, and parallel file system.
	MultilevelCheckpoint
	// ParallelRecovery is message logging with in-memory checkpoints and
	// parallelized rework, after Meneses et al.
	ParallelRecovery
	// PartialRedundancy duplicates half of the application's virtual
	// nodes (degree r = 1.5) on top of PFS checkpointing.
	PartialRedundancy
	// FullRedundancy duplicates every virtual node (degree r = 2.0) on
	// top of PFS checkpointing.
	FullRedundancy
	// InMemoryReplicatedCheckpoint is ReStore-style checkpoint storage
	// (arXiv:2203.01107): checkpoints are replicated across peer RAM with
	// degree k, so restores are near-free unless at least k replica
	// holders fail within one checkpoint interval, which loses the replica
	// set and forces a PFS-cost relaunch. A post-2017 extension beyond the
	// paper's menu.
	InMemoryReplicatedCheckpoint
	// LightweightReplication is TeaMPI-style team replication
	// (arXiv:2005.12091): two replicas per virtual node, but only a small
	// heartbeat/sync penalty in steady state instead of full redundancy's
	// lockstep message duplication; an unrecovered double failure
	// relaunches the application. A post-2017 extension beyond the paper's
	// menu.
	LightweightReplication
)

// techniqueRow is one technique's vocabulary.
type techniqueRow struct {
	name    string   // as the paper names it
	label   string   // metric label value and first CLI spelling
	aliases []string // further CLI spellings
	// paper and cluster mark membership of the paper's menu (Figures 1-3)
	// and of the Section VI/VII cluster menu, which drops redundancy.
	paper, cluster bool
	// levels marks the checkpoint levels the technique writes: 1 local
	// RAM, 2 partner RAM, 3 the parallel file system.
	levels [4]bool
	// checkpointHeavy: checkpoint/restart traffic dominates the running
	// cost, so node reliability binds placement.
	checkpointHeavy bool
}

// techniques is the technique table, one row per technique in
// presentation order: the paper's five in the bar order of its figures,
// then the post-2017 extensions.
var techniques = [...]techniqueRow{
	Ideal: {name: "Ideal", label: "ideal"},
	CheckpointRestart: {name: "Checkpoint Restart", label: "cr", aliases: []string{"checkpoint-restart"},
		paper: true, cluster: true, levels: [4]bool{3: true}, checkpointHeavy: true},
	MultilevelCheckpoint: {name: "Multilevel Checkpoint", label: "multilevel", aliases: []string{"ml"},
		paper: true, cluster: true, levels: [4]bool{1: true, 2: true, 3: true}, checkpointHeavy: true},
	ParallelRecovery: {name: "Parallel Recovery", label: "pr", aliases: []string{"parallel-recovery"},
		paper: true, cluster: true, levels: [4]bool{2: true}},
	PartialRedundancy: {name: "Redundancy r=1.5", label: "red1.5", aliases: []string{"partial-redundancy"},
		paper: true, levels: [4]bool{3: true}},
	FullRedundancy: {name: "Redundancy r=2.0", label: "red2.0", aliases: []string{"full-redundancy"},
		paper: true, levels: [4]bool{3: true}},
	InMemoryReplicatedCheckpoint: {name: "In-Memory Replicated Checkpoint", label: "restore",
		aliases: []string{"in-memory-replicated"}, levels: [4]bool{2: true}, checkpointHeavy: true},
	// Lightweight Replication keeps no checkpoints at all.
	LightweightReplication: {name: "Lightweight Replication", label: "teampi",
		aliases: []string{"lightweight-replication"}},
}

// NumTechniques counts the techniques, Ideal included: the length of an
// array indexed by Technique.
const NumTechniques = len(techniques)

// menu lists the real techniques (excluding Ideal) whose row passes in.
func menu(in func(techniqueRow) bool) []Technique {
	var out []Technique
	for t := CheckpointRestart; int(t) < NumTechniques; t++ {
		if in(techniques[t]) {
			out = append(out, t)
		}
	}
	return out
}

// Techniques lists every real technique (excluding Ideal) in presentation
// order.
func Techniques() []Technique { return menu(func(techniqueRow) bool { return true }) }

// PaperTechniques lists only the five technique variants of the 2017
// paper, in its presentation order. The paper's own exhibits (Figures 1-3,
// the cross-machine table) use this list so their pinned outputs do not
// shift as the repository's technique menu grows.
func PaperTechniques() []Technique { return menu(func(r techniqueRow) bool { return r.paper }) }

// ClusterTechniques lists the techniques carried into the Section VI/VII
// cluster studies; the paper drops both redundancy variants there because
// Section V shows them unviable at exascale.
func ClusterTechniques() []Technique { return menu(func(r techniqueRow) bool { return r.cluster }) }

// Valid reports whether t names a known technique.
func (t Technique) Valid() bool { return t >= Ideal && int(t) < NumTechniques }

// String names the technique as the paper does.
func (t Technique) String() string {
	if !t.Valid() {
		return fmt.Sprintf("Technique(%d)", int(t))
	}
	return techniques[t].name
}

// Label is the technique's stable metric label value and first CLI
// spelling: CLI-style, unlike String's presentation name, so dashboards
// never see spaces.
func (t Technique) Label() string {
	if !t.Valid() {
		return fmt.Sprintf("technique-%d", int(t))
	}
	return techniques[t].label
}

// WritesLevel reports whether the technique writes checkpoints at the
// given level (1 local RAM, 2 partner RAM, 3 PFS).
func (t Technique) WritesLevel(level int) bool {
	return t.Valid() && level >= 0 && level < 4 && techniques[t].levels[level]
}

// CheckpointHeavy reports whether checkpoint/restart traffic dominates the
// technique's running cost, making node reliability the binding resource
// for its placement.
func (t Technique) CheckpointHeavy() bool { return t.Valid() && techniques[t].checkpointHeavy }

// TechniqueSpellings lists every spelling ParseTechnique accepts, each
// technique's label before its aliases.
func TechniqueSpellings() []string {
	var out []string
	for _, r := range techniques {
		out = append(append(out, r.label), r.aliases...)
	}
	return out
}

// ParseTechnique maps a CLI spelling (a label or an alias) to a
// Technique.
func ParseTechnique(name string) (Technique, error) {
	for t, r := range techniques {
		if name == r.label || slices.Contains(r.aliases, name) {
			return Technique(t), nil
		}
	}
	return 0, fmt.Errorf("core: unknown technique %q (want one of %s)", name, strings.Join(TechniqueSpellings(), ", "))
}

// Scheduler identifies one of the resource-management heuristics of
// Section III-D.
type Scheduler int

// The three resource-management techniques.
const (
	// FCFS maps applications strictly in arrival order.
	FCFS Scheduler = iota
	// RandomOrder maps applications in random order.
	RandomOrder
	// SlackBased prioritizes applications with the least schedule slack
	// and drops those whose deadlines are already unreachable.
	SlackBased
	// EASYBackfill is FCFS with EASY backfilling: later applications may
	// jump the queue if they cannot delay the blocked head's reservation.
	// It is a repository extension beyond the paper's three heuristics.
	EASYBackfill

	numSchedulers
)

// Schedulers lists the paper's heuristics in its presentation order.
func Schedulers() []Scheduler { return []Scheduler{FCFS, RandomOrder, SlackBased} }

// AllSchedulers lists every implemented heuristic, including the
// EASY-backfill extension.
func AllSchedulers() []Scheduler {
	return []Scheduler{FCFS, RandomOrder, SlackBased, EASYBackfill}
}

// Valid reports whether s names a known scheduler.
func (s Scheduler) Valid() bool { return s >= FCFS && s < numSchedulers }

// String names the scheduler as the paper does.
func (s Scheduler) String() string {
	switch s {
	case FCFS:
		return "FCFS"
	case RandomOrder:
		return "Random"
	case SlackBased:
		return "Slack-Based"
	case EASYBackfill:
		return "EASY-Backfill"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ParseScheduler maps a CLI-friendly name to a Scheduler.
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "fcfs":
		return FCFS, nil
	case "random":
		return RandomOrder, nil
	case "slack":
		return SlackBased, nil
	case "backfill", "easy":
		return EASYBackfill, nil
	}
	return 0, fmt.Errorf("core: unknown scheduler %q", name)
}
