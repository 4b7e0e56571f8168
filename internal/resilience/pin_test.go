package resilience

import (
	"reflect"
	"testing"

	"exaresil/internal/core"
	"exaresil/internal/machine"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// TestSingleLevelRollbackPin pins every Result field of one failure-heavy
// run of each single-level rollback technique: Checkpoint Restart,
// Parallel Recovery, and In-Memory Replicated Checkpoint at k = 2 and
// degenerate (k = N_a), at two seeds each, for D64 on a quarter of the
// exascale machine at a 2.5-year MTBF. The values were recorded before the
// three techniques shared one strategy, so any change to a float operation
// or its order shows here. Seed 9 relaunches Parallel Recovery before its
// first checkpoint, which costs T_L2 where Checkpoint Restart's and
// ReStore's relaunches cost T_PFS.
func TestSingleLevelRollbackPin(t *testing.T) {
	cfg := machine.Exascale().WithMTBF(units.Duration(2.5) * units.Year)
	model := defaultModel(cfg)
	app := workload.App{Class: workload.D64, TimeSteps: 1440, Nodes: cfg.NodesForFraction(0.25)}
	horizon := 20 * app.Baseline()
	const degenerate = -1 // k = N_a: no peers can hold the replicas
	cases := []struct {
		name   string
		tech   core.Technique
		degree int
		seed   uint64
		want   Result
	}{
		{"cr", core.CheckpointRestart, 0, 4, Result{Technique: core.CheckpointRestart, Completed: true, End: 3002.5544394350163, Baseline: 1440, EffectiveWork: 1440,
			Failures: 88, Rollbacks: 88, Checkpoints: [4]int{0, 0, 0, 94},
			CheckpointTime: 461.54054061810217, RestartTime: 368.1760555831067, ReworkTime: 732.8378432338202,
			RelaunchTime: 10.47040679144369, LostWork: 732.8378432338202, OverlappedWork: 0}},
		{"cr", core.CheckpointRestart, 0, 9, Result{Technique: core.CheckpointRestart, Completed: true, End: 2842.1696249469437, Baseline: 1440, EffectiveWork: 1440,
			Failures: 75, Rollbacks: 75, Checkpoints: [4]int{0, 0, 0, 94},
			CheckpointTime: 439.599398067357, RestartTime: 321.18048162747635, ReworkTime: 641.3897452521212,
			RelaunchTime: 4.444444444444445, LostWork: 641.3897452521213, OverlappedWork: 0}},
		{"pr", core.ParallelRecovery, 0, 4, Result{Technique: core.ParallelRecovery, Completed: true, End: 1570.8579645788172, Baseline: 1440, EffectiveWork: 1548,
			Failures: 43, Rollbacks: 43, Checkpoints: [4]int{0, 0, 1450, 0},
			CheckpointTime: 19.344999509991528, RestartTime: 0.5733340500000004, ReworkTime: 2.939631018790722,
			RelaunchTime: 0, LostWork: 23.51704815032461, OverlappedWork: 0}},
		{"pr", core.ParallelRecovery, 0, 9, Result{Technique: core.ParallelRecovery, Completed: true, End: 1570.9706700739912, Baseline: 1440, EffectiveWork: 1548,
			Failures: 44, Rollbacks: 44, Checkpoints: [4]int{0, 0, 1450, 0},
			CheckpointTime: 19.33335749999988, RestartTime: 0.5866674000000004, ReworkTime: 3.050645173955214,
			RelaunchTime: 0.01333335, LostWork: 24.405161391641798, OverlappedWork: 0}},
		{"restore k=2", core.InMemoryReplicatedCheckpoint, 2, 4, Result{Technique: core.InMemoryReplicatedCheckpoint, Completed: true, End: 9760.22655612047, Baseline: 1440, EffectiveWork: 1440,
			Failures: 248, Rollbacks: 248, Checkpoints: [4]int{0, 0, 8816, 0},
			CheckpointTime: 117.56659141242234, RestartTime: 99.45535689317174, ReworkTime: 8103.204607816124,
			RelaunchTime: 97.95535501817123, LostWork: 8103.204607816124, OverlappedWork: 0}},
		{"restore k=2", core.InMemoryReplicatedCheckpoint, 2, 9, Result{Technique: core.InMemoryReplicatedCheckpoint, Completed: true, End: 4075.362425775896, Baseline: 1440, EffectiveWork: 1440,
			Failures: 107, Rollbacks: 107, Checkpoints: [4]int{0, 0, 3675, 0},
			CheckpointTime: 49.00686971396711, RestartTime: 45.37127786645398, ReworkTime: 2540.9842781957805,
			RelaunchTime: 44.731277066454005, LostWork: 2540.984278195781, OverlappedWork: 0}},
		{"restore degenerate", core.InMemoryReplicatedCheckpoint, degenerate, 4, Result{Technique: core.InMemoryReplicatedCheckpoint, Completed: true, End: 3002.5544394350163, Baseline: 1440, EffectiveWork: 1440,
			Failures: 88, Rollbacks: 88, Checkpoints: [4]int{0, 0, 0, 94},
			CheckpointTime: 461.54054061810217, RestartTime: 368.1760555831067, ReworkTime: 732.8378432338202,
			RelaunchTime: 10.47040679144369, LostWork: 732.8378432338202, OverlappedWork: 0}},
		{"restore degenerate", core.InMemoryReplicatedCheckpoint, degenerate, 9, Result{Technique: core.InMemoryReplicatedCheckpoint, Completed: true, End: 2842.1696249469437, Baseline: 1440, EffectiveWork: 1440,
			Failures: 75, Rollbacks: 75, Checkpoints: [4]int{0, 0, 0, 94},
			CheckpointTime: 439.599398067357, RestartTime: 321.18048162747635, ReworkTime: 641.3897452521212,
			RelaunchTime: 4.444444444444445, LostWork: 641.3897452521213, OverlappedWork: 0}},
	}
	for _, c := range cases {
		opts := DefaultConfig()
		opts.ReStoreDegree = c.degree
		if c.degree == degenerate {
			opts.ReStoreDegree = app.Nodes
		}
		x, err := New(c.tech, app, cfg, model, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := NewRuntime(nil).Run(x, horizon, rng.New(c.seed)); got != c.want {
			t.Errorf("%s seed %d:\n got %+v\nwant %+v", c.name, c.seed, got, c.want)
		}
	}
}

// TestTechniqueVocabulary pins every technique's spellings: its name, its
// metric label, and its CLI aliases each parse back to it, ParseTechnique
// accepts no other spelling, no two techniques share a name or a label,
// and the three menus list the techniques in their published order.
func TestTechniqueVocabulary(t *testing.T) {
	rows := []struct {
		tech    core.Technique
		name    string
		label   string
		aliases []string
	}{
		{core.Ideal, "Ideal", "ideal", nil},
		{core.CheckpointRestart, "Checkpoint Restart", "cr", []string{"checkpoint-restart"}},
		{core.MultilevelCheckpoint, "Multilevel Checkpoint", "multilevel", []string{"ml"}},
		{core.ParallelRecovery, "Parallel Recovery", "pr", []string{"parallel-recovery"}},
		{core.PartialRedundancy, "Redundancy r=1.5", "red1.5", []string{"partial-redundancy"}},
		{core.FullRedundancy, "Redundancy r=2.0", "red2.0", []string{"full-redundancy"}},
		{core.InMemoryReplicatedCheckpoint, "In-Memory Replicated Checkpoint", "restore", []string{"in-memory-replicated"}},
		{core.LightweightReplication, "Lightweight Replication", "teampi", []string{"lightweight-replication"}},
	}
	names, labels := map[string]bool{}, map[string]bool{}
	var spellings []string
	for _, r := range rows {
		if got := r.tech.String(); got != r.name {
			t.Errorf("%d.String() = %q, want %q", int(r.tech), got, r.name)
		}
		if got := r.tech.Label(); got != r.label {
			t.Errorf("label of %v = %q, want %q", r.tech, got, r.label)
		}
		for _, spelling := range append([]string{r.label}, r.aliases...) {
			spellings = append(spellings, spelling)
			if got, err := core.ParseTechnique(spelling); err != nil || got != r.tech {
				t.Errorf("ParseTechnique(%q) = %v, %v; want %v", spelling, got, err, r.tech)
			}
		}
		if names[r.name] || labels[r.label] {
			t.Errorf("%v: name %q or label %q is not unique", r.tech, r.name, r.label)
		}
		names[r.name], labels[r.label] = true, true
	}
	if got := core.TechniqueSpellings(); !reflect.DeepEqual(got, spellings) {
		t.Errorf("TechniqueSpellings() = %v, want %v", got, spellings)
	}

	cr, ml, pr := core.CheckpointRestart, core.MultilevelCheckpoint, core.ParallelRecovery
	paper := []core.Technique{cr, ml, pr, core.PartialRedundancy, core.FullRedundancy}
	for _, m := range []struct {
		name      string
		got, want []core.Technique
	}{
		{"Techniques", core.Techniques(), append(paper, core.InMemoryReplicatedCheckpoint, core.LightweightReplication)},
		{"PaperTechniques", core.PaperTechniques(), paper},
		{"ClusterTechniques", core.ClusterTechniques(), []core.Technique{cr, ml, pr}},
	} {
		if !reflect.DeepEqual(m.got, m.want) {
			t.Errorf("%s() = %v, want %v", m.name, m.got, m.want)
		}
	}
}
