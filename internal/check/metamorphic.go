package check

import (
	"fmt"
	"math"

	"exaresil/internal/appsim"
	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/resilience"
	"exaresil/internal/rng"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// mtbfSlack is the Monte-Carlo slack allowed in the failure-rate
// monotonicity check: neighbouring MTBF steps with nearly identical true
// efficiencies can invert by sampling noise, so a small observed increase
// is not a model bug.
const mtbfSlack = 0.02

// metamorphic runs the model-level scaling relations of the audit: checks
// that hold across runs rather than within a single trace.
//
//  1. Efficiency is non-increasing in the failure rate: for every
//     technique, halving the component MTBF cannot improve the mean
//     simulated efficiency (beyond Monte-Carlo slack).
//  2. Parallel Recovery's effective work is exactly mu * T_B with
//     mu = 1 + T_C/10 (Eq. 7), for every class.
//  3. Redundancy's baseline stretch is linear in the degree r through the
//     communication term (Eq. 8), and its footprint is ceil(r * N_a).
//  4. ReStore's replica-degree ordering: the replicated-checkpoint cost is
//     linear in the degree k, and an unavailable degree degenerates to
//     Checkpoint Restart run-for-run.
//  5. Lightweight Replication's stretch sits between the plain baseline
//     and full redundancy's Eq. 8 stretch, on a 2 * N_a footprint.
func (s Sweep) metamorphic() []string {
	var fails []string
	fails = append(fails, s.checkMTBFMonotone()...)
	fails = append(fails, s.checkMuScaling()...)
	fails = append(fails, s.checkRedundancyScaling()...)
	fails = append(fails, s.checkReplicaDegreeOrdering()...)
	fails = append(fails, s.checkTeamReplicationStretch()...)
	return fails
}

// checkMTBFMonotone descends the MTBF ladder and requires mean efficiency
// to be non-increasing for every technique at a fixed operating point.
func (s Sweep) checkMTBFMonotone() []string {
	ladder := []units.Duration{
		10 * units.Year,
		5 * units.Year,
		units.Duration(2.5) * units.Year,
	}
	app := workload.App{
		Class:     workload.C64,
		TimeSteps: s.TimeSteps,
		Nodes:     s.Machine.NodesForFraction(0.10),
	}

	var fails []string
	for _, tech := range s.Techniques {
		prev := math.Inf(1)
		prevMTBF := units.Duration(0)
		for _, mtbf := range ladder {
			cfg := s.Machine.WithMTBF(mtbf)
			model, err := failures.NewModel(mtbf, s.PMF)
			if err != nil {
				fails = append(fails, fmt.Sprintf("mtbf-monotone %v: %v", tech, err))
				break
			}
			x, err := resilience.New(tech, app, cfg, model, s.Resilience)
			if err != nil {
				fails = append(fails, fmt.Sprintf("mtbf-monotone %v: %v", tech, err))
				break
			}
			st := appsim.Run(appsim.TrialSpec{Executor: x, Trials: s.Trials, Seed: s.Seed})
			if st.Efficiency.Mean > prev+mtbfSlack {
				fails = append(fails, fmt.Sprintf(
					"mtbf-monotone %v: efficiency rose from %.4f at %s MTBF to %.4f at %s",
					tech, prev, prevMTBF, st.Efficiency.Mean, mtbf))
			}
			prev, prevMTBF = st.Efficiency.Mean, mtbf
		}
	}
	return fails
}

// checkMuScaling pins Parallel Recovery's work inflation to Eq. 7 for
// every class, via the Result's effective-work total on a failure-free
// probe run, and the no-inflation contract of the checkpoint techniques.
func (s Sweep) checkMuScaling() []string {
	// A near-infinite MTBF makes the probe failure-free without changing
	// the effective-work total (a pure function of the strategy).
	mtbf := 1e6 * units.Year
	cfg := s.Machine.WithMTBF(mtbf)
	model, err := failures.NewModel(mtbf, s.PMF)
	if err != nil {
		return []string{fmt.Sprintf("mu-scaling: %v", err)}
	}

	var fails []string
	for _, class := range workload.Classes() {
		app := workload.App{Class: class, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(0.01)}
		probe := func(tech core.Technique) (resilience.Result, error) {
			x, err := resilience.New(tech, app, cfg, model, s.Resilience)
			if err != nil {
				return resilience.Result{}, err
			}
			return resilience.NewRuntime(nil).Run(x, 0, units.Duration(float64(app.Baseline())*10), rng.New(s.Seed)), nil
		}

		res, err := probe(core.ParallelRecovery)
		if err != nil {
			fails = append(fails, fmt.Sprintf("mu-scaling %s: %v", class.Name, err))
			continue
		}
		mu := resilience.MessageLoggingSlowdown(class)
		want := units.Duration(mu * float64(app.Baseline()))
		if !closeRel(float64(res.EffectiveWork), float64(want)) {
			fails = append(fails, fmt.Sprintf(
				"mu-scaling %s: Parallel Recovery effective work %s, want mu*T_B = %s (mu=%.4f)",
				class.Name, res.EffectiveWork, want, mu))
		}
		if mu > 1 && res.EffectiveWork <= app.Baseline() {
			fails = append(fails, fmt.Sprintf(
				"mu-scaling %s: message logging did not inflate the baseline", class.Name))
		}

		for _, tech := range []core.Technique{core.CheckpointRestart, core.MultilevelCheckpoint} {
			res, err := probe(tech)
			if err != nil {
				fails = append(fails, fmt.Sprintf("mu-scaling %s/%v: %v", class.Name, tech, err))
				continue
			}
			if res.EffectiveWork != app.Baseline() {
				fails = append(fails, fmt.Sprintf(
					"mu-scaling %s: %v effective work %s, want the uninflated baseline %s",
					class.Name, tech, res.EffectiveWork, app.Baseline()))
			}
		}
	}
	return fails
}

// checkRedundancyScaling pins Eq. 8: the baseline stretch is the per-step
// communication term scaled by r, so the excess over the plain baseline is
// linear in (r - 1); and the physical footprint is ceil(r * N_a).
func (s Sweep) checkRedundancyScaling() []string {
	var fails []string
	for _, class := range workload.Classes() {
		app := workload.App{Class: class, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(0.01)}
		base := float64(app.Baseline())
		excess15 := float64(resilience.RedundantBaseline(app, 1.5)) - base
		excess20 := float64(resilience.RedundantBaseline(app, 2.0)) - base

		// Per Eq. 8 the excess is T_S * (r-1) * T_C, so doubling (r-1)
		// doubles it: excess(2.0) = 2 * excess(1.5).
		if !closeRel(excess20, 2*excess15) {
			fails = append(fails, fmt.Sprintf(
				"redundancy-scaling %s: comm-term excess not linear in r-1: r=1.5 gives %v, r=2.0 gives %v",
				class.Name, excess15, excess20))
		}
		wantExcess := float64(app.TimeSteps) * class.CommFraction * float64(units.Minute)
		if !closeRel(excess20, wantExcess) {
			fails = append(fails, fmt.Sprintf(
				"redundancy-scaling %s: r=2.0 excess %v, want T_S*T_C = %v",
				class.Name, excess20, wantExcess))
		}
		if class.CommFraction == 0 && (excess15 != 0 || excess20 != 0) {
			fails = append(fails, fmt.Sprintf(
				"redundancy-scaling %s: communication-free class stretched by redundancy", class.Name))
		}
	}

	for _, nodes := range []int{1, 2, 3, 5, 1200, 12001} {
		for _, r := range []float64{1.5, 2.0} {
			got := resilience.RedundantNodes(nodes, r)
			want := int(math.Ceil(float64(nodes)*r - 1e-9))
			if got != want {
				fails = append(fails, fmt.Sprintf(
					"redundancy-scaling: %d nodes at r=%.1f occupy %d physical, want ceil = %d",
					nodes, r, got, want))
			}
		}
	}
	return fails
}

// checkReplicaDegreeOrdering pins ReStore's replica-degree structure: the
// replicated-checkpoint cost is exactly linear in the degree k (k one-way
// partner copies), an unavailable degree degenerates to Checkpoint Restart
// run-for-run on identical seeds, and at a failure-heavy operating point a
// higher degree cannot hurt: at k = 2 every catastrophic failure (which
// destroys a node and its partner — two copies) loses the replica set and
// relaunches the job, while k = 3 survives it for a checkpoint-cost
// increase that is negligible against L2-scale writes, so mean efficiency
// at k = 3 must not fall below k = 2 beyond Monte-Carlo slack. (No such
// ordering holds against Checkpoint Restart: CR never loses its PFS
// checkpoint, so at low MTBF the k = 2 set losses can pull ReStore below
// it — that cross-technique trade is exactly what ext-menu2 maps.)
func (s Sweep) checkReplicaDegreeOrdering() []string {
	var fails []string

	// Cost linearity: cost(k) = k * L2/2 exactly.
	app := workload.App{Class: workload.C64, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(0.10)}
	costs := resilience.ComputeCosts(app, s.Machine)
	c1 := float64(resilience.ReplicatedCheckpointCost(costs, 1))
	for k := 2; k <= 5; k++ {
		ck := float64(resilience.ReplicatedCheckpointCost(costs, k))
		if !closeRel(ck, float64(k)*c1) {
			fails = append(fails, fmt.Sprintf(
				"replica-degree: checkpoint cost not linear in k: cost(%d)=%v, want %d*cost(1)=%v",
				k, ck, k, float64(k)*c1))
		}
	}

	mtbf := units.Duration(2.5) * units.Year
	cfg := s.Machine.WithMTBF(mtbf)
	model, err := failures.NewModel(mtbf, s.PMF)
	if err != nil {
		return append(fails, fmt.Sprintf("replica-degree: %v", err))
	}

	// Degeneration: a replica degree no smaller than the application is
	// unavailable (no peers can hold the copies), and the executor must be
	// run-for-run identical to Checkpoint Restart.
	small := workload.App{Class: workload.C64, TimeSteps: s.TimeSteps, Nodes: 2}
	opts := s.Resilience
	opts.ReStoreDegree = small.Nodes
	degen, err := resilience.New(core.InMemoryReplicatedCheckpoint, small, cfg, model, opts)
	if err != nil {
		return append(fails, fmt.Sprintf("replica-degree: %v", err))
	}
	cr, err := resilience.New(core.CheckpointRestart, small, cfg, model, s.Resilience)
	if err != nil {
		return append(fails, fmt.Sprintf("replica-degree: %v", err))
	}
	horizon := units.Duration(float64(small.Baseline()) * 100)
	rt := resilience.NewRuntime(nil)
	for trial := 0; trial < 3; trial++ {
		seed := s.Seed + uint64(trial)
		a := rt.Run(degen, 0, horizon, rng.New(seed))
		b := rt.Run(cr, 0, horizon, rng.New(seed))
		a.Technique = b.Technique // the label is the only permitted difference
		if a != b {
			fails = append(fails, fmt.Sprintf(
				"replica-degree: degenerate ReStore diverged from Checkpoint Restart on seed %d:\n restore: %+v\n      cr: %+v",
				seed, a, b))
		}
	}

	// Degree ordering at the failure-heavy point, on common random numbers.
	eff := func(degree int) (float64, error) {
		o := s.Resilience
		o.ReStoreDegree = degree
		x, err := resilience.New(core.InMemoryReplicatedCheckpoint, app, cfg, model, o)
		if err != nil {
			return 0, err
		}
		return appsim.Run(appsim.TrialSpec{Executor: x, Trials: s.Trials, Seed: s.Seed}).Efficiency.Mean, nil
	}
	eff2, err := eff(2)
	if err != nil {
		return append(fails, fmt.Sprintf("replica-degree: %v", err))
	}
	eff3, err := eff(3)
	if err != nil {
		return append(fails, fmt.Sprintf("replica-degree: %v", err))
	}
	if eff3 < eff2-mtbfSlack {
		fails = append(fails, fmt.Sprintf(
			"replica-degree: efficiency fell from %.4f at k=2 to %.4f at k=3 (%s MTBF)",
			eff2, eff3, mtbf))
	}
	return fails
}

// checkTeamReplicationStretch pins Lightweight Replication's steady-state
// model: its baseline stretch T_S * (T_W + (1+s) * T_C) is bounded below by
// the plain baseline (equality exactly when s = 0) and strictly below full
// redundancy's Eq. 8 stretch for s < 1 on every communicating class, and
// its physical footprint is 2 * N_a like full redundancy's.
func (s Sweep) checkTeamReplicationStretch() []string {
	var fails []string
	sync := s.Resilience.TeamSyncPenalty
	for _, class := range workload.Classes() {
		app := workload.App{Class: class, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(0.01)}
		team := float64(resilience.TeamReplicationBaseline(app, sync))
		full := float64(resilience.RedundantBaseline(app, 2.0))
		base := float64(app.Baseline())
		if team < base-1e-9 {
			fails = append(fails, fmt.Sprintf(
				"team-stretch %s: team baseline %v below the plain baseline %v", class.Name, team, base))
		}
		if team > full+1e-9 {
			fails = append(fails, fmt.Sprintf(
				"team-stretch %s: team baseline %v above full redundancy's %v", class.Name, team, full))
		}
		if class.CommFraction > 0 && sync < 1 && team >= full {
			fails = append(fails, fmt.Sprintf(
				"team-stretch %s: sync penalty %.2f did not undercut full redundancy's lockstep stretch",
				class.Name, sync))
		}
		if zero := float64(resilience.TeamReplicationBaseline(app, 0)); !closeRel(zero, base) {
			fails = append(fails, fmt.Sprintf(
				"team-stretch %s: s=0 baseline %v, want the plain baseline %v", class.Name, zero, base))
		}
	}

	mtbf := 10 * units.Year
	model, err := failures.NewModel(mtbf, s.PMF)
	if err != nil {
		return append(fails, fmt.Sprintf("team-stretch: %v", err))
	}
	app := workload.App{Class: workload.C64, TimeSteps: s.TimeSteps, Nodes: s.Machine.NodesForFraction(0.10)}
	x, err := resilience.New(core.LightweightReplication, app, s.Machine.WithMTBF(mtbf), model, s.Resilience)
	if err != nil {
		return append(fails, fmt.Sprintf("team-stretch: %v", err))
	}
	if got, want := x.PhysicalNodes(), 2*app.Nodes; got != want {
		fails = append(fails, fmt.Sprintf("team-stretch: footprint %d physical nodes, want 2*N_a = %d", got, want))
	}
	return fails
}

// closeRel compares within a relative 1e-9.
func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
