// Package analytic provides closed-form, first-order expected-efficiency
// models for each resilience technique.
//
// The models serve two purposes. First, validation: the discrete-event
// simulator and the renewal-theory formulas are independent derivations of
// the same physics, so agreement between them (tested in this package)
// catches modeling bugs in either. Second, speed: selecting a technique
// per application from the closed forms is thousands of times faster than
// Monte-Carlo probing, which matters when a resource manager must decide
// at submission time.
//
// All formulas are first-order in the failure rate, the same order as
// Daly's period estimate (Eq. 4); they degrade gracefully in the collapse
// regimes by reporting zero efficiency.
package analytic

import (
	"fmt"
	"math"

	"exaresil/internal/core"
	"exaresil/internal/failures"
	"exaresil/internal/machine"
	"exaresil/internal/resilience"
	"exaresil/internal/units"
	"exaresil/internal/workload"
)

// Efficiency reports the expected efficiency (baseline time over expected
// makespan) of running app on cfg under technique t, per the first-order
// renewal model. It returns 0 for regimes where the technique cannot make
// progress, mirroring the simulator's incomplete runs.
func Efficiency(t core.Technique, app workload.App, cfg machine.Config, model *failures.Model, opts resilience.Config) (float64, error) {
	if err := app.Validate(); err != nil {
		return 0, err
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if model == nil {
		return 0, fmt.Errorf("analytic: nil failure model")
	}
	if err := opts.Validate(); err != nil {
		return 0, err
	}

	c := newCell(app, cfg, resilience.ComputeCosts(app, cfg), model, opts)
	return c.efficiency(t)
}

// cell is one scoring point: an application on a machine under a failure
// model, with what the twins share derived once.
type cell struct {
	app   workload.App
	cfg   machine.Config
	costs resilience.Costs
	model *failures.Model
	opts  resilience.Config
	rate  float64 // the application's failure rate, per minute
	// ml, when non-nil, caches the multilevel exact stretch across Evals.
	ml *mlCache
}

func newCell(app workload.App, cfg machine.Config, costs resilience.Costs, model *failures.Model, opts resilience.Config) cell {
	return cell{app: app, cfg: cfg, costs: costs, model: model, opts: opts, rate: model.Rate(app.Nodes).PerMinute()}
}

// efficiency is the one per-technique dispatch of the analytic twins,
// shared by Efficiency and Evaluator.Eval.
func (c *cell) efficiency(t core.Technique) (float64, error) {
	switch t {
	case core.Ideal:
		return 1, nil
	case core.CheckpointRestart:
		return exactPeriodicEfficiency(1, c.costs.PFS, c.costs.PFS, c.rate), nil
	case core.ParallelRecovery:
		mu := resilience.MessageLoggingSlowdown(c.app.Class)
		return periodicEfficiency(mu, c.costs.L2, c.costs.L2, c.rate, c.opts.RecoverySpeedup), nil
	case core.MultilevelCheckpoint:
		if c.ml != nil {
			return c.ml.efficiency(c), nil
		}
		return multilevelEfficiency(c.app, c.costs, c.model, c.opts)
	case core.PartialRedundancy:
		return redundantEfficiency(c.app, c.cfg, c.costs, c.model, 1.5), nil
	case core.FullRedundancy:
		return redundantEfficiency(c.app, c.cfg, c.costs, c.model, 2.0), nil
	case core.InMemoryReplicatedCheckpoint:
		return restoreEfficiency(c.app, c.costs, c.model, c.opts.ReStoreReplicas()), nil
	case core.LightweightReplication:
		return teamReplicationEfficiency(c.app, c.cfg, c.costs, c.model, c.opts.TeamSyncPenalty), nil
	default:
		return 0, fmt.Errorf("analytic: no model for technique %v", t)
	}
}

// periodicEfficiency is the single-level renewal model shared by
// Checkpoint Restart (stretch 1, phi 1) and Parallel Recovery (stretch mu,
// rework speedup phi): work inflated by stretch, checkpoints of the given
// cost at the Daly period, failures at rate lambda each costing a restore
// plus the replay (at phi-fold speed) of on average half a period's work.
//
//	eff = 1 / (stretch * (1 + C/tau) / (1 - lambda*(R + (tau+C)/(2*phi))))
func periodicEfficiency(stretch float64, checkpoint, restart units.Duration, lambda, phi float64) float64 {
	tau, ok := resilience.DalyPeriod(checkpoint, units.Rate(lambda))
	if !ok {
		return 0
	}
	c, r := checkpoint.Minutes(), restart.Minutes()
	overhead := stretch
	if !math.IsInf(tau.Minutes(), 1) {
		overhead = stretch * (1 + c/tau.Minutes())
	}
	loss := lambda * (r + (tau.Minutes()+c)/(2*phi)*stretch)
	if loss >= 1 {
		return 0
	}
	eff := (1 - loss) / overhead
	return clamp01(eff)
}

// exactPeriodicEfficiency is the exact renewal expectation for a
// single-level periodic scheme under exponential failures, used where the
// first-order expansion breaks down (Checkpoint Restart at exascale, where
// lambda*(tau+C) approaches 1).
//
// Committing one checkpoint interval requires surviving an exposure of
// D = tau + C; each failure costs its elapsed time plus an uninterruptible
// restart of length R that retries on its own failures. The expected wall
// time per committed interval is then
//
//	E = e^(lambda*R) * (e^(lambda*D) - 1) / lambda,
//
// (the number of work attempts is geometric with mean e^(lambda*D); each
// failed attempt costs its conditional elapsed time plus an expected
// restart of (e^(lambda*R)-1)/lambda; the terms telescope to the closed
// form above). Efficiency is the useful work per interval, tau, over
// stretch times E.
func exactPeriodicEfficiency(stretch float64, checkpoint, restart units.Duration, lambda float64) float64 {
	tau, ok := resilience.DalyPeriod(checkpoint, units.Rate(lambda))
	if !ok {
		return 0
	}
	if lambda <= 0 || math.IsInf(tau.Minutes(), 1) {
		return clamp01(1 / stretch)
	}
	d := tau.Minutes() + checkpoint.Minutes()
	expected := math.Exp(lambda*restart.Minutes()) * math.Expm1(lambda*d) / lambda
	if math.IsInf(expected, 1) || expected <= 0 {
		return 0
	}
	return clamp01(tau.Minutes() / (stretch * expected))
}

// multilevelEfficiency predicts the schedule the simulator actually runs —
// the first-order optimizer's winner — but scores it with the exact
// Markov-chain stretch. The first-order objective is fine for ranking
// candidate schedules, yet as a prediction it understates failure cost
// once lambda*(tau+C) is no longer small (the same regime that pushed
// Checkpoint Restart onto exactPeriodicEfficiency): at exascale with a
// 2.5-year component MTBF it overstates multilevel efficiency by roughly
// two-fold against the simulator.
func multilevelEfficiency(app workload.App, costs resilience.Costs, model *failures.Model, opts resilience.Config) (float64, error) {
	rates := model.SeverityRates(app.Nodes)
	sched, err := resilience.OptimizeMultilevel(costs, rates, opts.Multilevel)
	if err != nil {
		// No feasible schedule: the technique cannot make progress.
		return 0, nil
	}
	stretch := sched.ExactStretch(costs, rates)
	if math.IsInf(stretch, 1) || stretch <= 0 {
		return 0, nil
	}
	return clamp01(1 / stretch), nil
}

// redundantEfficiency models redundancy of degree r: the baseline
// stretches per Eq. 8, checkpointing continues at Checkpoint Restart's
// period, and the effective rollback rate collapses to
//
//	lambda_eff = n_unreplicated * lambda_n  +  n_pairs * lambda_n^2 * (tau + C)
//
// — unreplicated virtual nodes die on any hit, replicated pairs only when
// both replicas are hit within one checkpoint interval (the probability of
// which is first-order (lambda_n * interval)^2 per pair per interval).
func redundantEfficiency(app workload.App, cfg machine.Config, costs resilience.Costs, model *failures.Model, r float64) float64 {
	phys := resilience.RedundantNodes(app.Nodes, r)
	if phys > cfg.Nodes {
		return 0
	}
	tau, ok := resilience.DalyPeriod(costs.PFS, model.Rate(app.Nodes))
	if !ok {
		return 0
	}
	c := costs.PFS.Minutes()
	interval := tau.Minutes() + c

	lambdaNode := model.Rate(1).PerMinute()
	pairs := phys - app.Nodes
	unreplicated := app.Nodes - pairs
	lambdaEff := float64(unreplicated)*lambdaNode +
		float64(pairs)*lambdaNode*lambdaNode*interval

	stretch := resilience.RedundantBaseline(app, r).Minutes() / app.Baseline().Minutes()
	overhead := stretch * (1 + c/tau.Minutes())
	loss := lambdaEff * (c + interval/2*stretch)
	if loss >= 1 {
		return 0
	}
	return clamp01((1 - loss) / overhead)
}

// relaunchRenewalEfficiency scores a scheme whose only recovery from some
// rare catastrophic event (rate lambda per minute) is a full relaunch from
// the PFS input: the exact renewal expectation of exactPeriodicEfficiency
// with the whole job as the exposure window,
//
//	M = e^(lambda*R) * (e^(lambda*M0) - 1) / lambda,
//
// where M0 is the expected makespan absent such events and R the relaunch
// cost. Efficiency is the true baseline over M.
func relaunchRenewalEfficiency(baseline, m0, lambda, relaunch float64) float64 {
	if m0 <= 0 {
		return 0
	}
	if lambda <= 0 {
		return clamp01(baseline / m0)
	}
	x := lambda * m0
	if x > 690 { // e^x overflows float64; the job effectively never finishes
		return 0
	}
	m := math.Exp(lambda*relaunch) * math.Expm1(x) / lambda
	if math.IsInf(m, 1) || m <= 0 {
		return 0
	}
	return clamp01(baseline / m)
}

// severityPMF reports the model's severity weights (transient, node loss,
// catastrophic), normalized.
func severityPMF(model *failures.Model) (p1, p2, p3 float64) {
	pmf := model.PMF()
	total := pmf[0] + pmf[1] + pmf[2]
	if total <= 0 {
		return 0, 0, 0
	}
	return pmf[0] / total, pmf[1] / total, pmf[2] / total
}

// restoreEfficiency models In-Memory Replicated Checkpoint (ReStore,
// arXiv:2203.01107). Ordinary failures see the cheap in-memory scheme —
// the exact periodic renewal at the replicated-checkpoint cost C_mem and
// restore cost R_mem — while the rare loss of all k replica holders within
// one checkpoint interval relaunches the job from its PFS input, a second
// renewal layer composed on top. With the replica degree unavailable
// (N_a <= k) the executor degenerates to Checkpoint Restart, and so does
// the model.
func restoreEfficiency(app workload.App, costs resilience.Costs, model *failures.Model, k int) float64 {
	rate := model.Rate(app.Nodes)
	lambda := rate.PerMinute()
	if k <= 0 || app.Nodes <= k {
		return exactPeriodicEfficiency(1, costs.PFS, costs.PFS, lambda)
	}
	cMem := resilience.ReplicatedCheckpointCost(costs, k)
	rMem := resilience.ReplicatedRestoreCost(costs)
	effBase := exactPeriodicEfficiency(1, cMem, rMem, lambda)
	if effBase <= 0 {
		return 0
	}
	baseline := app.Baseline().Minutes()
	if lambda <= 0 {
		return clamp01(effBase)
	}
	tau, ok := resilience.DalyPeriod(cMem, rate)
	if !ok {
		return 0
	}
	d := tau.Minutes() + cMem.Minutes()
	lambdaLoss := replicaSetLossProb(model, k, lambda, d) / d
	return relaunchRenewalEfficiency(baseline, baseline/effBase, lambdaLoss, costs.PFS.Minutes())
}

// replicaSetLossProb is the probability that the failures within one
// checkpoint exposure window of d minutes destroy at least k replica
// holders. Failures arrive Poisson at rate lambda; a node loss (severity 2)
// takes one holder's copy and a catastrophic failure (severity 3) two, so
// with q the catastrophic share of loss-causing failures,
//
//	P(survive) = sum_{n=0}^{k-1} Pois(n; a) * P(Binomial(n, q) <= k-1-n),
//
// a = lambda*(p2+p3)*d being the expected loss events per window (n loss
// events destroy at least n copies, so n >= k events always lose the set).
// The loops are O(k^2) with no allocation, batch-evaluator safe.
func replicaSetLossProb(model *failures.Model, k int, lambda, d float64) float64 {
	_, p2, p3 := severityPMF(model)
	pLossy := p2 + p3
	if pLossy <= 0 {
		return 0
	}
	a := lambda * pLossy * d
	q := p3 / pLossy
	survive := 0.0
	pois := math.Exp(-a) // Pois(0; a)
	for n := 0; n < k; n++ {
		if n > 0 {
			pois *= a / float64(n)
		}
		// P(j catastrophic among n | at most k-1-n of them), iteratively:
		// term(0) = (1-q)^n, term(j) = term(j-1) * (n-j+1)/j * q/(1-q).
		binom := 0.0
		term := math.Pow(1-q, float64(n))
		if q >= 1 {
			// Every loss event is catastrophic: n events lose 2n copies.
			if 2*n <= k-1 {
				binom = 1
			}
		} else {
			for j := 0; j <= n && n+j <= k-1; j++ {
				if j > 0 {
					term *= float64(n-j+1) / float64(j) * q / (1 - q)
				}
				binom += term
			}
		}
		survive += pois * binom
	}
	return clamp01(1 - survive)
}

// teamReplicationEfficiency models Lightweight Replication (TeaMPI,
// arXiv:2005.12091). The steady state is just the (1 + s) sync stretch on
// the communication term; the only rollbacks are full relaunches, at the
// rate of catastrophic failures (which take a node and its twin together)
// plus twin double failures — a node loss landing while the struck node's
// twin is still inside its re-sync window W:
//
//	lambda_d = lambda(2N)*p3 + 2N * (lambda_node*p2)^2 * W.
func teamReplicationEfficiency(app workload.App, cfg machine.Config, costs resilience.Costs, model *failures.Model, sync float64) float64 {
	phys := 2 * app.Nodes
	if phys > cfg.Nodes {
		return 0
	}
	_, p2, p3 := severityPMF(model)
	lambdaNode := model.Rate(1).PerMinute()
	w := costs.L2.Minutes()
	lambdaD := model.Rate(phys).PerMinute()*p3 +
		float64(phys)*(lambdaNode*p2)*(lambdaNode*p2)*w
	m0 := resilience.TeamReplicationBaseline(app, sync).Minutes()
	return relaunchRenewalEfficiency(app.Baseline().Minutes(), m0, lambdaD, costs.PFS.Minutes())
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Best reports the technique with the highest analytic efficiency among
// candidates for the given application, with its predicted efficiency.
func Best(candidates []core.Technique, app workload.App, cfg machine.Config, model *failures.Model, opts resilience.Config) (core.Technique, float64, error) {
	if len(candidates) == 0 {
		return 0, 0, fmt.Errorf("analytic: no candidate techniques")
	}
	best := candidates[0]
	bestEff := math.Inf(-1)
	for _, t := range candidates {
		eff, err := Efficiency(t, app, cfg, model, opts)
		if err != nil {
			return 0, 0, err
		}
		if eff > bestEff {
			best, bestEff = t, eff
		}
	}
	return best, bestEff, nil
}

// Selector is a fast Resilience Selection policy computed from the
// analytic models instead of Monte-Carlo probes. It implements the same
// Choose signature as the Monte-Carlo selector and is safe for concurrent
// use.
type Selector struct {
	candidates []core.Technique
	cfg        machine.Config
	model      *failures.Model
	opts       resilience.Config
}

// NewSelector builds an analytic selector. Nil candidates means the
// cluster-study trio.
func NewSelector(candidates []core.Technique, cfg machine.Config, model *failures.Model, opts resilience.Config) (*Selector, error) {
	if candidates == nil {
		candidates = core.ClusterTechniques()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("analytic: nil failure model")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Selector{candidates: candidates, cfg: cfg, model: model, opts: opts}, nil
}

// Choose picks the analytically best technique for app. Evaluation errors
// (malformed apps) fall back to the first candidate; the cluster validates
// apps before they reach mapping, so this path is defensive.
func (s *Selector) Choose(app workload.App) core.Technique {
	best, _, err := Best(s.candidates, app, s.cfg, s.model, s.opts)
	if err != nil {
		return s.candidates[0]
	}
	return best
}
