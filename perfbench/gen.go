package main

import (
	"math/rand/v2"
	"time"

	"exaresil/internal/load"
	"exaresil/internal/serve"
)

// specKinds are the served workloads' spec shapes, each a few milliseconds
// of simulation on one worker: three cheap trial exhibits and one small
// cluster exhibit. Only the seed differs between specs of one kind, so a
// spec's cost depends on its kind, and the kinds are dealt round-robin by
// rank so every seed gets the same cost mix.
var specKinds = []serve.Spec{
	{Exhibit: "fig1", Trials: 2},
	{Exhibit: "fig2", Trials: 2},
	{Exhibit: "ext-mtbf", Trials: 2},
	{Exhibit: "fig4", Patterns: 1, Arrivals: 5},
}

// isClusterSpec reports whether the spec runs the cluster exhibit (its
// execution time counts towards cluster_s rather than scaling_s).
func isClusterSpec(s serve.Spec) bool { return s.Exhibit == "fig4" }

// Fleet shape and served traffic. The fleet is fixed by the workload
// definitions: two replicas of one worker each with the default result
// caches (2 × 128 entries).
const (
	replicas   = 2
	fleetCache = replicas * 128
	// queueDepth is each replica's queue bound: deep enough that a Poisson
	// burst in the open-loop phase never meets a refusal (a refused job
	// counts as failed), where the default of two flights would.
	queueDepth  = 16
	zipfVocab   = 4 * fleetCache // several times the fleet's cache capacity
	zipfS       = 1.1
	zipfRate    = 120.0 // arrivals/s in the open-loop phase of served-zipf
	outstanding = 3     // closed-loop jobs: more than the 2 workers, far fewer than the queue slots
	openShare   = 0.85  // share of --seconds given to the open-loop phase
	pollEvery   = 2 * time.Millisecond
)

// arrival is one open-loop request: a spec due at an offset from the
// phase start.
type arrival struct {
	At   time.Duration `json:"at_ns"`
	Spec serve.Spec    `json:"spec"`
}

// plan is a served workload's complete input, a pure function of the seed
// and the phase lengths.
type plan struct {
	// OpenW and ClosedW are the open-loop and closed-loop phases' lengths.
	OpenW   time.Duration `json:"open_ns"`
	ClosedW time.Duration `json:"closed_ns"`
	// Warm is submitted closed-loop before timing starts.
	Warm []serve.Spec `json:"warm"`
	// Open is the open-loop phase's Poisson arrival schedule.
	Open []arrival `json:"open"`
	// Closed is the spec sequence the closed-loop phase draws from, in
	// order; it is longer than the phase can consume.
	Closed []serve.Spec `json:"closed"`
}

// seedSource deals distinct, non-zero spec seeds (zero selects the
// paper-epoch default seed).
type seedSource struct {
	r    *rand.Rand
	seen map[uint64]bool
}

func newSeedSource(r *rand.Rand) *seedSource {
	return &seedSource{r: r, seen: map[uint64]bool{}}
}

func (s *seedSource) next() uint64 {
	for {
		v := s.r.Uint64() >> 1
		if v != 0 && !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// kindSpec returns the i-th spec of the kind cycle with the given seed.
func kindSpec(i int, seed uint64) serve.Spec {
	s := specKinds[i%len(specKinds)]
	s.Seed = seed
	return s
}

// closedLen bounds the closed-loop spec sequence: far more jobs than the
// fleet can finish in the phase at any plausible speed.
func closedLen(window time.Duration) int {
	return int(window.Seconds()*2000) + 100
}

// zipfPlan builds served-zipf's inputs: a ranked vocabulary of zipfVocab
// specs, warm-up over the cache-sized head, a constant-rate Poisson stream
// from load.Generate for the open loop, and draws from the same Zipf law
// for the closed loop. Independent generators per stream keep the
// vocabulary fixed when the phase lengths change.
func zipfPlan(seed uint64, open, closed time.Duration) (plan, error) {
	seeds := newSeedSource(rand.New(rand.NewPCG(seed, 1)))
	vocab := make([]serve.Spec, zipfVocab)
	for i := range vocab {
		vocab[i] = kindSpec(i, seeds.next())
	}
	arrivals, err := load.Generate(load.GenSpec{
		Seed:    seed,
		Profile: load.Profile{Segments: []load.Segment{{Kind: load.KindConstant, Dur: open.Seconds(), Rate: zipfRate}}},
		Vocab:   vocab,
		ZipfS:   zipfS,
	})
	if err != nil {
		return plan{}, err
	}
	pop, err := load.NewPopularity(len(vocab), zipfS)
	if err != nil {
		return plan{}, err
	}
	p := plan{OpenW: open, ClosedW: closed, Warm: vocab[:fleetCache]}
	for _, a := range arrivals {
		p.Open = append(p.Open, arrival{At: time.Duration(a.At * float64(time.Second)), Spec: a.Spec})
	}
	closedRnd := rand.New(rand.NewPCG(seed, 4))
	p.Closed = make([]serve.Spec, closedLen(closed))
	for i := range p.Closed {
		p.Closed[i] = vocab[pop.Rank(closedRnd.Float64())]
	}
	return p, nil
}
