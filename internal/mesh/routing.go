package mesh

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Candidate is one live replica's load signal at routing time.
type Candidate struct {
	Idx      int // replica index
	Queued   int // flights waiting in its queue
	Inflight int // flights executing on its workers
}

func (c Candidate) load() int { return c.Queued + c.Inflight }

// Router is the mesh's second pipeline stage: given a spec's cache key
// and the live replicas, it returns every candidate's index in
// preference order. The coordinator tries them in order and spills to
// the next on rejection (saturated or draining replica), so a router
// expresses preference, never exclusion.
type Router interface {
	Order(key string, live []Candidate) []int
	// Name labels the router in metrics and health output.
	Name() string
}

// fnv64 is 64-bit FNV-1a, the ring hash for spec keys and vnode names.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer. Raw FNV-1a clusters strings that
// differ only in their last character (the final byte sees just one
// multiply, so "vnode-0".."vnode-9" land within a narrow span of the
// 64-bit ring); finalizing restores a uniform spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// affinityRouter routes by consistent hashing on the spec key: each
// replica owns vnodes points on a hash ring, and a key's preference
// order is the ring walk from its hash. Identical specs always prefer
// the same replica — so its result cache and checkpoint snapshots see
// every retry of a spec — and a replica's death remaps only the keys it
// owned, not the whole keyspace.
type affinityRouter struct {
	ring []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int
}

// affinityVnodes is the points-per-replica count; 64 keeps the ring's
// ownership spread within a few percent of uniform for small fleets.
const affinityVnodes = 64

// NewAffinityRouter builds the ring over all replicas (dead ones are
// simply filtered at Order time, so the ring never rebuilds and key
// ownership is stable across failures and revivals).
func NewAffinityRouter(replicas int) Router {
	r := &affinityRouter{ring: make([]ringPoint, 0, replicas*affinityVnodes)}
	for i := 0; i < replicas; i++ {
		for v := 0; v < affinityVnodes; v++ {
			r.ring = append(r.ring, ringPoint{hash: mix64(fnv64(fmt.Sprintf("replica-%d/vnode-%d", i, v))), idx: i})
		}
	}
	sort.Slice(r.ring, func(a, b int) bool { return r.ring[a].hash < r.ring[b].hash })
	return r
}

func (r *affinityRouter) Order(key string, live []Candidate) []int {
	alive := make(map[int]bool, len(live))
	for _, c := range live {
		alive[c.Idx] = true
	}
	h := mix64(fnv64(key))
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	out := make([]int, 0, len(live))
	seen := make(map[int]bool, len(live))
	for i := 0; i < len(r.ring) && len(out) < len(alive); i++ {
		p := r.ring[(start+i)%len(r.ring)]
		if alive[p.idx] && !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}

func (r *affinityRouter) Name() string { return "affinity" }

// leastLoadedRouter orders replicas by queued+inflight load, breaking
// ties by index. Best latency spread, worst cache affinity.
type leastLoadedRouter struct{}

// NewLeastLoadedRouter builds the least-loaded router.
func NewLeastLoadedRouter() Router { return leastLoadedRouter{} }

func (leastLoadedRouter) Order(_ string, live []Candidate) []int {
	cands := append([]Candidate(nil), live...)
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].load() != cands[b].load() {
			return cands[a].load() < cands[b].load()
		}
		return cands[a].Idx < cands[b].Idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.Idx
	}
	return out
}

func (leastLoadedRouter) Name() string { return "least-loaded" }

// twoChoiceRouter is power-of-two-choices: sample two distinct replicas
// from a seeded stream, prefer the less loaded, and fall back to the
// rest in index order. Near-least-loaded balance without the herd
// behavior of always picking the global minimum.
type twoChoiceRouter struct {
	mu  sync.Mutex
	rnd *rand.Rand
}

// NewTwoChoiceRouter builds the random-2-choice router from a seed
// (deterministic sampling for reproducible soaks).
func NewTwoChoiceRouter(seed int64) Router {
	return &twoChoiceRouter{rnd: rand.New(rand.NewSource(seed))}
}

func (r *twoChoiceRouter) Order(_ string, live []Candidate) []int {
	n := len(live)
	if n <= 1 {
		return leastLoadedRouter{}.Order("", live)
	}
	r.mu.Lock()
	a := r.rnd.Intn(n)
	b := r.rnd.Intn(n - 1)
	r.mu.Unlock()
	if b >= a {
		b++
	}
	if live[b].load() < live[a].load() {
		a, b = b, a
	}
	out := make([]int, 0, n)
	out = append(out, live[a].Idx, live[b].Idx)
	for _, c := range live {
		if c.Idx != live[a].Idx && c.Idx != live[b].Idx {
			out = append(out, c.Idx)
		}
	}
	return out
}

func (r *twoChoiceRouter) Name() string { return "random2" }

// ParseRouter resolves the -routing flag vocabulary: "affinity"
// (default), "least-loaded", or "random2".
func ParseRouter(name string, replicas int, seed int64) (Router, error) {
	switch name {
	case "", "affinity":
		return NewAffinityRouter(replicas), nil
	case "least-loaded":
		return NewLeastLoadedRouter(), nil
	case "random2":
		return NewTwoChoiceRouter(seed), nil
	default:
		return nil, fmt.Errorf("mesh: unknown router %q (want affinity, least-loaded, or random2)", name)
	}
}
