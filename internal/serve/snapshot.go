package serve

import (
	"slices"
	"sync"
)

// This file is the service's checkpoint store: the analogue of the
// paper's first-level (in-memory) checkpoint tier, sitting in front of
// the result cache's "parallel file system" role. Every simulating
// exhibit reports each finished cell through the experiments.Progress
// hook; the cells accumulate in a snapshot keyed by the spec's cache key.
// When the execution fails — runner error, per-job timeout, injected
// worker crash, or last-subscriber cancel — the snapshot survives, and
// the next flight for the same spec resumes from it instead of
// relaunching from scratch. A successful execution drops its snapshot:
// the finished result in the cache supersedes it.

// snapshot accumulates one spec's completed cells. Writes are
// first-write-wins: cells are deterministic functions of the spec, so a
// cell a mesh handoff imports while a flight of the same spec records it
// carries identical values, and the earlier write is as good as the
// later.
type snapshot struct {
	mu    sync.Mutex
	cells map[int][]float64
}

// note records one finished cell's outcome values.
func (sn *snapshot) note(cell int, values []float64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if _, ok := sn.cells[cell]; !ok {
		sn.cells[cell] = append([]float64(nil), values...)
	}
}

// completed copies the recorded cells for handoff to a resuming run.
func (sn *snapshot) completed() map[int][]float64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if len(sn.cells) == 0 {
		return nil
	}
	out := make(map[int][]float64, len(sn.cells))
	for k, v := range sn.cells {
		out[k] = v
	}
	return out
}

// size reports the number of recorded cells.
func (sn *snapshot) size() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.cells)
}

// snapStore holds the partial-result snapshots of interrupted
// executions, keyed by spec cache key and bounded like the result cache:
// when over capacity, the oldest snapshots are evicted (losing a
// snapshot only costs recomputation, never correctness).
type snapStore struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*snapshot
	order []string // insertion/refresh order, oldest first
	m     *Metrics
}

// newSnapStore builds a store retaining about cap snapshots.
func newSnapStore(cap int, m *Metrics) *snapStore {
	if cap <= 0 {
		cap = 64
	}
	return &snapStore{cap: cap, byKey: make(map[string]*snapshot), m: m}
}

// open returns the snapshot for key — the surviving one of an earlier
// interrupted execution, or a fresh empty one — and reports how many
// cells that earlier execution left behind.
func (ss *snapStore) open(key string) (*snapshot, int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if sn, ok := ss.byKey[key]; ok {
		ss.refreshLocked(key)
		return sn, sn.size()
	}
	sn := &snapshot{cells: make(map[int][]float64)}
	ss.byKey[key] = sn
	ss.order = append(ss.order, key)
	ss.evictLocked(key)
	ss.m.Snapshots.Set(int64(len(ss.byKey)))
	return sn, 0
}

// drop removes key's snapshot (the execution completed; the result cache
// now owns the spec).
func (ss *snapStore) drop(key string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.removeLocked(key)
}

// settle is called when an execution ends without a result: a snapshot
// that recorded cells is kept for the next attempt's resume, an empty
// one (the exhibit has no checkpointable cells, or none finished) is
// discarded.
func (ss *snapStore) settle(key string) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if sn, ok := ss.byKey[key]; ok && sn.size() == 0 {
		ss.removeLocked(key)
	}
}

// export deep-copies every retained snapshot with at least one recorded
// cell, keyed by spec cache key. The mesh coordinator uses it to lift an
// interrupted execution's progress off a dead replica (and to prewarm a
// revived one), mirroring ReStore's in-memory checkpoint scatter.
func (ss *snapStore) export() map[string]map[int][]float64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make(map[string]map[int][]float64, len(ss.byKey))
	for k, sn := range ss.byKey {
		if cells := sn.completed(); len(cells) > 0 { // a fresh map sharing the value slices
			for cell, values := range cells {
				cells[cell] = slices.Clone(values)
			}
			out[k] = cells
		}
	}
	return out
}

// merge folds handed-off cells into key's snapshot (creating it when
// absent) and reports how many cells were new here. First-write-wins per
// cell, exactly like a local recording: cells are deterministic functions
// of the spec, so colliding writes carry identical values.
func (ss *snapStore) merge(key string, cells map[int][]float64) int {
	if len(cells) == 0 {
		return 0
	}
	sn, _ := ss.open(key)
	before := sn.size()
	for cell, values := range cells {
		sn.note(cell, values)
	}
	return sn.size() - before
}

// size reports the number of retained snapshots.
func (ss *snapStore) size() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.byKey)
}

// refreshLocked moves key to the young end of the eviction order.
func (ss *snapStore) refreshLocked(key string) {
	for i, k := range ss.order {
		if k == key {
			ss.order = append(append(ss.order[:i:i], ss.order[i+1:]...), key)
			return
		}
	}
}

// removeLocked deletes key from the map and the order slice.
func (ss *snapStore) removeLocked(key string) {
	if _, ok := ss.byKey[key]; !ok {
		return
	}
	delete(ss.byKey, key)
	for i, k := range ss.order {
		if k == key {
			ss.order = append(ss.order[:i], ss.order[i+1:]...)
			break
		}
	}
	ss.m.Snapshots.Set(int64(len(ss.byKey)))
}

// evictLocked drops the oldest snapshots while over capacity, sparing
// keep (the one being opened right now).
func (ss *snapStore) evictLocked(keep string) {
	for len(ss.byKey) > ss.cap && len(ss.order) > 0 {
		victim := ""
		for _, k := range ss.order {
			if k != keep {
				victim = k
				break
			}
		}
		if victim == "" {
			return
		}
		ss.removeLocked(victim)
		ss.m.SnapshotsEvicted.Inc()
	}
}
