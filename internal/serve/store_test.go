package serve

import (
	"slices"
	"testing"
	"time"

	"exaresil/internal/obs"
)

// TestStoreEvictsOldestTerminal: a full store drops its oldest terminal
// job on each submission, keeps queued and running jobs in submission
// order, and leaves no stale ids behind its compacted order.
func TestStoreEvictsOldestTerminal(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	st := newStore(4, "", m)
	now := time.Unix(0, 0)
	submit := func() string { return st.newJob(Spec{Exhibit: "fig1"}, CacheMiss, nil, now).ID() }
	queued, running, done, failed := submit(), submit(), submit(), submit()
	st.jobs[running].markRunning(now)
	st.jobs[done].finish(StateDone, nil, "", now)
	st.jobs[failed].finish(StateFailed, nil, "", now)

	fifth := submit()
	if want := []string{queued, running, failed, fifth}; !slices.Equal(st.order, want) {
		t.Fatalf("order after one eviction = %v, want %v", st.order, want)
	}
	sixth := submit()
	if want := []string{queued, running, fifth, sixth}; !slices.Equal(st.order, want) {
		t.Fatalf("order after two evictions = %v, want %v", st.order, want)
	}
	if _, ok := st.jobs[failed]; ok || m.StoreEvicted.Value() != 2 || st.size() != 4 {
		t.Errorf("evicted %d jobs leaving %d (failed job kept: %v), want 2 leaving 4", m.StoreEvicted.Value(), st.size(), ok)
	}
	if tail := st.order[len(st.order):cap(st.order)]; slices.ContainsFunc(tail, func(id string) bool { return id != "" }) {
		t.Errorf("vacated order tail still holds ids: %q", tail)
	}
}
