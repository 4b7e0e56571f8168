package serve

// The serving-layer bug sweep: regression tests for the seams the mesh
// work flushed out — Retry-After cold start, the single-flight
// join-after-abort race, cancel-vs-drain storms, replica Kill semantics,
// and cross-server snapshot handoff.

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"exaresil/internal/experiments"
)

// TestRetryAfterColdStartFloor: before any execution has completed the
// EWMA is empty, and the Retry-After estimate must be floored at 1s — a
// 429 storm on a freshly booted server must never tell clients "retry
// now". Tiny samples stay floored; huge ones clamp at 120.
func TestRetryAfterColdStartFloor(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 4, Runner: newBlockingRunner(false).run})
	if got := srv.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold-start RetryAfterSeconds = %d, want 1", got)
	}
	srv.noteJobSeconds(1e-9)
	if got := srv.RetryAfterSeconds(); got != 1 {
		t.Fatalf("tiny-sample RetryAfterSeconds = %d, want floor 1", got)
	}
	srv.noteJobSeconds(1e9)
	if got := srv.RetryAfterSeconds(); got != 120 {
		t.Fatalf("huge-sample RetryAfterSeconds = %d, want clamp 120", got)
	}
}

// TestDeadFlightReplacedOnAcquire: the join-after-abort race. A flight
// whose last subscriber canceled (detach → aborted) but whose cancel
// path has not yet swept the cache must not be joinable — attach refuses
// it and acquire evicts it in favor of a fresh flight. Before the fix a
// submission landing in that window joined the corpse and hung forever.
func TestDeadFlightReplacedOnAcquire(t *testing.T) {
	now := time.Now()
	c := newCache(8, NewMetrics(nil))
	spec := Spec{Exhibit: "fig1", Trials: 3}

	_, fl1, created, err := c.acquire(spec, admitAll)
	if err != nil || !created {
		t.Fatalf("first acquire: created=%v err=%v", created, err)
	}
	fl1.attach(&Job{state: StateQueued}, now)
	if got := fl1.detach(); got != detachAborted {
		t.Fatalf("detach = %v, want detachAborted", got)
	}

	// The cancel path's forget/discard have NOT run yet: this is the race
	// window. Joining must be refused…
	if got := fl1.attach(&Job{state: StateQueued}, now); got != attachDead {
		t.Fatalf("attach to aborted queued flight = %v, want attachDead", got)
	}
	// …and acquire must evict the corpse and lead a fresh flight.
	_, fl2, created2, err := c.acquire(spec, admitAll)
	if err != nil || !created2 {
		t.Fatalf("acquire over dead flight: created=%v err=%v, want fresh flight", created2, err)
	}
	if fl2 == fl1 {
		t.Fatal("acquire joined the dead flight")
	}
	// The cancel path's late forget of the corpse must not evict the
	// replacement.
	c.forget(fl1)
	if c.size() != 1 {
		t.Fatalf("late forget removed the replacement: cache size %d, want 1", c.size())
	}

	// A killed *running* flight is not dead — its worker's ctx.Done path
	// will settle it, so joining stays legal until then.
	_, flRun, _, _ := c.acquire(Spec{Exhibit: "fig2"}, admitAll)
	flRun.attach(&Job{state: StateQueued}, now)
	flRun.begin(func(error) {}, now)
	if !flRun.kill() {
		t.Fatal("kill of a running flight reported unhandled")
	}
	if flRun.dead() {
		t.Fatal("killed running flight reported dead before settling")
	}
}

// TestSubmitSurvivesCancelRace: server-level version of the same race.
// Submit must detect the stillborn attach, discard the job, and retry
// with a fresh flight that completes normally.
func TestSubmitSurvivesCancelRace(t *testing.T) {
	br := newBlockingRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: br.run})

	vA, err := srv.Submit(Spec{Exhibit: "fig1", Trials: 1})
	if err != nil {
		t.Fatalf("submit A: %v", err)
	}
	br.waitStart(t) // A occupies the only worker
	specB := Spec{Exhibit: "fig1", Trials: 2}
	vB, err := srv.Submit(specB)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	// Freeze the cancel mid-window: terminal job + detached flight, but
	// no forget/discard yet — exactly the interleaving handleCancel can
	// be preempted in.
	jB, ok := srv.store.get(vB.ID)
	if !ok {
		t.Fatalf("job %s missing", vB.ID)
	}
	jB.finish(StateCanceled, nil, "canceled by client", time.Now())
	if got := jB.flight.detach(); got != detachAborted {
		t.Fatalf("detach = %v, want detachAborted", got)
	}

	vB2, err := srv.Submit(specB)
	if err != nil {
		t.Fatalf("submit into the race window: %v", err)
	}
	if vB2.Cache != CacheMiss {
		t.Fatalf("resubmission cache status %q, want %q (fresh flight, not the corpse)", vB2.Cache, CacheMiss)
	}

	br.unblock()
	if done := pollTerminal(t, ts, vB2.ID); done.State != "done" {
		t.Fatalf("resubmitted job ended %s: %s", done.State, done.Error)
	}
	if done := pollTerminal(t, ts, vA.ID); done.State != "done" {
		t.Fatalf("job A ended %s: %s", done.State, done.Error)
	}
}

// TestKillAbortsAllWork: Kill closes admission, fails queued flights
// immediately, and cancels running ones through their execution context.
func TestKillAbortsAllWork(t *testing.T) {
	br := newBlockingRunner(true)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: br.run})
	defer br.unblock()

	vRun, err := srv.Submit(Spec{Exhibit: "fig1", Trials: 1})
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	br.waitStart(t)
	vQ, err := srv.Submit(Spec{Exhibit: "fig1", Trials: 2})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	srv.Kill()

	// The queued flight settles synchronously inside Kill.
	jv, ok := srv.Job(vQ.ID)
	if !ok {
		t.Fatalf("queued job %s missing after Kill", vQ.ID)
	}
	if jv.State != "failed" || !strings.Contains(jv.Error, "replica killed") {
		t.Fatalf("queued job after Kill: state=%s error=%q, want failed/replica killed", jv.State, jv.Error)
	}
	// The running flight settles when its worker observes the canceled
	// context.
	if done := pollTerminal(t, ts, vRun.ID); done.State != "failed" {
		t.Fatalf("running job after Kill ended %s: %s", done.State, done.Error)
	}
	if !srv.Draining() {
		t.Fatal("killed server does not report draining")
	}
	if _, err := srv.Submit(Spec{Exhibit: "fig1", Trials: 3}); err == nil {
		t.Fatal("submit to a killed server succeeded")
	}
}

// TestSnapshotExportImportHandoff: a crashed server's checkpoint cells,
// exported and imported into a second server, let the second server
// resume the spec and produce the same bytes a direct run yields — the
// mesh failover invariant at the serve layer.
func TestSnapshotExportImportHandoff(t *testing.T) {
	spec := Spec{Exhibit: "fig4", Patterns: 2, Arrivals: 8}
	crashed := false
	srv1, ts1 := newTestServer(t, Config{
		Workers: 1,
		CrashHook: func() (int, bool) {
			if crashed {
				return 0, false
			}
			crashed = true
			return 1, true // crash the first execution after one cell
		},
	})
	v1, err := srv1.Submit(spec)
	if err != nil {
		t.Fatalf("submit on srv1: %v", err)
	}
	if done := pollTerminal(t, ts1, v1.ID); done.State != "failed" {
		t.Fatalf("crashed job ended %s, want failed", done.State)
	}

	handoff := srv1.ExportSnapshots()[spec.Key()]
	if len(handoff) == 0 {
		t.Fatalf("export after crash carried no cells for %s", spec.Key())
	}
	// The export is a deep copy: mutating it must not corrupt srv1's
	// snapshot.
	var cellIdx int
	for i := range handoff {
		cellIdx = i
		break
	}
	orig := handoff[cellIdx][0]
	handoff[cellIdx][0] = -12345
	if srv1.ExportSnapshots()[spec.Key()][cellIdx][0] == -12345 {
		t.Fatal("export shares cell slices with the live snapshot")
	}
	handoff[cellIdx][0] = orig

	srv2, ts2 := newTestServer(t, Config{Workers: 1})
	if n := srv2.ImportSnapshot(spec.Key(), handoff); n != len(handoff) {
		t.Fatalf("import recorded %d cells, want %d", n, len(handoff))
	}
	v2, err := srv2.Submit(spec)
	if err != nil {
		t.Fatalf("submit on srv2: %v", err)
	}
	if done := pollTerminal(t, ts2, v2.ID); done.State != "done" {
		t.Fatalf("resumed job ended %s: %s", done.State, done.Error)
	}
	if got := srv2.m.SnapshotResumes.Value(); got != 1 {
		t.Fatalf("srv2 snapshot resumes = %d, want 1 (handoff not picked up)", got)
	}
	if restored := srv2.m.SnapshotCellsRestored.Value(); restored != uint64(len(handoff)) {
		t.Fatalf("srv2 restored %d cells, want %d", restored, len(handoff))
	}

	direct, err := RunSpec(srv2.cfg.Experiments, spec)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	res, _, err := srv2.JobResult(v2.ID)
	if err != nil {
		t.Fatalf("result on srv2: %v", err)
	}
	if res.Digest != direct.Digest {
		t.Fatalf("resumed digest %s != direct digest %s", res.Digest, direct.Digest)
	}
}

// TestPoolCancelDrainStress: submit/cancel storms racing Drain must
// leave no queued flights, no non-terminal jobs, and no wedged workers.
// Run under -race this doubles as the pool's concurrency audit.
func TestPoolCancelDrainStress(t *testing.T) {
	fast := func(_ context.Context, _ experiments.Config, s Spec) (*Result, error) {
		return &Result{CSV: []byte(s.Canonical() + "\n"), Text: s.Canonical(), Digest: s.Key()}, nil
	}
	srv, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 8, StoreSize: 8192, Runner: fast})

	const goroutines, perG = 8, 200
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				v, err := srv.Submit(Spec{Exhibit: "fig1", Trials: rnd.Intn(64) + 1})
				if err != nil {
					continue // ErrSaturated/ErrDraining are expected under the storm
				}
				ids <- v.ID
				if rnd.Intn(2) == 0 {
					_, _ = srv.CancelJob(v.ID)
				}
			}
		}(g)
	}

	// Drain races the storm: submissions behind the drain get
	// ErrDraining, cancels keep walking the queue while drain closes
	// it.
	time.Sleep(time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain under storm: %v", err)
	}
	wg.Wait()
	close(ids)

	if q := srv.Queued(); q != 0 {
		t.Fatalf("%d flights still queued after drain", q)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("%d flights still inflight after drain", n)
	}
	for id := range ids {
		v, ok := srv.Job(id)
		if !ok {
			continue // evicted terminal job
		}
		switch v.State {
		case "done", "failed", "canceled":
		default:
			t.Fatalf("job %s stuck %s after drain", id, v.State)
		}
	}
}
