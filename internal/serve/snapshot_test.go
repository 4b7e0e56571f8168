package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"exaresil/internal/experiments"
)

// TestSnapshotStoreLifecycle pins the checkpoint store's unit semantics:
// resume handoff, success drop, failure settle, and bounded eviction.
func TestSnapshotStoreLifecycle(t *testing.T) {
	ss := newSnapStore(2, NewMetrics(nil))

	sn, restored := ss.open("a")
	if restored != 0 {
		t.Fatalf("fresh open restored %d cells", restored)
	}
	sn.note(0, []float64{1, 2})
	sn.note(1, []float64{3, 4})
	sn.note(0, []float64{9, 9}) // first write wins
	ss.settle("a")              // failed run with progress: snapshot survives

	sn2, restored := ss.open("a")
	if restored != 2 || sn2 != sn {
		t.Fatalf("reopen restored %d cells (same snapshot: %v), want 2 from the original", restored, sn2 == sn)
	}
	got := sn2.completed()
	if v := got[0]; len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Fatalf("cell 0 = %v, want the first write [1 2]", v)
	}
	ss.drop("a") // success: the result cache owns the spec now
	if ss.size() != 0 {
		t.Fatalf("store holds %d snapshots after drop", ss.size())
	}

	// An execution that checkpointed nothing leaves nothing behind.
	ss.open("empty")
	ss.settle("empty")
	if ss.size() != 0 {
		t.Fatalf("empty snapshot survived settle: %d retained", ss.size())
	}

	// Capacity 2: a third open evicts the oldest, sparing the newcomer.
	s1, _ := ss.open("k1")
	s1.note(0, []float64{1})
	ss.settle("k1")
	s2, _ := ss.open("k2")
	s2.note(0, []float64{2})
	ss.settle("k2")
	ss.open("k3")
	if ss.size() != 2 {
		t.Fatalf("store holds %d snapshots, want cap 2", ss.size())
	}
	if _, restored := ss.open("k2"); restored != 1 {
		t.Fatal("young snapshot k2 was evicted instead of the oldest")
	}
}

// goldenDigest reads one exhibit's pinned digest from the golden
// manifest, so the resume test asserts against the same truth
// `exacheck golden` enforces.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("../../results/golden/manifest.txt")
	if err != nil {
		t.Fatalf("read golden manifest: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] == name {
			return fields[0]
		}
	}
	t.Fatalf("golden manifest has no %q entry", name)
	return ""
}

// TestCrashedJobResumesFromSnapshot is the end-to-end checkpoint/restart
// proof on the real runner: an injected worker crash fails a golden-size
// fig4 job partway through its grid, the resubmitted spec resumes from
// the snapshot instead of starting over, and the resumed result is
// byte-identical to an uninterrupted run — digest equal to the golden
// manifest's pin.
func TestCrashedJobResumesFromSnapshot(t *testing.T) {
	var crashes atomic.Int32
	srv, ts := newTestServer(t, Config{
		Workers: 1,
		CrashHook: func() (int, bool) {
			if crashes.Add(1) == 1 {
				return 3, true // die after 3 fresh cells, first execution only
			}
			return 0, false
		},
	})

	const body = `{"exhibit":"fig4","patterns":6}` // the golden fig4 spec
	code, first, _ := postSpec(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	crashed := awaitJob(t, srv, first.ID)
	if crashed.State != "failed" || !strings.Contains(crashed.Error, "injected worker crash") {
		t.Fatalf("first attempt ended %s (%q), want failed by injected crash", crashed.State, crashed.Error)
	}
	if srv.snaps.size() != 1 {
		t.Fatalf("%d snapshots retained after the crash, want 1", srv.snaps.size())
	}
	if n := srv.m.CrashesInjected.Value(); n != 1 {
		t.Fatalf("crashes injected = %d, want 1", n)
	}

	code, second, _ := postSpec(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: HTTP %d", code)
	}
	done := awaitJob(t, srv, second.ID)
	if done.State != "done" {
		t.Fatalf("resumed attempt ended %s: %s", done.State, done.Error)
	}
	rcode, csv, _ := fetchResult(t, ts, second.ID)
	if rcode != http.StatusOK {
		t.Fatalf("result: HTTP %d", rcode)
	}

	// The resumed run really resumed: cells were restored, and the two
	// attempts together computed each of the 6 grid cells (one per
	// pattern) at most once.
	if srv.m.SnapshotResumes.Value() != 1 {
		t.Fatalf("snapshot resumes = %d, want 1", srv.m.SnapshotResumes.Value())
	}
	restored := srv.m.SnapshotCellsRestored.Value()
	recorded := srv.m.SnapshotCellsRecorded.Value()
	if restored == 0 {
		t.Fatal("resume restored no cells")
	}
	if recorded >= 2*6 {
		t.Fatalf("recorded %d cells across both attempts — the resume recomputed everything", recorded)
	}
	if recorded < 6 {
		t.Fatalf("recorded only %d cells; the grid has 6", recorded)
	}
	if srv.snaps.size() != 0 {
		t.Fatalf("%d snapshots retained after success, want 0", srv.snaps.size())
	}

	// Bit-identical resume: digest matches the golden pin and the CSV
	// matches a direct, uninterrupted run of the same spec.
	if want := goldenDigest(t, "fig4"); done.Digest != want {
		t.Fatalf("resumed digest %s != golden manifest pin %s", done.Digest, want)
	}
	direct, err := RunSpec(experiments.Default(), Spec{Exhibit: "fig4", Patterns: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv, direct.CSV) {
		t.Fatal("resumed CSV differs from an uninterrupted direct run")
	}
	if fmt.Sprintf("%x", sha256.Sum256(csv)) != done.Digest {
		t.Fatal("served CSV does not hash to the advertised digest")
	}
}

// TestCancelQueuedJobFreesAdmissionSlot is the regression test for the
// queued-cancel leak: DELETE on a job that is still waiting in the
// queue must release its admission slot immediately — a follow-up
// submission fits without waiting for a worker to reach and skip the
// corpse.
func TestCancelQueuedJobFreesAdmissionSlot(t *testing.T) {
	r := newBlockingRunner(false)
	defer r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: r.run})

	// A occupies the sole worker; B occupies the sole queue slot.
	code, _, _ := postSpec(t, ts, `{"exhibit":"fig1","trials":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", code)
	}
	r.waitStart()
	code, b, _ := postSpec(t, ts, `{"exhibit":"fig1","trials":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", code)
	}

	// The queue is full: C bounces with 429.
	code, _, hdr := postSpec(t, ts, `{"exhibit":"fig1","trials":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit C on a full queue: HTTP %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}

	// Canceling queued B must free the slot right away: C now fits.
	if code := cancelJob(t, ts, b.ID); code != http.StatusOK {
		t.Fatalf("cancel B: HTTP %d", code)
	}
	code, c, _ := postSpec(t, ts, `{"exhibit":"fig1","trials":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit C after canceling queued B: HTTP %d, want 202 (slot leaked)", code)
	}

	r.unblock()
	if v := awaitJob(t, srv, c.ID); v.State != "done" {
		t.Fatalf("C ended %s: %s", v.State, v.Error)
	}
	// B stays canceled; its flight never ran.
	if _, v := getJob(t, ts, b.ID); v.State != "canceled" {
		t.Fatalf("B is %s, want canceled", v.State)
	}
	if got := r.calls.Load(); got != 2 {
		t.Fatalf("runner executed %d specs, want 2 (canceled B must not run)", got)
	}
}
