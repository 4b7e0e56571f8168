package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"exaresil/internal/experiments"
)

// simGoroutines lists the goroutines with a frame in the simulation
// packages: a runner still computing after its job settled.
func simGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, pkg := range []string{"experiments", "selection", "appsim"} {
			if strings.Contains(g, "exaresil/internal/"+pkg+".") {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// requireNoSimGoroutines fails when a simulation goroutine remains. A
// trial worker that has just called WaitGroup.Done may still be on its
// way out when its caller returns, so the check allows 250 ms for exits:
// far less than the seconds an orphaned sweep keeps computing.
func requireNoSimGoroutines(t *testing.T, when string) {
	t.Helper()
	gs := simGoroutines()
	for deadline := time.Now().Add(250 * time.Millisecond); len(gs) > 0 && time.Now().Before(deadline); gs = simGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if len(gs) > 0 {
		t.Fatalf("%s: %d simulation goroutines still running, first:\n%s", when, len(gs), gs[0])
	}
}

// TestEveryExhibitResumesAfterCrash is the cell contract on the registry
// runner: for every simulating exhibit, a crash after one cell fails the
// job with exactly that cell recorded, leaves no simulation running, and
// the resubmitted spec resumes from the cell and returns the bytes of a
// direct run.
func TestEveryExhibitResumesAfterCrash(t *testing.T) {
	closedForm := map[string]bool{"table1": true, "table2": true, "ext-whatif": true}
	for _, name := range experiments.Names() {
		if closedForm[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			var crashes atomic.Int32
			srv, ts := newTestServer(t, Config{
				Workers: 1,
				CrashHook: func() (int, bool) {
					return 1, crashes.Add(1) == 1 // the first execution only
				},
			})
			spec := Spec{Exhibit: name, Trials: 2, Patterns: 2, Arrivals: 6}
			first, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if v := pollTerminal(t, ts, first.ID); v.State != "failed" || !strings.Contains(v.Error, "injected worker crash") {
				t.Fatalf("first attempt ended %s (%q), want failed by the injected crash", v.State, v.Error)
			}
			requireNoSimGoroutines(t, "after the crashed job settled")
			if n := len(srv.ExportSnapshots()[spec.Key()]); n != 1 {
				t.Fatalf("crash left %d cells in the snapshot, want exactly 1", n)
			}

			second, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			done := pollTerminal(t, ts, second.ID)
			if done.State != "done" {
				t.Fatalf("resumed attempt ended %s: %s", done.State, done.Error)
			}
			if srv.m.SnapshotCellsRestored.Value() == 0 {
				t.Fatal("the resubmission restored no cells")
			}
			if total := srv.m.SnapshotCellsRecorded.Value(); total <= 1 {
				t.Fatalf("the exhibit has %d cells; one crash cell must be fewer", total)
			}
			direct, err := RunSpec(experiments.Default(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if done.Digest != direct.Digest {
				t.Fatalf("resumed digest %s != direct run %s", done.Digest, direct.Digest)
			}
		})
	}
}

// TestSweepStopsOnTimeoutAndCancel: a sweep stops within one cell of its
// job's timeout or DELETE. Four ext-tau jobs at 400 trials on one worker
// with a 50 ms timeout all fail, and once they have, no simulation is
// left running; a DELETE'd job's simulation is gone once the worker is
// idle again.
func TestSweepStopsOnTimeoutAndCancel(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, JobTimeout: 50 * time.Millisecond})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		v, err := srv.Submit(Spec{Exhibit: "ext-tau", Trials: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := pollTerminal(t, ts, id); v.State != "failed" || !strings.Contains(v.Error, "timeout") {
			t.Fatalf("job %s ended %s (%q), want failed by timeout", id, v.State, v.Error)
		}
	}
	requireNoSimGoroutines(t, "after four timed-out jobs settled")

	srv, ts = newTestServer(t, Config{Workers: 1})
	spec := Spec{Exhibit: "ext-tau", Trials: 400, Seed: 5}
	v, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); len(srv.ExportSnapshots()[spec.Key()]) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never recorded a cell")
		}
	}
	if code := cancelJob(t, ts, v.ID); code != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	for deadline := time.Now().Add(30 * time.Second); srv.Inflight() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the canceled sweep never returned")
		}
	}
	requireNoSimGoroutines(t, "after the canceled job's worker went idle")
	if n := len(srv.ExportSnapshots()[spec.Key()]); n == 0 || n >= 15 {
		t.Fatalf("the canceled sweep left %d of its 15 cells, want a strict subset", n)
	}
}

// TestBareSpecMatchesResults: a bare {"exhibit": name} runs the scale
// results/ was generated with, so it serves results/<name>.csv byte for
// byte (the sub-second extensions).
func TestBareSpecMatchesResults(t *testing.T) {
	for _, name := range []string{"ext-energy", "ext-mtbf", "ext-weibull", "ext-tau",
		"ext-semiblocking", "ext-machines", "ext-selectors", "policy"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSpec(experiments.Default(), Spec{Exhibit: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(res.CSV, want) {
			t.Errorf("%s: bare spec differs from results/%s.csv", name, name)
		}
	}
}

// ExampleSpec_Canonical shows that a spelled-out default and an unread
// field key like the bare spec.
func ExampleSpec_Canonical() {
	for _, s := range []Spec{{Exhibit: "fig1"}, {Exhibit: "fig1", Trials: 200}, {Exhibit: "fig1", Patterns: 6}} {
		fmt.Println(s.Canonical())
	}
	// Output:
	// exhibit=fig1&trials=0&patterns=0&arrivals=0&seed=0
	// exhibit=fig1&trials=0&patterns=0&arrivals=0&seed=0
	// exhibit=fig1&trials=0&patterns=0&arrivals=0&seed=0
}
