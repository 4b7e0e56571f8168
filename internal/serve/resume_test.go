package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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
// way out when its caller returns, so the check yields the processor up
// to a thousand times for such exits: an orphaned sweep keeps computing
// through all of them.
func requireNoSimGoroutines(t *testing.T, when string) {
	t.Helper()
	gs := simGoroutines()
	for i := 0; len(gs) > 0 && i < 1000; i, gs = i+1, simGoroutines() {
		runtime.Gosched()
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
			srv, _ := newTestServer(t, Config{
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
			if v := awaitJob(t, srv, first.ID); v.State != "failed" || !strings.Contains(v.Error, "injected worker crash") {
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
			done := awaitJob(t, srv, second.ID)
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

// observedRunner is the registry runner with three signals: started once
// the execution begins (its timeout, if any, armed), firstCell when it
// records its first cell, and returned once it has returned.
func observedRunner() (run func(context.Context, experiments.Config, Spec) (*Result, error), started, firstCell, returned chan struct{}) {
	started, firstCell, returned = make(chan struct{}, 8), make(chan struct{}, 8), make(chan struct{}, 8)
	run = func(_ context.Context, cfg experiments.Config, s Spec) (*Result, error) {
		defer func() { returned <- struct{}{} }()
		started <- struct{}{}
		p, note := *cfg.Progress, cfg.Progress.OnCell
		var once sync.Once
		p.OnCell = func(cell int, values []float64) {
			note(cell, values)
			once.Do(func() { firstCell <- struct{}{} })
		}
		cfg.Progress = &p
		return RunSpec(cfg, s)
	}
	return run, started, firstCell, returned
}

// TestSweepStopsOnTimeoutAndCancel: a sweep stops within one cell of its
// job's timeout or DELETE. Four ext-tau jobs at 400 trials on one worker,
// each stepped past a 50 ms timeout once it starts, all fail, and once
// they have, no simulation is left running; a DELETE'd job's simulation
// is gone once its runner has returned.
func TestSweepStopsOnTimeoutAndCancel(t *testing.T) {
	run, started, firstCell, returned := observedRunner()
	clk := virtualClock()
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 8, JobTimeout: 50 * time.Millisecond, Runner: run, Clock: clk})
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		v, err := srv.Submit(Spec{Exhibit: "ext-tau", Trials: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		<-started
		clk.Advance(50 * time.Millisecond)
		if v := awaitJob(t, srv, id); v.State != "failed" || !strings.Contains(v.Error, "timeout") {
			t.Fatalf("job %s ended %s (%q), want failed by timeout", id, v.State, v.Error)
		}
	}
	requireNoSimGoroutines(t, "after four timed-out jobs settled")

	run, _, firstCell, returned = observedRunner()
	srv, ts := newTestServer(t, Config{Workers: 1, Runner: run})
	spec := Spec{Exhibit: "ext-tau", Trials: 400, Seed: 5}
	v, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-firstCell
	if code := cancelJob(t, ts, v.ID); code != http.StatusOK {
		t.Fatalf("DELETE: HTTP %d", code)
	}
	<-returned
	requireNoSimGoroutines(t, "after the canceled job's runner returned")
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
