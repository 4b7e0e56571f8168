package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"exaresil/internal/serve"
)

func mustPlan(t *testing.T, seed uint64) plan {
	t.Helper()
	p, err := zipfPlan(seed, 3*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func planBytes(t *testing.T, p plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPlanIsAFunctionOfTheSeed: the same seed yields a byte-identical
// schedule, another seed a different one, and no two vocabulary entries
// share a spec seed.
func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a := planBytes(t, mustPlan(t, 7))
	b := planBytes(t, mustPlan(t, 7))
	c := planBytes(t, mustPlan(t, 8))
	if !bytes.Equal(a, b) {
		t.Error("same seed, different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same schedule")
	}
	p := mustPlan(t, 7)
	seen := map[uint64]bool{}
	for _, s := range p.Warm {
		if s.Seed == 0 || seen[s.Seed] {
			t.Fatalf("vocabulary reuses or zeroes seed %d", s.Seed)
		}
		seen[s.Seed] = true
	}
	if n, want := float64(len(p.Open)), 3*zipfRate; n < 0.7*want || n > 1.3*want {
		t.Errorf("3s at %v/s gave %v arrivals", zipfRate, n)
	}
}

// fakeTarget serves the job API for one fixed result. Every submit is
// held until gate closes, and a job reports running for pollsNeeded
// polls before it is done.
type fakeTarget struct {
	gate        chan struct{}
	pollsNeeded int

	mu        sync.Mutex
	polls     map[string]int
	open, max int
}

const fakeCSV = "a,b\n1,2\n"

func (f *fakeTarget) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sum := sha256.Sum256([]byte(fakeCSV))
	view := serve.JobView{State: "done", Digest: hex.EncodeToString(sum[:]), SubmittedAt: time.Now()}
	switch {
	case r.Method == http.MethodPost:
		<-f.gate
		f.mu.Lock()
		view.ID = fmt.Sprintf("j%d", len(f.polls))
		f.polls[view.ID] = 0
		f.mu.Unlock()
		if f.pollsNeeded > 0 {
			view.State = "running"
		}
	case strings.HasSuffix(r.URL.Path, "/result"):
		w.Header().Set("X-Exaresil-Digest", view.Digest)
		_, _ = w.Write([]byte(fakeCSV))
		return
	default:
		view.ID = strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		f.mu.Lock()
		f.polls[view.ID]++
		if f.polls[view.ID] < f.pollsNeeded {
			view.State = "running"
		}
		f.mu.Unlock()
	}
	_ = json.NewEncoder(w).Encode(view)
}

// connState tracks how many connections are open at once.
func (f *fakeTarget) connState(_ net.Conn, s http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch s {
	case http.StateNew:
		f.open++
		f.max = max(f.max, f.open)
	case http.StateClosed, http.StateHijacked:
		f.open--
	}
}

func newFake(t *testing.T, pollsNeeded int) (*fakeTarget, *httptest.Server) {
	f := &fakeTarget{gate: make(chan struct{}), pollsNeeded: pollsNeeded, polls: map[string]int{}}
	srv := httptest.NewUnstartedServer(f)
	srv.Config.ConnState = f.connState
	srv.Start()
	t.Cleanup(srv.Close)
	return f, srv
}

// TestOpenLoopTimesFromDue: while the target stalls, the generator keeps
// its schedule, and every request due during the stall carries the stall
// in its latency. The client never opens more than its connection cap.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const conns = 2
	f, srv := newFake(t, 0)
	c := newClient(srv.URL, conns, pollEvery, nil)
	defer c.close()
	var arrivals []arrival
	for i := 0; i < 30; i++ {
		arrivals = append(arrivals, arrival{At: time.Duration(i) * 10 * time.Millisecond, Spec: serve.Spec{Exhibit: "fig1"}})
	}
	const stall = 150 * time.Millisecond
	start := time.Now().Add(startLead)
	var released time.Time
	timer := time.AfterFunc(time.Until(start.Add(stall)), func() {
		f.mu.Lock()
		released = time.Now()
		f.mu.Unlock()
		close(f.gate)
	})
	defer timer.Stop()
	jobs := openLoop(c, start, arrivals)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range jobs {
		if j.Err != nil {
			t.Fatal(j.Err)
		}
		if lag := j.Issued.Sub(j.Due); lag > 50*time.Millisecond {
			t.Errorf("arrival due at %v issued %v late: the generator waited on the target", j.Due.Sub(start), lag)
		}
		if j.Due.Before(released) && j.End.Before(released) {
			t.Errorf("job due at %v finished before the stall ended", j.Due.Sub(start))
		}
		if j.Due.Before(released) && j.latency() < released.Sub(j.Due) {
			t.Errorf("job due at %v: latency %v hides the stall (released %v after due)",
				j.Due.Sub(start), j.latency(), released.Sub(j.Due))
		}
	}
	if f.max > conns {
		t.Errorf("client opened %d connections at once, cap %d", f.max, conns)
	}
}

// TestPollIntervalBoundsNotifyLag: a job that needs k polls takes at least
// k poll intervals, and its polls are counted.
func TestPollIntervalBoundsNotifyLag(t *testing.T) {
	const k = 4
	f, srv := newFake(t, k)
	close(f.gate)
	c := newClient(srv.URL, 1, pollEvery, nil)
	defer c.close()
	j := c.run(serve.Spec{Exhibit: "fig1"}, time.Now())
	if j.Err != nil {
		t.Fatal(j.Err)
	}
	if j.Polls != k {
		t.Errorf("polls = %d, want %d", j.Polls, k)
	}
	if j.latency() < k*pollEvery {
		t.Errorf("latency %v below %d poll intervals of %v", j.latency(), k, pollEvery)
	}
}

func TestTailQuantile(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
	}{{5, 5, 0}, {15, 5, 10}, {500, 490, 10}, {1000, 990, 10}, {2000, 1980, 20}} {
		if _, v := tailQuantile(mk(tc.n)); v != tc.want || tc.n-int(v) != tc.beyond {
			t.Errorf("n=%d: tail value %v, want %v with %d beyond", tc.n, v, tc.want, tc.beyond)
		}
	}
}
