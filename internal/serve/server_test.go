package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
)

// newTestServer builds a server (registering a fresh obs registry when the
// config has none) and mounts it on an httptest listener. Cleanup drains
// with a bounded context so a wedged test fails instead of hanging.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return srv, ts
}

// postSpec submits one raw JSON spec and decodes the job view on success.
func postSpec(t *testing.T, ts *httptest.Server, body string) (int, JobView, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode job view from %s: %v", raw, err)
		}
	}
	return resp.StatusCode, v, resp.Header
}

// getJob polls one job view.
func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
	}
	return resp.StatusCode, v
}

// pollTerminal waits until the job reaches a terminal state.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, v := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d", id, code)
		}
		switch v.State {
		case "done", "failed", "canceled":
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobView{}
}

// cancelJob issues DELETE and returns the status code.
func cancelJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job %s: %v", id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// fetchResult downloads a done job's CSV bytes and digest header.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result %s: %v", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get("X-Exaresil-Digest")
}

// blockingRunner is a controllable stub Runner: it signals each start,
// blocks until released (or its context ends when obeyCtx is set), and
// counts executions.
type blockingRunner struct {
	calls   atomic.Int32
	started chan string
	release chan struct{}
	once    sync.Once
	obeyCtx bool
}

func newBlockingRunner(obeyCtx bool) *blockingRunner {
	return &blockingRunner{started: make(chan string, 64), release: make(chan struct{}), obeyCtx: obeyCtx}
}

func (b *blockingRunner) unblock() { b.once.Do(func() { close(b.release) }) }

func (b *blockingRunner) run(ctx context.Context, _ experiments.Config, s Spec) (*Result, error) {
	b.calls.Add(1)
	b.started <- s.Canonical()
	if b.obeyCtx {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.release:
		}
	} else {
		<-b.release
	}
	return &Result{
		CSV:    []byte(s.Canonical() + "\n"),
		Text:   s.Canonical(),
		Digest: s.Key(),
	}, nil
}

// waitStart blocks until the runner reports one execution start.
func (b *blockingRunner) waitStart(t *testing.T) string {
	t.Helper()
	select {
	case c := <-b.started:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("runner did not start in time")
		return ""
	}
}

// TestServeMatchesDirectRun: a spec executed through the HTTP service
// yields byte-identical CSV (and digest) to running the same spec directly
// against the experiments registry — the service adds orchestration, never
// different numbers.
func TestServeMatchesDirectRun(t *testing.T) {
	cfg := experiments.Default()
	_, ts := newTestServer(t, Config{Experiments: cfg, Workers: 2})
	for _, raw := range []string{
		`{"exhibit":"fig1","trials":2}`,
		`{"exhibit":"fig4","patterns":2,"arrivals":8}`,
	} {
		code, v, _ := postSpec(t, ts, raw)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", raw, code)
		}
		done := pollTerminal(t, ts, v.ID)
		if done.State != "done" {
			t.Fatalf("job for %s ended %s: %s", raw, done.State, done.Error)
		}
		rcode, csv, digestHdr := fetchResult(t, ts, v.ID)
		if rcode != http.StatusOK {
			t.Fatalf("result %s: HTTP %d", v.ID, rcode)
		}

		spec, err := ParseSpec(strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunSpec(cfg, spec)
		if err != nil {
			t.Fatalf("direct run of %s: %v", raw, err)
		}
		if !bytes.Equal(csv, want.CSV) {
			t.Errorf("spec %s: served CSV differs from direct run\nserved:\n%s\ndirect:\n%s", raw, csv, want.CSV)
		}
		if done.Digest != want.Digest || digestHdr != want.Digest {
			t.Errorf("spec %s: digests diverge: view=%s header=%s direct=%s", raw, done.Digest, digestHdr, want.Digest)
		}
	}
}

// TestSingleFlightDedup: identical specs submitted while one is in flight
// join that execution — the runner is invoked once, every job gets the
// result, and a post-completion submit is a cache hit.
func TestSingleFlightDedup(t *testing.T) {
	r := newBlockingRunner(false)
	defer r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Runner: r.run})

	const body = `{"exhibit":"fig1","trials":3}`
	code, first, _ := postSpec(t, ts, body)
	if code != http.StatusAccepted || first.Cache != CacheMiss {
		t.Fatalf("leader submit: HTTP %d cache %q, want 202 miss", code, first.Cache)
	}
	r.waitStart(t)

	ids := []string{first.ID}
	for i := 0; i < 4; i++ {
		code, v, _ := postSpec(t, ts, body)
		if code != http.StatusAccepted || v.Cache != CacheJoined {
			t.Fatalf("follower %d: HTTP %d cache %q, want 202 joined", i, code, v.Cache)
		}
		ids = append(ids, v.ID)
	}

	r.unblock()
	wantDigest := Spec{Exhibit: "fig1", Trials: 3}.Key()
	for _, id := range ids {
		v := pollTerminal(t, ts, id)
		if v.State != "done" || v.Digest != wantDigest {
			t.Fatalf("job %s: state %s digest %s (%s)", id, v.State, v.Digest, v.Error)
		}
	}
	if n := r.calls.Load(); n != 1 {
		t.Errorf("runner executed %d times for 5 identical jobs, want 1", n)
	}
	if n := srv.m.Executions.Value(); n != 1 {
		t.Errorf("executions counter = %d, want 1", n)
	}
	if n := srv.m.CacheJoined.Value(); n != 4 {
		t.Errorf("joined counter = %d, want 4", n)
	}

	code, hit, _ := postSpec(t, ts, body)
	if code != http.StatusOK || hit.Cache != CacheHit || hit.State != "done" {
		t.Fatalf("post-completion submit: HTTP %d cache %q state %q, want 200 hit done", code, hit.Cache, hit.State)
	}
	if hit.ElapsedMS != 0 {
		t.Errorf("cache hit reports elapsed %dms, want 0 (nothing ran)", hit.ElapsedMS)
	}
	if n := srv.m.CacheHits.Value(); n != 1 {
		t.Errorf("hit counter = %d, want 1", n)
	}
}

// TestSaturationReturns429: with one worker and one queue slot, a third
// distinct spec is rejected with 429 and a positive Retry-After — but an
// identical spec still joins in-flight work (dedup is exempt from
// backpressure).
func TestSaturationReturns429(t *testing.T) {
	r := newBlockingRunner(false)
	defer r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: r.run})

	codeA, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	if codeA != http.StatusAccepted {
		t.Fatalf("submit A: HTTP %d", codeA)
	}
	r.waitStart(t) // A occupies the worker; the queue slot is free
	codeB, b, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	if codeB != http.StatusAccepted {
		t.Fatalf("submit B: HTTP %d", codeB)
	}
	codeC, _, hdr := postSpec(t, ts, `{"exhibit":"fig3"}`)
	if codeC != http.StatusTooManyRequests {
		t.Fatalf("submit C into a full queue: HTTP %d, want 429", codeC)
	}
	retry, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", hdr.Get("Retry-After"))
	}
	if n := srv.m.QueueRejected.Value(); n != 1 {
		t.Errorf("rejection counter = %d, want 1", n)
	}

	codeJoin, join, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	if codeJoin != http.StatusAccepted || join.Cache != CacheJoined {
		t.Fatalf("identical spec under saturation: HTTP %d cache %q, want 202 joined", codeJoin, join.Cache)
	}

	r.unblock()
	for _, id := range []string{a.ID, b.ID, join.ID} {
		if v := pollTerminal(t, ts, id); v.State != "done" {
			t.Errorf("job %s ended %s after release", id, v.State)
		}
	}
}

// TestCancelQueuedJob: canceling the only subscriber of a queued flight
// aborts it — the worker never executes it — and a later identical spec is
// a fresh miss, not a join of dead work.
func TestCancelQueuedJob(t *testing.T) {
	r := newBlockingRunner(false)
	defer r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: r.run})

	_, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	r.waitStart(t)
	_, b, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)

	if code := cancelJob(t, ts, b.ID); code != http.StatusOK {
		t.Fatalf("cancel queued B: HTTP %d", code)
	}
	if v := pollTerminal(t, ts, b.ID); v.State != "canceled" {
		t.Fatalf("B state %s, want canceled", v.State)
	}
	if code := cancelJob(t, ts, b.ID); code != http.StatusConflict {
		t.Errorf("second cancel: HTTP %d, want 409", code)
	}
	if code := cancelJob(t, ts, "j99999999"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: HTTP %d, want 404", code)
	}

	r.unblock()
	if v := pollTerminal(t, ts, a.ID); v.State != "done" {
		t.Fatalf("A ended %s", v.State)
	}
	// Resubmit B's spec: the aborted flight must not be joinable.
	code, b2, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	if code != http.StatusAccepted || b2.Cache != CacheMiss {
		t.Fatalf("resubmit after abort: HTTP %d cache %q, want 202 miss", code, b2.Cache)
	}
	if v := pollTerminal(t, ts, b2.ID); v.State != "done" {
		t.Fatalf("B2 ended %s: %s", v.State, v.Error)
	}
	if n := r.calls.Load(); n != 2 {
		t.Errorf("runner executed %d times, want 2 (aborted flight skipped)", n)
	}
	if n := srv.m.JobsCanceled.Value(); n != 1 {
		t.Errorf("canceled counter = %d, want 1", n)
	}
}

// heldRunner wraps a context-obeying blockingRunner: once a run has seen
// its context end, it signals stopped and returns only after hold closes,
// so a test can look at the worker between the cancellation and the
// runner's return.
func heldRunner(r *blockingRunner) (run func(context.Context, experiments.Config, Spec) (*Result, error), stopped chan string, hold chan struct{}) {
	stopped, hold = make(chan string, 8), make(chan struct{})
	run = func(ctx context.Context, cfg experiments.Config, s Spec) (*Result, error) {
		res, err := r.run(ctx, cfg, s)
		if ctx.Err() != nil {
			stopped <- s.Exhibit
			<-hold
		}
		return res, err
	}
	return run, stopped, hold
}

// waitStopped blocks until a held runner reports that its context ended.
func waitStopped(t *testing.T, stopped chan string) string {
	t.Helper()
	select {
	case ex := <-stopped:
		return ex
	case <-time.After(10 * time.Second):
		t.Fatal("runner never saw its context end")
		return ""
	}
}

// requireNoStart fails if the runner starts another execution within a
// short window: the worker must still be busy with the stopped one.
func requireNoStart(t *testing.T, r *blockingRunner, srv *Server) {
	t.Helper()
	select {
	case c := <-r.started:
		t.Fatalf("worker started %s before the stopped runner returned", c)
	case <-time.After(50 * time.Millisecond):
	}
	if srv.Inflight() != 1 || srv.Queued() != 1 {
		t.Fatalf("inflight %d queued %d, want 1 and 1 while the runner is held", srv.Inflight(), srv.Queued())
	}
}

// TestCancelRunningJobWaitsForRunner: canceling the last subscriber of a
// running flight cancels its context and the job at once, but the
// worker takes its next flight only after the runner has returned, and
// the key is not cached.
func TestCancelRunningJobWaitsForRunner(t *testing.T) {
	r := newBlockingRunner(true) // returns ctx.Err() on cancellation
	defer r.unblock()
	run, stopped, hold := heldRunner(r)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: run})

	_, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	r.waitStart(t)
	_, b, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	if code := cancelJob(t, ts, a.ID); code != http.StatusOK {
		t.Fatalf("cancel running A: HTTP %d", code)
	}
	if v := pollTerminal(t, ts, a.ID); v.State != "canceled" {
		t.Fatalf("A state %s, want canceled", v.State)
	}
	waitStopped(t, stopped)
	requireNoStart(t, r, srv)
	close(hold)
	if c := r.waitStart(t); !strings.Contains(c, "fig2") {
		t.Fatalf("after the runner returned the worker started %s, want B", c)
	}

	// The canceled execution must not have been cached.
	code, a2, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	if code != http.StatusAccepted || a2.Cache != CacheMiss {
		t.Fatalf("resubmit after cancel: HTTP %d cache %q, want 202 miss", code, a2.Cache)
	}
	r.unblock()
	for _, id := range []string{b.ID, a2.ID} {
		if v := pollTerminal(t, ts, id); v.State != "done" {
			t.Fatalf("%s ended %s: %s", id, v.State, v.Error)
		}
	}
}

// TestJobTimeout: an execution exceeding JobTimeout fails its job with a
// timeout diagnostic once its runner has returned, and only then does
// the worker take its next flight.
func TestJobTimeout(t *testing.T) {
	r := newBlockingRunner(true)
	defer r.unblock()
	run, stopped, hold := heldRunner(r)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, JobTimeout: 25 * time.Millisecond, Runner: run})

	_, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	r.waitStart(t)
	_, b, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	waitStopped(t, stopped)
	if _, v := getJob(t, ts, a.ID); v.State != "running" {
		t.Fatalf("timed-out job is %s while its runner is held, want running", v.State)
	}
	requireNoStart(t, r, srv)
	close(hold)
	v := pollTerminal(t, ts, a.ID)
	if v.State != "failed" || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("timed-out job: state %s error %q, want failed with timeout", v.State, v.Error)
	}
	if c := r.waitStart(t); !strings.Contains(c, "fig2") {
		t.Fatalf("after the runner returned the worker started %s, want B", c)
	}
	if code, _, _ := fetchResult(t, ts, a.ID); code != http.StatusConflict {
		t.Errorf("result of failed job: HTTP %d, want 409", code)
	}
	pollTerminal(t, ts, b.ID)
}

// waitCounter polls a metric until it reaches want.
func waitCounter(t *testing.T, name string, read func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if read() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s counter stuck at %d, want %d", name, read(), want)
}

// TestDrainFinishesInflight: draining stops admission with 503 while every
// already-admitted job — running or queued — completes. Zero jobs dropped.
func TestDrainFinishesInflight(t *testing.T) {
	r := newBlockingRunner(false)
	defer r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4, Runner: r.run})

	_, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	_, b, _ := postSpec(t, ts, `{"exhibit":"fig2"}`)
	r.waitStart(t)
	r.waitStart(t)                                   // both workers busy
	_, c, _ := postSpec(t, ts, `{"exhibit":"fig3"}`) // queued behind one of them

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Admission flips to 503 once the drain begins.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, _ := postSpec(t, ts, `{"exhibit":"fig5"}`)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions were not refused during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}

	r.unblock()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if v := pollTerminal(t, ts, id); v.State != "done" {
			t.Errorf("job %s ended %s after drain, want done (no drops)", id, v.State)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthView
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz status %q after drain, want draining", h.Status)
	}
}

// TestMetricsEndpoint: /metrics exposes the serve-layer families in the
// Prometheus text format after traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	r := newBlockingRunner(false)
	r.unblock() // never block: instant results
	_, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})

	_, a, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	pollTerminal(t, ts, a.ID)
	postSpec(t, ts, `{"exhibit":"fig1"}`) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"exaresil_serve_jobs_submitted_total",
		`exaresil_serve_jobs_total{state="done"}`,
		"exaresil_serve_queue_depth",
		`exaresil_serve_cache_requests_total{outcome="hit"}`,
		"exaresil_serve_job_seconds_bucket",
		"exaresil_serve_http_requests_total",
		"exaresil_serve_http_request_seconds_bucket",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One queue: a single unlabeled depth series, and no
	// autoscale_blocked_total reason beyond bound and cooldown.
	var depth []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "exaresil_serve_queue_depth") {
			depth = append(depth, line)
		}
	}
	if len(depth) != 1 || depth[0] != "exaresil_serve_queue_depth 0" {
		t.Errorf("queue depth series = %q, want [\"exaresil_serve_queue_depth 0\"]", depth)
	}
	if strings.Contains(string(body), `reason="draining"`) {
		t.Error(`/metrics still exposes an autoscale_blocked_total{reason="draining"} series`)
	}
}

// TestExhibitsAndErrors: the discovery endpoint lists the registry, and the
// error paths return the contracted codes.
func TestExhibitsAndErrors(t *testing.T) {
	r := newBlockingRunner(false)
	r.unblock()
	_, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})

	resp, err := http.Get(ts.URL + "/v1/exhibits")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{"fig4", "table1", "ext-tau"} {
		if !strings.Contains(string(body), fmt.Sprintf("%q", name)) {
			t.Errorf("/v1/exhibits missing %s: %s", name, body)
		}
	}

	if code, _, _ := postSpec(t, ts, `{"exhibit":"nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad spec: HTTP %d, want 400", code)
	}
	if code, _ := getJob(t, ts, "j404"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}
	_, pending, _ := postSpec(t, ts, `{"exhibit":"fig1"}`)
	if code, _, _ := fetchResult(t, ts, "j404"); code != http.StatusNotFound {
		t.Errorf("result of unknown job: HTTP %d, want 404", code)
	}
	pollTerminal(t, ts, pending.ID)
}

// TestConcurrentLoad hammers the service from many clients with a small
// spec vocabulary: every accepted job must settle done with its spec's
// digest, and the runner must execute each distinct spec at most once
// per cache generation (here: exactly the vocabulary size).
func TestConcurrentLoad(t *testing.T) {
	var calls atomic.Int32
	runner := func(ctx context.Context, _ experiments.Config, s Spec) (*Result, error) {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return &Result{CSV: []byte(s.Canonical() + "\n"), Text: s.Canonical(), Digest: s.Key()}, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, CacheSize: 16, StoreSize: 256, Runner: runner})

	vocab := []string{
		`{"exhibit":"fig1"}`,
		`{"exhibit":"fig2"}`,
		`{"exhibit":"fig3"}`,
		`{"exhibit":"fig1","trials":7}`,
		`{"exhibit":"fig4","patterns":3}`,
		`{"exhibit":"table1","seed":9}`,
	}
	const clients = 32
	type submission struct {
		id     string
		digest string
	}
	results := make([]submission, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			body := vocab[rng.Intn(len(vocab))]
			spec, _ := ParseSpec(strings.NewReader(body))
			code, v, _ := postSpec(t, ts, body)
			if code == http.StatusOK || code == http.StatusAccepted {
				results[i] = submission{id: v.ID, digest: spec.Key()}
			}
		}(i)
	}
	wg.Wait()

	accepted := 0
	for _, r := range results {
		if r.id == "" {
			continue // rejected with 429 under this small queue: acceptable
		}
		accepted++
		v := pollTerminal(t, ts, r.id)
		if v.State != "done" {
			t.Errorf("job %s ended %s: %s", r.id, v.State, v.Error)
		} else if v.Digest != r.digest {
			t.Errorf("job %s digest %s, want %s", r.id, v.Digest, r.digest)
		}
	}
	if accepted == 0 {
		t.Fatal("no submissions were accepted")
	}
	if n := int(calls.Load()); n > len(vocab) {
		t.Errorf("runner executed %d times for %d distinct specs, want single-flight dedup", n, len(vocab))
	}
	if srv.m.Submitted.Value() != uint64(accepted) {
		t.Errorf("submitted counter = %d, want %d", srv.m.Submitted.Value(), accepted)
	}
}

// TestStoreEviction: terminal jobs age out once the store exceeds its
// bound, while the newest jobs stay reachable.
func TestStoreEviction(t *testing.T) {
	r := newBlockingRunner(false)
	r.unblock()
	srv, ts := newTestServer(t, Config{Workers: 1, StoreSize: 4, Runner: r.run})

	var last JobView
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"exhibit":"fig1","trials":%d}`, i+1)
		_, v, _ := postSpec(t, ts, body)
		last = pollTerminal(t, ts, v.ID)
	}
	if last.State != "done" {
		t.Fatalf("last job ended %s", last.State)
	}
	if n := srv.store.size(); n > 4 {
		t.Errorf("store retains %d jobs, want <= 4", n)
	}
	if code, _ := getJob(t, ts, last.ID); code != http.StatusOK {
		t.Errorf("newest job evicted: HTTP %d", code)
	}
	if srv.m.StoreEvicted.Value() == 0 {
		t.Error("eviction counter never moved")
	}
}
