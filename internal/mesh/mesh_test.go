package mesh

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// goldenDigest looks up one pinned digest from the golden manifest.
func goldenDigest(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile("../../results/golden/manifest.txt")
	if err != nil {
		t.Fatalf("read golden manifest: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] == name {
			return fields[0]
		}
	}
	t.Fatalf("no golden digest for %q", name)
	return ""
}

// newTestMesh builds a coordinator and registers a bounded drain.
func newTestMesh(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("mesh.New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = c.Drain(ctx)
	})
	return c
}

// waitMeshDone polls the coordinator until id (following any forwards)
// reaches the done state. During a failover window the id may 404 or
// transiently read as failed on the dying replica — both resolve once
// the forward to the rerouted job lands, so the poll only gives up at
// the deadline.
func waitMeshDone(t *testing.T, c *Coordinator, id string, timeout time.Duration) serve.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last serve.JobView
	var seen bool
	for time.Now().Before(deadline) {
		view, ok := c.Job(id)
		if ok {
			last, seen = view, true
			if view.State == "done" {
				return view
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !seen {
		t.Fatalf("job %s never resolved before the deadline; mesh=%+v", id, c.MeshView())
	}
	t.Fatalf("job %s did not reach done: resolved=%s state=%s err=%q mesh=%+v", id, last.ID, last.State, last.Error, c.MeshView())
	return serve.JobView{}
}

// TestMeshByteIdenticalToSingleProcess: the tentpole invariant. Every
// registry exhibit, submitted to a 3-replica mesh, must yield exactly
// the digest and CSV bytes a lone serve.Server yields for the same
// spec.
func TestMeshByteIdenticalToSingleProcess(t *testing.T) {
	single, err := serve.New(serve.Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	c := newTestMesh(t, Config{Replicas: 3, Serve: serve.Config{Workers: 2, QueueDepth: 64}})

	type pair struct {
		spec             serve.Spec
		meshID, singleID string
	}
	var pairs []pair
	for _, ex := range experiments.Exhibits() {
		spec := serve.Spec{Exhibit: ex.Name, Trials: 2, Patterns: 2, Arrivals: 6}
		mv, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("mesh submit %s: %v", ex.Name, err)
		}
		sv, err := single.Submit(spec)
		if err != nil {
			t.Fatalf("single submit %s: %v", ex.Name, err)
		}
		pairs = append(pairs, pair{spec, mv.ID, sv.ID})
	}
	for _, p := range pairs {
		mView := waitMeshDone(t, c, p.meshID, 60*time.Second)
		deadline := time.Now().Add(60 * time.Second)
		sView, _ := single.Job(p.singleID)
		for sView.State != "done" && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			sView, _ = single.Job(p.singleID)
		}
		if sView.State != "done" {
			t.Fatalf("%s: single-process job stuck in %s", p.spec.Exhibit, sView.State)
		}
		if mView.Digest != sView.Digest {
			t.Fatalf("%s: mesh digest %s != single-process digest %s", p.spec.Exhibit, mView.Digest, sView.Digest)
		}
		mRes, _, err := c.JobResult(p.meshID)
		if err != nil {
			t.Fatalf("%s: mesh result: %v", p.spec.Exhibit, err)
		}
		sRes, _, err := single.JobResult(p.singleID)
		if err != nil {
			t.Fatalf("%s: single result: %v", p.spec.Exhibit, err)
		}
		if string(mRes.CSV) != string(sRes.CSV) {
			t.Fatalf("%s: mesh CSV bytes differ from single-process CSV", p.spec.Exhibit)
		}
	}
}

// TestMeshFailoverResumesGoldenFig5: kill the replica serving a spec
// after its first recorded cell. The monitor must detect the death, hand
// the checkpoint snapshot to a survivor, re-route the job, and the old
// job id must (via forwarding) finish with the oracle's bytes —
// byte-identity through a failover. Two inputs: the golden fig5 spec
// (grid and probe cells) and fig1 at its default 200 trials (sweep
// cells), whose oracle is results/fig1.csv.
func TestMeshFailoverResumesGoldenFig5(t *testing.T) {
	fig1, err := os.ReadFile("../../results/fig1.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec serve.Spec
		want string
	}{
		{"fig5", serve.Spec{Exhibit: "fig5", Patterns: 6}, goldenDigest(t, "fig5")},
		{"fig1", serve.Spec{Exhibit: "fig1"}, fmt.Sprintf("%x", sha256.Sum256(fig1))},
	} {
		t.Run(tc.name, func(t *testing.T) { failoverResumes(t, tc.spec, tc.want) })
	}
}

func failoverResumes(t *testing.T, spec serve.Spec, want string) {
	// The timeout must be generous: under the race detector a busy
	// runner can starve heartbeat tickers for well over 40ms, and a
	// spurious failover of a *survivor* would leave no replica to re-route
	// to. 3s keeps detection fast for the test while staying far above
	// scheduler jitter.
	c := newTestMesh(t, Config{
		Replicas:          3,
		Serve:             serve.Config{Workers: 1},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  3 * time.Second,
	})
	view, err := c.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	owner, ok := parseJobID(view.ID)
	if !ok || owner.gen != 0 {
		t.Fatalf("unparseable mesh job id %q", view.ID)
	}
	idx := owner.idx

	// Wait for the serving replica to checkpoint at least one cell, then
	// kill it mid-job. The poll is deliberately slack (10ms): under the
	// race detector a hot poll loop slows the runner itself.
	victim := c.replicas[idx].srv
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cells := victim.ExportSnapshots()[spec.Key()]; len(cells) >= 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("replica never recorded checkpoint cells")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.Kill(idx); err != nil {
		t.Fatalf("kill: %v", err)
	}

	final := waitMeshDone(t, c, view.ID, 180*time.Second)
	if final.Digest != want {
		t.Fatalf("post-failover digest %s != oracle %s", final.Digest, want)
	}
	if moved, ok := parseJobID(final.ID); !ok || moved.idx == idx {
		t.Fatalf("job finished on %q; expected a surviving replica, not %d", final.ID, idx)
	}

	mv := c.MeshView()
	if mv.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", mv.Failovers)
	}
	if mv.ReroutedJobs < 1 {
		t.Fatalf("rerouted jobs = %d, want >= 1", mv.ReroutedJobs)
	}
	if mv.HandoffCells < 1 {
		t.Fatalf("handoff cells = %d, want >= 1", mv.HandoffCells)
	}
	if c.Alive(idx) {
		t.Fatalf("replica %d still marked alive after failover", idx)
	}

	// Revive the dead slot: fresh generation, prewarmed, serving again.
	// The rerouted job has finished by now (success drops its snapshot),
	// so seed a survivor with a live snapshot to observe the prewarm.
	c.mu.RLock()
	var survivor *serve.Server
	for _, rep := range c.replicas {
		if rep.idx != idx && rep.alive.Load() {
			survivor = rep.srv
			break
		}
	}
	c.mu.RUnlock()
	seed := map[int][]float64{7: {1, 2, 3}}
	if n := survivor.ImportSnapshot("prewarm-seed", seed); n != 1 {
		t.Fatalf("seeding survivor snapshot recorded %d cells, want 1", n)
	}
	if err := c.Revive(idx); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if !c.Alive(idx) {
		t.Fatalf("replica %d not alive after revive", idx)
	}
	c.mu.RLock()
	revGen := c.replicas[idx].gen
	prewarmed := c.replicas[idx].srv.ExportSnapshots()["prewarm-seed"]
	c.mu.RUnlock()
	if revGen != 1 {
		t.Fatalf("revived generation = %d, want 1", revGen)
	}
	if len(prewarmed) != 1 {
		t.Fatalf("revived replica prewarm carried %d cells of the seeded snapshot, want 1", len(prewarmed))
	}
	// The old job id must keep resolving after the revival (the forward
	// points at a survivor, not the revived slot).
	if again, ok := c.Job(view.ID); !ok || again.State != "done" {
		t.Fatalf("old job id stopped resolving after revival: ok=%v state=%s", ok, again.State)
	}
}

// TestMeshAdmissionHTTP: an admission rejection surfaces as 429 with the
// policy's wait rounded up to whole seconds, so a client that obeys
// Retry-After is not refused again. A 0.4/s bucket with a burst of one
// makes the second submission wait 2.5 s: Retry-After 3, not 2.
func TestMeshAdmissionHTTP(t *testing.T) {
	for _, tc := range []struct {
		name       string
		policy     AdmissionPolicy
		admitted   int // submissions admitted before the refusal
		retryAfter string
	}{
		{"reject-all", RejectAll(), 0, "1"},
		{"token-bucket", TokenBucket(0.4, 1), 1, "3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestMesh(t, Config{Replicas: 2, Serve: serve.Config{Workers: 1}, Admission: tc.policy})
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()

			for i := 0; i <= tc.admitted; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"exhibit":"fig1","trials":2}`))
				if err != nil {
					t.Fatalf("POST: %v", err)
				}
				resp.Body.Close()
				if i < tc.admitted {
					if resp.StatusCode != http.StatusAccepted {
						t.Fatalf("submission %d: status = %d, want 202", i, resp.StatusCode)
					}
					continue
				}
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("status = %d, want 429", resp.StatusCode)
				}
				if ra := resp.Header.Get("Retry-After"); ra != tc.retryAfter {
					t.Fatalf("Retry-After = %q, want %q", ra, tc.retryAfter)
				}
			}
		})
	}
}

// TestMeshViewHTTP: GET /v1/mesh reports fleet membership and policy
// names over the wire.
func TestMeshViewHTTP(t *testing.T) {
	c := newTestMesh(t, Config{Replicas: 3, Serve: serve.Config{Workers: 1}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/mesh")
	if err != nil {
		t.Fatalf("GET /v1/mesh: %v", err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode mesh view: %v", err)
	}
	if v.Status != "ok" || len(v.Replicas) != 3 {
		t.Fatalf("mesh view = %+v, want ok status and 3 replicas", v)
	}
	if v.Routing != "affinity" || v.Admission != "always" {
		t.Fatalf("default policies = %s/%s, want affinity/always", v.Routing, v.Admission)
	}
	for _, rv := range v.Replicas {
		if !rv.Alive {
			t.Fatalf("replica %d reported dead in a fresh mesh", rv.Idx)
		}
	}
}

// TestMeshMetricsMerged: GET /metrics merges the coordinator's
// exaresil_mesh_* families with every replica's exaresil_serve_*
// families, each replica series tagged replica="<idx>", into one valid
// exposition: one # TYPE line per family, and every sample inside its own
// family's contiguous group.
func TestMeshMetricsMerged(t *testing.T) {
	c := newTestMesh(t, Config{Replicas: 2, Serve: serve.Config{Workers: 1}, Obs: obs.NewRegistry()})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	view, err := c.Submit(serve.Spec{Exhibit: "fig1", Trials: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitMeshDone(t, c, view.ID, 60*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics body: %v", err)
	}
	body := string(raw)
	for _, want := range []string{
		`exaresil_mesh_admission_total{outcome="admitted"} 1`,
		`exaresil_mesh_routed_total{replica="`,
		`exaresil_mesh_replica_up{replica="0"} 1`,
		`exaresil_serve_jobs_submitted_total{replica="`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("merged /metrics missing %q; got:\n%s", want, body)
		}
	}

	typed := map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(rest)[0]
			if typed[family] {
				t.Errorf("family %s has a second # TYPE line", family)
			}
			typed[family] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if name != family && name != family+"_bucket" && name != family+"_sum" && name != family+"_count" {
			t.Errorf("sample %q outside its family's group (inside %s)", line, family)
		}
	}
}

// TestMeshDrain: after Drain, submissions are refused and every
// replica reports draining.
func TestMeshDrain(t *testing.T) {
	c, err := New(Config{Replicas: 2, Serve: serve.Config{Workers: 1}})
	if err != nil {
		t.Fatalf("mesh.New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.Submit(serve.Spec{Exhibit: "fig1", Trials: 2}); err == nil {
		t.Fatal("submit after drain succeeded")
	}
	if mv := c.MeshView(); mv.Status != "draining" {
		t.Fatalf("mesh status = %s, want draining", mv.Status)
	}
}
