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
	"sync"
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

// newTestMesh builds a coordinator and registers its drain. Unless the
// template sets a clock, the mesh runs on a virtual clock the test never
// advances: no heartbeat or monitor tick fires, and admission sees no
// time pass. The mesh tests wait on channels and clock steps, never on
// the wall clock; a wedged test is caught by go test's own -timeout.
func newTestMesh(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Serve.Clock == nil {
		cfg.Serve.Clock = serve.NewVirtualClock(time.Unix(0, 0).UTC())
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("mesh.New: %v", err)
	}
	t.Cleanup(func() { _ = c.Drain(context.Background()) })
	return c
}

// awaitJob waits on the done channel of the job id names on b — a lone
// server, or the mesh through its forwards — and returns its settled view.
func awaitJob(t *testing.T, b serve.Backend, id string) serve.JobView {
	t.Helper()
	srv, cur, ok := (*serve.Server)(nil), id, true
	switch b := b.(type) {
	case *serve.Server:
		srv = b
	case *Coordinator:
		cur, srv, ok = b.resolve(id)
	}
	var done <-chan struct{}
	if ok {
		done, ok = srv.JobDone(cur)
	}
	if !ok {
		t.Fatalf("job %s does not resolve", id)
	}
	<-done
	v, _ := b.Job(id)
	return v
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
	t.Cleanup(func() { _ = single.Drain(context.Background()) })
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
		mView := awaitJob(t, c, p.meshID)
		sView := awaitJob(t, single, p.singleID)
		if mView.State != "done" || sView.State != "done" {
			t.Fatalf("%s: mesh job %s (%s), single-process job %s (%s)", p.spec.Exhibit, mView.State, mView.Error, sView.State, sView.Error)
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
// after its first recorded cell, and step the mesh's clock past the
// heartbeat timeout. The monitor must detect the death, hand the
// checkpoint snapshot to a survivor, re-route the job, and the old job id
// must (via forwarding) finish with the oracle's bytes — byte-identity
// through a failover. Two inputs: the golden fig5 spec (grid and probe
// cells) and fig1 at its default 200 trials (sweep cells), whose oracle
// is results/fig1.csv.
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
	// The first cell any replica records parks its runner until the
	// replica dies, so the kill lands after exactly one checkpointed cell.
	recorded := make(chan struct{})
	var first sync.Once
	runner := func(ctx context.Context, cfg experiments.Config, s serve.Spec) (*serve.Result, error) {
		p, note := *cfg.Progress, cfg.Progress.OnCell
		p.OnCell = func(cell int, values []float64) {
			note(cell, values)
			first.Do(func() { close(recorded); <-ctx.Done() })
		}
		cfg.Progress = &p
		return serve.RunSpec(cfg, s)
	}
	clock := serve.NewVirtualClock(time.Unix(0, 0).UTC())
	const interval, timeout = 25 * time.Millisecond, 3 * time.Second
	c := newTestMesh(t, Config{
		Replicas:          3,
		Serve:             serve.Config{Workers: 1, Runner: runner, Clock: clock},
		HeartbeatInterval: interval,
		HeartbeatTimeout:  timeout,
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

	// Kill the serving replica once it has checkpointed a cell. Its beats
	// stop; one monitor period short of the timeout it is still alive, and
	// the step past the timeout fails it over.
	<-recorded
	if err := c.Kill(idx); err != nil {
		t.Fatalf("kill: %v", err)
	}
	clock.Advance(timeout)
	if !c.Alive(idx) {
		t.Fatalf("replica %d failed over before its beats were %s stale", idx, timeout)
	}
	clock.Advance(interval)

	final := awaitJob(t, c, view.ID)
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
	awaitJob(t, c, view.ID)

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
	if err := c.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := c.Submit(serve.Spec{Exhibit: "fig1", Trials: 2}); err == nil {
		t.Fatal("submit after drain succeeded")
	}
	if mv := c.MeshView(); mv.Status != "draining" {
		t.Fatalf("mesh status = %s, want draining", mv.Status)
	}
}
