package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"exaresil/internal/load"
)

// TestListenAddr: the harness takes the bound address from exaserve's
// listening line once the line is whole, and from no other line.
func TestListenAddr(t *testing.T) {
	for line, want := range map[string]string{
		"2026/10/17 15:41:23 exaserve: listening on http://127.0.0.1:39113 (2 workers, 4 queue slots)": "127.0.0.1:39113",
		"exaserve: listening on http://[::1]:8080 (1 workers, 2 queue slots)":                          "[::1]:8080",
		"exaserve: mesh of 3 replicas (affinity routing, always admission)":                            "",
		"exaserve: listening on http://127.0.0.1:3":                                                    "",
	} {
		if got, ok := listenAddr(line); ok != (want != "") || ok && got != want {
			t.Errorf("listenAddr(%q) = %q, %v; want %q", line, got, ok, want)
		}
	}
}

// passingMetrics is a final scrape every scenario accepts.
const passingMetrics = `# TYPE exaresil_serve_jobs_total counter
exaresil_serve_jobs_total{state="done"} 24
exaresil_serve_jobs_total{state="failed"} 0
exaresil_serve_cache_requests_total{outcome="hit"} 12
exaresil_serve_queue_depth 0
exaresil_serve_job_seconds_bucket{le="+Inf"} 12
exaresil_serve_http_requests_total{route="submit",code="202"} 24
exaresil_chaos_injected_total{fault="latency"} 3
exaresil_serve_snapshots 0
exaresil_serve_snapshot_cells_total{event="recorded"} 9
exaresil_serve_snapshot_resumes_total 0
exaresil_mesh_failovers_total 2
exaresil_mesh_revivals_total 2
exaresil_mesh_routed_total{replica="0"} 8
exaresil_mesh_replica_up{replica="0"} 1
exaresil_serve_autoscale_decisions_total{direction="up"} 3
exaresil_serve_autoscale_decisions_total{direction="down"} 3
`

// passing builds an observation every scenario's check accepts, with
// one metrics line rewritten from old to new.
func passing(t *testing.T, old, new string) observed {
	t.Helper()
	m, err := load.ReadMetrics(strings.NewReader(strings.Replace(passingMetrics, old, new, 1)))
	if err != nil {
		t.Fatal(err)
	}
	fig4, sweep := []byte("x,y\n1,2\n"), "Saturation sweep\nknee at 8 req/s\n"
	return observed{metrics: m,
		served: fig4, golden: fig4, pinned: fmt.Sprintf("%x", sha256.Sum256(fig4)), resubmit: "hit",
		soak: soakTally{ok: 24}, failovers: [2]uint64{1, 3},
		sweeps: [2]string{sweep, sweep}, trace: "{\"format\":1}\n{\"at\":0}\n", recorded: `{"outcome":"ok"}`,
		report: "Saturation sweep\nno knee found\n", csv: "rate_rps,ok\n2,3\n15,50\n30,56\n",
		autoscale: true, workers: [3]uint64{1, 4, 1}}
}

// TestScenarioChecks: every scenario accepts the passing observation and
// rejects each of its failing variants.
func TestScenarioChecks(t *testing.T) {
	byName := map[string]scenario{}
	for _, s := range scenarios {
		byName[s.name] = s
		o := passing(t, "", "")
		if err := s.check(&o); err != nil {
			t.Errorf("%s rejects the passing observation: %v", s.name, err)
		}
	}
	const failedJob = `exaresil_serve_jobs_total{state="failed"} 1`
	cases := []struct {
		scenario, why string
		old, new      string // metrics line rewrite
		mutate        func(*observed)
	}{
		{"serve", "digest off the manifest", "", "", func(o *observed) { o.pinned = "00" }},
		{"serve", "bytes off the golden file", "", "", func(o *observed) { o.golden = []byte("x,y\n") }},
		{"serve", "resubmission missed the cache", "", "", func(o *observed) { o.resubmit = "miss" }},
		{"serve", "no job histogram", "exaresil_serve_job_seconds_bucket", "exaresil_serve_job_seconds_count", nil},
		{"chaos", "a wrong digest", "", "", func(o *observed) { o.soak.wrong = 1 }},
		{"chaos", "an unrecovered request", "", "", func(o *observed) { o.soak.failed = 1 }},
		{"chaos", "no fault injected", `{fault="latency"} 3`, `{fault="latency"} 0`, nil},
		{"chaos", "a failed job without a resume", `exaresil_serve_jobs_total{state="failed"} 0`, failedJob, nil},
		{"chaos", "no snapshot gauge", "exaresil_serve_snapshots 0", "", nil},
		{"mesh", "no failover before the soak", "", "", func(o *observed) { o.failovers[0] = 0 }},
		{"mesh", "a wrong digest", "", "", func(o *observed) { o.soak.wrong = 1 }},
		{"mesh", "zero failovers in the view", "", "", func(o *observed) { o.failovers[1] = 0 }},
		{"mesh", "zero failovers in the metrics", "exaresil_mesh_failovers_total 2", "exaresil_mesh_failovers_total 0", nil},
		{"mesh", "no liveness gauge", "exaresil_mesh_replica_up", "exaresil_mesh_replica_down", nil},
		{"load", "sweeps differ", "", "", func(o *observed) { o.sweeps[1] += " " }},
		{"load", "no in-process knee", "", "", func(o *observed) { o.sweeps = [2]string{"", ""} }},
		{"load", "header-only trace", "", "", func(o *observed) { o.trace = "{\"format\":1}\n" }},
		{"load", "no ok outcome recorded", "", "", func(o *observed) { o.recorded = `{"outcome":"error"}` }},
		{"load", "no knee verdict", "", "", func(o *observed) { o.report = "Saturation sweep\n" }},
		{"load", "CSV without header", "", "", func(o *observed) { o.csv = "2,3\n15,50\n30,56\n" }},
		{"load", "two CSV rows", "", "", func(o *observed) { o.csv = "rate_rps,ok\n2,3\n15,50\n" }},
		{"autoscale", "a failed job", `exaresil_serve_jobs_total{state="failed"} 0`, failedJob, nil},
		{"autoscale", "no autoscaler on /healthz", "", "", func(o *observed) { o.autoscale = false }},
		{"autoscale", "started above the floor", "", "", func(o *observed) { o.workers[0] = 2 }},
		{"autoscale", "never grew", "", "", func(o *observed) { o.workers[1] = 1 }},
		{"autoscale", "stuck above the floor", "", "", func(o *observed) { o.workers[2] = 2 }},
		{"autoscale", "never scaled down", `{direction="down"} 3`, `{direction="down"} 0`, nil},
		{"autoscale", "no job done", `{state="done"} 24`, `{state="done"} 0`, nil},
	}
	for _, tc := range cases {
		o := passing(t, tc.old, tc.new)
		if tc.mutate != nil {
			tc.mutate(&o)
		}
		if byName[tc.scenario].check(&o) == nil {
			t.Errorf("%s accepts %s", tc.scenario, tc.why)
		}
	}
}
