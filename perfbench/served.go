package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/serve"
)

// The oracle re-runs up to oraclePerKind distinct served specs of each
// exhibit directly after a served run.
const oraclePerKind = 16

// startLead delays the open-loop phase's time zero slightly past the
// schedule's construction, so the first arrivals are not born late.
const startLead = 20 * time.Millisecond

// rounds is how many open-then-closed rounds a measured pass is cut into.
// Every timing is computed per round and reported as the median over the
// rounds, so a slow spell of the host that covers fewer than half of them
// does not move it.
const rounds = 5

// round is one slice of a measured pass: its open-loop jobs, then its
// closed-loop jobs with the closed segment's wall time.
type round struct {
	open, closed []job
	closedWall   time.Duration
}

// jobs is the round's open-loop and closed-loop jobs together.
func (r round) jobs() []job { return append(append([]job(nil), r.open...), r.closed...) }

// setupFleet starts a fleet and warms it with the plan's warm-up specs,
// reps times, keeping the last fleet; it returns that fleet, a client
// for it, and the median set-up time. The first repetition is timed from
// process start.
func setupFleet(p plan, reps int, rec *recorder, o *outcome) (*fleet, *client, float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		f, err := startFleet(rec)
		if err != nil {
			return nil, nil, 0, err
		}
		warm := newClient(f.base, runtime.GOMAXPROCS(0), pollEvery, nil)
		jobs, _ := closedLoop(warm, outstanding, time.Hour, p.Warm)
		warm.close()
		for _, j := range jobs {
			if j.Err != nil {
				o.fail("warm-up %s: %v", j.Spec.Canonical(), j.Err)
			}
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			return f, newClient(f.base, runtime.GOMAXPROCS(0), pollEvery, rec), median(times), nil
		}
		if err := f.stop(); err != nil {
			return nil, nil, 0, err
		}
	}
	return nil, nil, 0, fmt.Errorf("setup: no repetitions")
}

// measure runs the plan's open-loop schedule cut into rounds equal slices
// and follows each slice with a closed-loop segment of p.ClosedW/rounds
// that continues the closed spec sequence.
func measure(c *client, p plan) []round {
	var out []round
	slice, next, used := p.OpenW/rounds, 0, 0
	for r := 1; r <= rounds; r++ {
		var chunk []arrival
		for ; next < len(p.Open) && (r == rounds || p.Open[next].At < time.Duration(r)*slice); next++ {
			a := p.Open[next]
			a.At -= time.Duration(r-1) * slice
			chunk = append(chunk, a)
		}
		rd := round{open: openLoop(c, time.Now().Add(startLead), chunk)}
		rd.closed, rd.closedWall = closedLoop(c, outstanding, p.ClosedW/rounds, p.Closed[used:])
		used += len(rd.closed)
		out = append(out, rd)
	}
	return out
}

// tally counts the jobs as operations and their errors as failures, and
// returns the successful ones.
func tally(jobs []job, o *outcome) []job {
	var ok []job
	for _, j := range jobs {
		o.attempted++
		if j.Err != nil {
			o.failed++
			if len(o.problems) < 10 {
				o.fail("%s: %v", j.Spec.Canonical(), j.Err)
			}
			continue
		}
		ok = append(ok, j)
	}
	return ok
}

// tallyRounds tallies every round's jobs, keeping the successful ones, and
// returns all of them by phase.
func tallyRounds(rs []round, o *outcome) (open, closed []job) {
	for i := range rs {
		rs[i].open, rs[i].closed = tally(rs[i].open, o), tally(rs[i].closed, o)
		open = append(open, rs[i].open...)
		closed = append(closed, rs[i].closed...)
	}
	return open, closed
}

// perRound is the median over the rounds of f's figure for each round.
func perRound(rs []round, f func(round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func latenciesMS(jobs []job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = ms(j.latency())
	}
	return out
}

func lagsMS(jobs []job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = ms(j.Issued.Sub(j.Due))
	}
	return out
}

// servedName is the served workload's name; its traced run writes its
// spans under this name.
const servedName = "served-zipf"

// runServed runs served-zipf: set-up (fleet start and warm-up, setupReps
// times), rounds of the open-loop phase for latency and the closed-loop
// phase for throughput, and the oracle.
func runServed(seed uint64, window time.Duration, trace bool) (*outcome, error) {
	openW := time.Duration(float64(window) * openShare)
	p, err := zipfPlan(seed, openW, window-openW)
	if err != nil {
		return nil, err
	}
	return servePlan(p, seed, trace)
}

// servePlan runs served-zipf's plan; see runServed.
func servePlan(p plan, seed uint64, trace bool) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	if trace {
		return traceServed(p, seed, o)
	}
	f, c, setup, err := setupFleet(p, setupReps, nil, o)
	if err != nil {
		return nil, err
	}
	rs := measure(c, p)
	c.close()
	if err := f.stop(); err != nil {
		return nil, err
	}
	open, closed := tallyRounds(rs, o)
	checkOracle(append(append([]job(nil), open...), closed...), seed, o)

	o.values["setup_s"] = setup
	o.values["scaling_s"] = perRound(rs, func(r round) float64 { t, _ := kindExec(r.jobs()); return t })
	o.values["cluster_s"] = perRound(rs, func(r round) float64 { _, c := kindExec(r.jobs()); return c })
	o.values["job_p50_ms"] = perRound(rs, func(r round) float64 { return median(latenciesMS(r.open)) })
	o.values["job_p99_ms"] = perRound(rs, func(r round) float64 { _, v := tailQuantile(latenciesMS(r.open)); return v })
	o.values["saturated_rps"] = perRound(rs, func(r round) float64 { return float64(len(r.closed)) / r.closedWall.Seconds() })
	q, _ := tailQuantile(latenciesMS(rs[0].open))
	_, lag := tailQuantile(lagsMS(open))
	o.note("open loop: %d samples in %d rounds, per-round tail at q=%.4f, generator lag p99 %.3fms, poll interval %s, %d connections",
		len(open), rounds, q, lag, pollEvery, runtime.GOMAXPROCS(0))
	misses, wall := 0, time.Duration(0)
	for _, r := range rs {
		wall += r.closedWall
		for _, j := range r.closed {
			if j.Cache == serve.CacheMiss {
				misses++
			}
		}
	}
	o.note("closed loop: %d verified jobs (%d misses) in %.3fs over %d segments with %d outstanding",
		len(closed), misses, wall.Seconds(), rounds, outstanding)
	return o, nil
}

// checkOracle verifies served digests against direct registry runs. Every
// distinct spec must have reported one digest, and a seeded sample of up
// to oraclePerKind specs per exhibit, re-run outside the timed window,
// must hash to the served digest. It returns the re-runs' CSV-writing time.
func checkOracle(jobs []job, seed uint64, o *outcome) time.Duration {
	digests := map[string]string{}
	specs := map[string]serve.Spec{}
	for _, j := range jobs {
		k := j.Spec.Key()
		if d, ok := digests[k]; ok && d != j.View.Digest {
			o.failed++
			o.fail("%s served two digests: %s and %s", j.Spec.Canonical(), d, j.View.Digest)
		}
		digests[k], specs[k] = j.View.Digest, j.Spec
	}
	byExhibit := map[string][]string{}
	for k, s := range specs {
		byExhibit[s.Exhibit] = append(byExhibit[s.Exhibit], k)
	}
	r := rand.New(rand.NewPCG(seed, 5))
	exhibits := make([]string, 0, len(byExhibit))
	for e := range byExhibit {
		exhibits = append(exhibits, e)
	}
	sort.Strings(exhibits)
	var csv time.Duration
	for _, e := range exhibits {
		keys := byExhibit[e]
		sort.Strings(keys)
		r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
		for _, k := range keys[:min(oraclePerKind, len(keys))] {
			s := specs[k]
			got, write, err := directDigest(s)
			csv += write
			if err != nil || got != digests[k] {
				o.failed++
				o.fail("%s: direct run digest %s (err %v), served %s", s.Canonical(), got, err, digests[k])
			}
		}
	}
	return csv
}

// kindExec is the simulation cost by spec kind: each kind's median
// execution time (FinishedAt − StartedAt) over the jobs' misses, in
// seconds, summed over the trial kinds and over the cluster kind.
func kindExec(jobs []job) (trial, cluster float64) {
	byKind := map[string][]float64{}
	for _, j := range jobs {
		if j.Cache == serve.CacheMiss && j.View.StartedAt != nil && j.View.FinishedAt != nil {
			byKind[j.Spec.Exhibit] = append(byKind[j.Spec.Exhibit], j.View.FinishedAt.Sub(*j.View.StartedAt).Seconds())
		}
	}
	for _, kind := range specKinds {
		if isClusterSpec(kind) {
			cluster += median(byKind[kind.Exhibit])
		} else {
			trial += median(byKind[kind.Exhibit])
		}
	}
	return trial, cluster
}

// directDigest runs a spec through the experiments registry the way a
// replica does (default configuration, the spec's seed, one worker) and
// returns its CSV digest with the CSV-writing time.
func directDigest(s serve.Spec) (digest string, write time.Duration, err error) {
	ex, ok := experiments.Lookup(s.Exhibit)
	if !ok {
		return "", 0, fmt.Errorf("unknown exhibit %q", s.Exhibit)
	}
	cfg := experiments.Default()
	cfg.Workers = 1
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	t, _, err := ex.Run(cfg, s.Params())
	if err != nil {
		return "", 0, err
	}
	var buf bytes.Buffer
	t1 := time.Now()
	err = t.WriteCSV(&buf)
	write = time.Since(t1)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), write, err
}

// paperSpecs are paper-batch's inputs as specs, for spec.key_us.
func paperSpecs() []serve.Spec {
	out := make([]serve.Spec, len(paperExhibits))
	for i, n := range paperExhibits {
		out[i] = serve.Spec{Exhibit: n}
	}
	return out
}

// specKeyMicros times Spec.Key over the workload's specs from outside:
// the median over five sweeps of the mean microseconds per key.
func specKeyMicros(specs []serve.Spec) float64 {
	if len(specs) == 0 {
		return 0
	}
	var per []float64
	sink := 0
	for rep := 0; rep < 5; rep++ {
		n := 0
		t0 := time.Now()
		for n < 2000 {
			for _, s := range specs {
				sink += len(s.Key())
				n++
			}
		}
		per = append(per, float64(time.Since(t0).Microseconds())/float64(n))
	}
	if sink == 0 {
		return 0
	}
	return median(per)
}

// traceServed is the traced served run: the measured pass once untraced
// for the overhead baseline, then again on a fleet with every registry,
// the server middleware and the client spans attached.
func traceServed(p plan, seed uint64, o *outcome) (*outcome, error) {
	f, c, _, err := setupFleet(p, 1, nil, o)
	if err != nil {
		return nil, err
	}
	base := measure(c, p)
	c.close()
	if err := f.stop(); err != nil {
		return nil, err
	}
	baseOpen, _ := tallyRounds(base, o)

	rec := &recorder{}
	f, c, _, err = setupFleet(p, 1, rec, o)
	if err != nil {
		return nil, err
	}
	before, err := f.scrape(c)
	if err != nil {
		return nil, err
	}
	simBefore := regText(f.simReg)
	rs := measure(c, p)
	after, err := f.scrape(c)
	if err != nil {
		return nil, err
	}
	simAfter := regText(f.simReg)
	c.close()
	if err := f.stop(); err != nil {
		return nil, err
	}
	open, closed := tallyRounds(rs, o)
	all := append(append([]job(nil), open...), closed...)
	csv := checkOracle(all, seed, o)

	layers := simLayers(simAfter.minus(simBefore))
	for k, v := range layers {
		o.values[k] = v
	}
	var execNS float64
	for _, j := range all {
		if j.Cache == serve.CacheMiss && j.View.StartedAt != nil {
			execNS += float64(j.View.FinishedAt.Sub(*j.View.StartedAt))
		}
	}
	o.values["des.ns_per_event"] = share(execNS, layers["des.events_dispatched"])
	o.values["report.csv_ms"] = ms(csv)
	servedLayers(after.minus(before), o)
	httpLayers(rec.all(), all, o)
	stageLayers(open, o)

	baseP50, p50 := median(latenciesMS(baseOpen)), median(latenciesMS(open))
	o.values["trace.overhead_share"] = share(p50-baseP50, baseP50)
	o.values["spec.key_us"] = specKeyMicros(openSpecs(p))
	o.values["load.poll_interval_ms"] = ms(pollEvery)
	o.values["load.samples"] = float64(len(open))
	_, o.values["load.lag_p99_ms"] = tailQuantile(lagsMS(open))
	o.note("untraced p50 %.3fms, traced p50 %.3fms over %d open-loop samples", baseP50, p50, len(open))
	return o, writeSpans(filepath.Join(spanDir, servedName+".jsonl"), rec.all())
}

func openSpecs(p plan) []serve.Spec {
	out := make([]serve.Spec, len(p.Open))
	for i, a := range p.Open {
		out[i] = a.Spec
	}
	return out
}

// servedLayers reads the serve and mesh layers' counters, as deltas over
// the measured phases.
func servedLayers(t promText, o *outcome) {
	cache := t.byLabel("exaresil_serve_cache_requests_total", "outcome")
	lookups := cache["hit"] + cache["joined"] + cache["miss"]
	o.values["serve.hit_share"] = share(cache["hit"], lookups)
	o.values["serve.join_share"] = share(cache["joined"], lookups)
	o.values["serve.miss_share"] = share(cache["miss"], lookups)
	o.values["serve.cache_evictions"] = t.sum("exaresil_serve_cache_evictions_total")
	submitted := t.sum("exaresil_serve_jobs_submitted_total")
	o.values["serve.executions_per_job"] = share(t.sum("exaresil_serve_executions_total"), submitted)
	rejected := t.sum("exaresil_serve_queue_rejections_total")
	o.values["serve.reject_share"] = share(rejected, submitted+rejected)
	admitted := t.sum("exaresil_mesh_admission_total", "outcome", "admitted")
	refused := t.sum("exaresil_mesh_admission_total", "outcome", "rejected")
	o.values["mesh.admission_reject_share"] = share(refused, admitted+refused)
	o.values["mesh.spill_share"] = share(t.sum("exaresil_mesh_spills_total"), admitted)
	routed := t.byLabel("exaresil_mesh_routed_total", "replica")
	var most, total float64
	for _, v := range routed {
		most = max(most, v)
		total += v
	}
	o.values["mesh.route_imbalance"] = share(most, share(total, float64(len(routed))))
}

// httpLayers reads the HTTP layer from the spans: client round trips,
// server handler times by route, and the client spans' self time (the
// part the server handler does not cover: transport, connection wait and
// codec).
func httpLayers(spans []span, jobs []job, o *outcome) {
	byName := map[string][]float64{}
	self := selfTimes(spans)
	var clientSelf []float64
	for _, s := range spans {
		if s.Req == 0 {
			continue // warm-up or scrape traffic
		}
		byName[s.Name] = append(byName[s.Name], ms(s.dur()))
		if strings.HasPrefix(s.Name, "client.") {
			clientSelf = append(clientSelf, ms(self[s.ID]))
		}
	}
	o.values["http.submit_ms"] = median(byName["client.submit"])
	o.values["http.result_ms"] = median(byName["client.result"])
	o.values["http.handler_ms.submit"] = median(byName["server.submit"])
	o.values["http.handler_ms.job"] = median(byName["server.job"])
	o.values["http.handler_ms.result"] = median(byName["server.result"])
	o.values["http.client_self_ms"] = median(clientSelf)
	var polls, bytes float64
	for _, j := range jobs {
		polls += float64(j.Polls)
		bytes += float64(j.Bytes)
	}
	o.values["http.polls_per_job"] = share(polls, float64(len(jobs)))
	o.values["http.result_bytes"] = share(bytes, float64(len(jobs)))
}

// stages splits one open-loop job's latency at its recorded boundaries:
// generator lag, submit round trip, queue wait, execution, notify lag
// and result fetch. A job born done has no queue or execution stage.
type stages struct {
	lag, submit, queue, exec, notify, fetch time.Duration
}

func jobStages(j job) stages {
	st := stages{
		lag:    j.Issued.Sub(j.Due),
		submit: j.Responded.Sub(j.Issued),
		fetch:  j.End.Sub(j.SeenDone),
	}
	finished := j.View.SubmittedAt
	if j.View.FinishedAt != nil {
		finished = *j.View.FinishedAt
	}
	if j.View.StartedAt != nil {
		st.queue = j.View.StartedAt.Sub(j.View.SubmittedAt)
		st.exec = finished.Sub(*j.View.StartedAt)
	}
	st.notify = j.SeenDone.Sub(finished)
	return st
}

func (s stages) sum() time.Duration {
	return s.lag + s.submit + s.queue + s.exec + s.notify + s.fetch
}

// stageTolerance absorbs the rounding of timestamps that cross the JSON
// codec; the stages themselves are read from one clock.
const stageTolerance = 50 * time.Microsecond

// reconcile returns the job's stage residual: the stage sum minus the
// end-to-end latency. The submit round trip and the server's stages
// overlap by the response leg (from the server stamping SubmittedAt to
// the client decoding the reply), so the residual must lie within
// [0, submit round trip], and no stage may be negative; anything else
// means a stage was mis-stamped.
func reconcile(j job) (residual time.Duration, ok bool) {
	st := jobStages(j)
	residual = st.sum() - j.latency()
	ok = residual >= -stageTolerance && residual <= st.submit+stageTolerance
	for _, d := range []time.Duration{st.lag, st.submit, st.queue, st.exec, st.notify, st.fetch} {
		ok = ok && d >= -stageTolerance
	}
	return residual, ok
}

// stageLayers reports the serve stages of the open-loop jobs and checks
// that each job's stages reconcile with its end-to-end latency.
func stageLayers(jobs []job, o *outcome) {
	var queue, exec, notify, residual []float64
	bad := 0
	for _, j := range jobs {
		st := jobStages(j)
		if j.Cache == serve.CacheMiss {
			queue = append(queue, ms(st.queue))
			exec = append(exec, ms(st.exec))
		}
		if j.Polls > 0 {
			notify = append(notify, ms(st.notify))
		}
		r, ok := reconcile(j)
		residual = append(residual, ms(r))
		if !ok {
			bad++
		}
	}
	if bad > 0 {
		o.fail("%d of %d jobs' stages do not reconcile with their latency", bad, len(jobs))
	}
	o.values["serve.queue_wait_ms.p50"] = median(queue)
	_, o.values["serve.queue_wait_ms.p99"] = tailQuantile(queue)
	o.values["serve.exec_ms.p50"] = median(exec)
	_, o.values["serve.exec_ms.p99"] = tailQuantile(exec)
	o.values["serve.notify_lag_ms"] = median(notify)
	_, o.values["trace.stage_residual_ms"] = tailQuantile(residual)
}
