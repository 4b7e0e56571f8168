// Package load is the serving layer's traffic model: a seed-deterministic
// temporal workload generator, a request-trace recorder/replayer, and a
// saturation analyzer that finds the knee of an exaserve fleet.
//
// The cluster study models the paper's 100-app arrival patterns, but until
// this package the *service* (internal/serve, internal/mesh) was only ever
// exercised by uniform closed-loop clients. The resilience literature the
// repository tracks (Hukerikar & Engelmann's pattern catalog, TeaMPI's
// performance-under-load methodology) is explicit that resilience
// mechanisms must be evaluated under representative, reproducible load —
// so every piece here is deterministic under a seed:
//
//   - Profile (profile.go) composes piecewise rate functions — constant,
//     ramp, diurnal, bursty — into a multi-period arrival-rate curve r(t).
//   - Generate (gen.go) drives an open-loop arrival process (Poisson via
//     thinning, or deterministic pacing) from a Profile and draws each
//     arrival's spec from a Zipf popularity law over a ranked vocabulary,
//     so the result cache and affinity router see realistic skew.
//   - Trace (trace.go) records a request stream — spec, arrival offset,
//     outcome, latency — as versioned JSONL and replays it verbatim or
//     time-scaled. Malformed lines are rejected with their line number,
//     never skipped.
//   - Target (target.go) abstracts "something that serves arrivals":
//     HTTPTarget paces wall-clock arrivals at a live exaserve or mesh,
//     while Inproc (inproc.go) runs a real serve.Server on a
//     serve.VirtualClock with a stub runner that takes virtual service
//     time, making admission, single-flight, cache, and 429 outcomes —
//     and the reported latencies — exactly reproducible.
//   - Sweep (saturate.go) steps the arrival rate across a grid, measures
//     p50/p95/p99 latency, throughput, reject rate, and cache hit rate
//     per step, detects the knee (first step crossing the p99 or
//     reject-rate budget), and renders a capacity-planning report. The
//     pinned GoldenSweep configuration is digest-checked by exacheck.
package load
