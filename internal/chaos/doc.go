// Package chaos is the serving layer's deterministic fault injector
// (introduced in PR 5; see DESIGN.md §10). It models the failure classes
// the source paper's resilience techniques exist to absorb — transient
// slowdowns, request loss, and mid-job process crashes — at the service
// tier, following the fault-injection verification pattern of Hukerikar
// & Engelmann's resilience pattern language (arXiv:1710.09074): a
// resilience mechanism is only trusted once it has been exercised
// against the faults it claims to mask.
//
// An Injector draws from a seed-driven uniform stream (one splitmix64
// substream per decision, via internal/rng) and injects four fault
// kinds at configurable rates:
//
//   - latency: sleep before handling an HTTP request
//   - error: answer an HTTP request with a synthetic 500
//   - reset: abort the HTTP connection mid-request (client sees EOF/RST)
//   - crash: kill a running job after a set number of grid cells, via
//     the serve.Config.CrashHook contract
//
// The decision sequence for a given seed is fixed; which concurrent
// request consumes which decision depends on arrival interleaving, so
// totals — not per-request outcomes — are what a soak asserts.
// /healthz and /metrics are exempt from HTTP-level faults so probes and
// scrapes stay usable while everything else burns.
//
// Every injected fault increments exaresil_chaos_injected_total{fault=...},
// wired into cmd/exaserve behind the -chaos flag and hammered end to end
// by `exaload scenario chaos`.
package chaos
