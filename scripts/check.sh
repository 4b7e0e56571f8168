#!/usr/bin/env bash
# check.sh — the repository's model-conformance gate.
#
# Runs, in order:
#   1. go vet over every package, plus doc hygiene: every internal
#      package carries a package comment, gofmt has nothing to say, and
#      the docs can't drift — every cmd/ tool and internal/ package must
#      be mentioned in README.md or DESIGN.md
#   2. the race detector over the audit harness, the resilience
#      executors, the DES scheduler, the cluster layer, the trial workers
#      and cell loop (appsim), the obs metrics package, the shared
#      experiments registry, the service stack — serve, chaos injector,
#      retrying client, workload generator — and the hot-path packages
#      of the raw-speed passes: selection, analytic, rng (pins the
#      seed-determinism, metrics-attachment-is-inert,
#      single-flight/backpressure, checkpoint/resume, substream, and
#      disabled-hooks-allocation-free tests under -race); the serving
#      packages (serve, mesh, load, serveclient) race a second time at
#      GOMAXPROCS=1, where their tests must hold with no parallelism
#      at all, since they wait on channels and clock steps, not time
#   3. every entry of the benchmark table (internal/bench) run once, so
#      an entry that breaks fails here rather than in the next benchmark
#      run
#   4. a fuzz smoke (10s per target) on the DES scheduler, the multilevel
#      schedule search, the ReStore replica-loss bookkeeping, the
#      workload pattern reader, the job-spec decoder (ParseSpec), the
#      mesh job-id parser (parseJobID), the load-trace reader
#      (ReadTrace, whose accepted traces must round-trip), the client's
#      Retry-After reader (parseRetryAfter: never negative, never shorter
#      for a larger number), and the metrics reader (ReadMetrics: no sum
#      wraps)
#   5. the full conformance sweep (sim vs analytic, runtime invariants,
#      metamorphic properties) over the seven-technique menu, run twice:
#      plain Monte-Carlo and variance-reduced (-vr, antithetic paired) —
#      exits non-zero on any violation
#   6. the golden-exhibit digest comparison against results/golden/:
#      fourteen reduced-size exhibits, among them fig1 and the five
#      extension sweeps (ext-mtbf, -weibull, -tau, -semiblocking,
#      -machines)
#   7. the registry defaults against results/: exasim at its flag
#      defaults (each exhibit's registry row) regenerates the paper's
#      fig1-fig4 at full scale and the nine sub-second extension
#      exhibits (about 5 s in all on a 2-vCPU box), and each CSV must
#      equal its results/ copy byte for byte — a wrong default that
#      exasim and the service share, or a simulation change that moves
#      one trial, would pass every unit test but not this
#   8. the five live scenarios of `exaload scenario all` (set
#      SOAK_REQUESTS=0 to skip them), each on a fresh exaserve that must
#      drain on SIGTERM: serve (golden fig4 bytes, then a cache hit),
#      chaos (zero wrong or failed results under fault injection, with
#      fig1's sweeps and fig4's grids crashing and resuming), mesh (the
#      same after a real replica failover), load (exaload gen, replay, run and sweep), and
#      autoscale (the pool grows, shrinks back to the floor, and loses no
#      jobs)
#   9. opt-in: with BENCH_BASELINE=path/to/BENCH_results.json set, rerun
#      the benchmark table and fail on any >10% allocation regression, or
#      >10% time regression that the median of five reruns confirms,
#      against that report, which must have been recorded at this
#      GOMAXPROCS and Go version (cmd/exabench -baseline)
#
# Usage: scripts/check.sh [exacheck flags...]
# e.g.:  scripts/check.sh -quick
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet ./..."
go vet ./...

echo "== doc hygiene: package comments and gofmt"
MISSING=""
for dir in internal/*/; do
  pkg=$(basename "$dir")
  grep -rql "^// Package ${pkg}" "$dir"*.go || MISSING="${MISSING} ${pkg}"
done >/dev/null
[ -z "$MISSING" ] || { echo "internal packages missing a package comment:${MISSING}"; exit 1; }
UNFMT=$(gofmt -l .)
[ -z "$UNFMT" ] || { echo "gofmt wants to rewrite:"; echo "$UNFMT"; exit 1; }

echo "== doc drift: every binary and package appears in README.md or DESIGN.md"
UNDOCUMENTED=""
for dir in cmd/*/ internal/*/; do
  name=$(basename "$dir")
  grep -q "$name" README.md DESIGN.md || UNDOCUMENTED="${UNDOCUMENTED} ${dir%/}"
done
[ -z "$UNDOCUMENTED" ] || { echo "undocumented in README.md/DESIGN.md:${UNDOCUMENTED}"; exit 1; }

echo "== race detector on the audit harness, executors, DES, cluster layer, trial workers, machine model, metrics, registry, and service stack (the service stack also at GOMAXPROCS=1)"
go test -race -count=1 ./internal/check/ ./internal/resilience/ ./internal/des/ ./internal/cluster/... ./internal/appsim/ \
	./internal/machine/ ./internal/obs/... ./internal/experiments/ ./internal/serve/... ./internal/mesh/ ./internal/chaos/ \
	./internal/serveclient/ ./internal/load/ ./internal/selection/ ./internal/analytic/ ./internal/rng/
GOMAXPROCS=1 go test -race -count=1 ./internal/serve/... ./internal/mesh/ ./internal/load/ ./internal/serveclient/

echo "== every benchmark table entry, once"
go test -run '^$' -bench . -benchtime 1x .

echo "== fuzz smoke (${FUZZTIME} per target)"
go test ./internal/des/ -run='^$' -fuzz='^FuzzSimulatorPooledEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzOptimizeMultilevel$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzReStoreReplicaLoss$' -fuzztime="$FUZZTIME"
go test ./internal/workload/ -run='^$' -fuzz='^FuzzReadPattern$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime="$FUZZTIME"
go test ./internal/mesh/ -run='^$' -fuzz='^FuzzParseJobID$' -fuzztime="$FUZZTIME"
go test ./internal/load/ -run='^$' -fuzz='^FuzzReadTrace$' -fuzztime="$FUZZTIME"
go test ./internal/serveclient/ -run='^$' -fuzz='^FuzzParseRetryAfter$' -fuzztime="$FUZZTIME"
go test ./internal/load/ -run='^$' -fuzz='^FuzzReadMetrics$' -fuzztime="$FUZZTIME"

echo "== conformance sweep (plain)"
go run ./cmd/exacheck "$@" sweep

echo "== conformance sweep (variance-reduced)"
go run ./cmd/exacheck "$@" -vr sweep

echo "== golden exhibits"
go run ./cmd/exacheck golden

echo "== registry defaults reproduce results/"
DEFAULTS=$(mktemp -d)
DEFAULT_EXHIBITS="fig1 fig2 fig3 fig4 ext-energy ext-mtbf ext-weibull ext-tau ext-semiblocking ext-machines ext-whatif ext-selectors policy"
# shellcheck disable=SC2086 # the list is meant to split
go run ./cmd/exasim -csv "$DEFAULTS" $DEFAULT_EXHIBITS >/dev/null
for name in $DEFAULT_EXHIBITS; do
  cmp "results/$name.csv" "$DEFAULTS/$name.csv"
done
rm -rf "$DEFAULTS"

if [ "${SOAK_REQUESTS:-}" != "0" ]; then
  echo "== live scenarios"
  BIN=$(mktemp -d)
  trap 'rm -rf "$BIN"' EXIT
  go build -o "$BIN/exaserve" ./cmd/exaserve
  go run ./cmd/exaload scenario -exaserve "$BIN/exaserve" all
fi

if [ -n "${BENCH_BASELINE:-}" ]; then
  echo "== bench regression gate vs ${BENCH_BASELINE}"
  go run ./cmd/exabench -baseline "$BENCH_BASELINE" -out "$(mktemp)"
fi
