#!/usr/bin/env bash
# check.sh — the repository's model-conformance gate.
#
# Runs, in order:
#   1. go vet over every package, plus doc hygiene: every internal
#      package carries a package comment, gofmt has nothing to say, and
#      the docs can't drift — every cmd/ tool and internal/ package must
#      be mentioned in README.md or DESIGN.md
#   2. the race detector over the audit harness, the resilience
#      executors, the cluster layer, the obs metrics package, the shared
#      experiments registry, the service stack — serve, chaos injector,
#      retrying client, workload generator — and the hot-path packages
#      of the raw-speed passes: selection, analytic, rng (pins the
#      seed-determinism, metrics-attachment-is-inert,
#      single-flight/backpressure, checkpoint/resume, substream, and
#      disabled-hooks-allocation-free tests under -race)
#   3. a fuzz smoke (10s per target) on the DES scheduler, the multilevel
#      schedule search, the ReStore replica-loss bookkeeping, the
#      workload pattern reader, the job-spec decoder (ParseSpec), the
#      mesh job-id parser (parseJobID), and the load-trace reader
#      (ReadTrace, whose accepted traces must round-trip)
#   4. the full conformance sweep (sim vs analytic, runtime invariants,
#      metamorphic properties) over the seven-technique menu, run twice:
#      plain Monte-Carlo and variance-reduced (-vr, antithetic paired) —
#      exits non-zero on any violation
#   5. the golden-exhibit digest comparison against results/golden/:
#      fourteen reduced-size exhibits, among them fig1 and the five
#      extension sweeps (ext-mtbf, -weibull, -tau, -semiblocking,
#      -machines)
#   6. the registry defaults against results/: exasim at its flag
#      defaults (each exhibit's registry row) regenerates the nine
#      sub-second extension exhibits, and each CSV must equal its
#      results/ copy byte for byte — a wrong default that exasim and the
#      service share would pass every unit test but not this
#   7. the five live scenarios of `exaload scenario all` (set
#      SOAK_REQUESTS=0 to skip them), each on a fresh exaserve that must
#      drain on SIGTERM: serve (golden fig4 bytes, then a cache hit),
#      chaos (zero wrong or failed results under fault injection, with
#      fig1's sweeps and fig4's grids crashing and resuming), mesh (the
#      same after a real replica failover), load (exaload gen, replay, run and sweep), and
#      autoscale (the pool grows, shrinks back to the floor, and loses no
#      jobs)
#   8. opt-in: with BENCH_BASELINE=path/to/BENCH_results.json set, rerun
#      the exhibit benchmarks and fail on any >10% time or allocation
#      regression against that report (cmd/exabench -baseline)
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

echo "== race detector on the audit harness, executors, cluster layer, machine model, metrics, registry, and service stack"
go test -race -count=1 ./internal/check/ ./internal/resilience/ ./internal/cluster/... \
	./internal/machine/ ./internal/obs/... ./internal/experiments/ ./internal/serve/... ./internal/mesh/ ./internal/chaos/ \
	./internal/serveclient/ ./internal/load/ ./internal/selection/ ./internal/analytic/ ./internal/rng/

echo "== fuzz smoke (${FUZZTIME} per target)"
go test ./internal/des/ -run='^$' -fuzz='^FuzzSimulatorPooledEquivalence$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzOptimizeMultilevel$' -fuzztime="$FUZZTIME"
go test ./internal/resilience/ -run='^$' -fuzz='^FuzzReStoreReplicaLoss$' -fuzztime="$FUZZTIME"
go test ./internal/workload/ -run='^$' -fuzz='^FuzzReadPattern$' -fuzztime="$FUZZTIME"
go test ./internal/serve/ -run='^$' -fuzz='^FuzzParseSpec$' -fuzztime="$FUZZTIME"
go test ./internal/mesh/ -run='^$' -fuzz='^FuzzParseJobID$' -fuzztime="$FUZZTIME"
go test ./internal/load/ -run='^$' -fuzz='^FuzzReadTrace$' -fuzztime="$FUZZTIME"

echo "== conformance sweep (plain)"
go run ./cmd/exacheck "$@" sweep

echo "== conformance sweep (variance-reduced)"
go run ./cmd/exacheck "$@" -vr sweep

echo "== golden exhibits"
go run ./cmd/exacheck golden

echo "== registry defaults reproduce results/"
DEFAULTS=$(mktemp -d)
DEFAULT_EXHIBITS="ext-energy ext-mtbf ext-weibull ext-tau ext-semiblocking ext-machines ext-whatif ext-selectors policy"
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
