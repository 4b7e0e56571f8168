#!/usr/bin/env bash
# bench.sh — the repository's benchmark recorder.
#
# Runs cmd/exabench over the benchmark table (internal/bench), writing
# BENCH_results.json at the repo root, stamped with the current git commit,
# a UTC timestamp, GOMAXPROCS and the Go version, so every recorded run is
# attributable and `exabench -baseline` compares only like with like. The
# fig4 vs fig4_metrics pair in that file records the obs-layer overhead
# (disabled hooks vs an attached registry), and the fig4/fig5 vs
# fig4_vr/fig5_vr pairs record the variance-reduced modes (DESIGN.md §11).
#
# The script fails loudly if exabench produced no results (an unmatched
# -run filter, or a crash that left a stale file behind).
#
# Usage: scripts/bench.sh [exabench flags...]
# e.g.:  scripts/bench.sh -run fig4
#
# Vet, the tests, the race detector and a one-iteration pass over every
# benchmark entry run in scripts/check.sh, the correctness gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== exabench -> BENCH_results.json"
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
rm -f BENCH_results.json
go run ./cmd/exabench -out BENCH_results.json -commit "$COMMIT" "$@"
grep -q '"name"' BENCH_results.json 2>/dev/null \
  || { echo "bench.sh: BENCH_results.json has no benchmark results" >&2; exit 1; }
