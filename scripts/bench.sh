#!/usr/bin/env bash
# bench.sh — the repository's benchmark recorder.
#
# Runs cmd/exabench over the benchmark table (internal/bench), writing
# BENCH_results.json at the repo root, stamped with the current git commit
# (suffixed -dirty when tracked files other than that report differ from
# it), a UTC timestamp, GOMAXPROCS and the Go version, so every recorded
# run is attributable and `exabench -baseline` compares only like with
# like. The fig4 vs fig4_metrics pair in that file records the obs-layer
# overhead (disabled hooks vs an attached registry), and the fig4/fig5 vs
# fig4_vr/fig5_vr pairs record the variance-reduced modes (DESIGN.md §11).
#
# The script fails loudly if exabench produced no results (an unmatched
# -run filter, or a crash that left a stale file behind).
#
# With -against REV it gates as well as records: it first records REV's
# report with REV's own exabench, built in a temporary checkout of REV
# (git archive, so the repository's worktree list is untouched), then
# records this tree's report right after and passes REV's to exabench
# -baseline. Both runs see the same box minutes apart, so the gate
# measures the change rather than the box's drift since a report recorded
# hours earlier. The exit status is the gate's.
#
# Usage: scripts/bench.sh [-against REV] [exabench flags...]
# e.g.:  scripts/bench.sh -run fig4
#        scripts/bench.sh -against HEAD~1 -run fig
#
# Vet, the tests, the race detector and a one-iteration pass over every
# benchmark entry run in scripts/check.sh, the correctness gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=()
if [[ ${1:-} == -against ]]; then
  REV=$(git rev-parse --short "${2:?bench.sh: -against needs a revision}^{commit}")
  shift 2
  TMP=$(mktemp -d)
  trap 'rm -rf "$TMP"' EXIT
  mkdir "$TMP/src"
  git archive "$REV" | tar -x -C "$TMP/src"
  echo "== exabench at $REV -> $TMP/base.json"
  (cd "$TMP/src" && go run ./cmd/exabench -out "$TMP/base.json" -commit "$REV" "$@")
  BASELINE=(-baseline "$TMP/base.json")
fi

echo "== exabench -> BENCH_results.json"
COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [[ $COMMIT != unknown ]] && ! git diff --quiet HEAD -- . ':!BENCH_results.json'; then
  COMMIT+=-dirty
fi
rm -f BENCH_results.json
STATUS=0
go run ./cmd/exabench -out BENCH_results.json -commit "$COMMIT" ${BASELINE[@]+"${BASELINE[@]}"} "$@" || STATUS=$?
grep -q '"name"' BENCH_results.json 2>/dev/null \
  || { echo "bench.sh: BENCH_results.json has no benchmark results" >&2; exit 1; }
exit "$STATUS"
