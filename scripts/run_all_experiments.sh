#!/usr/bin/env sh
# The counterpart of the paper artifact's run_experiment.sh: regenerates
# every table and figure (plus the ablations and extensions) in one go.
#
# Usage: scripts/run_all_experiments.sh [build_dir] [repeats]
#   build_dir  CMake build directory            (default: build)
#   repeats    completed runs per workload pair (default: 3; the paper
#              uses >= 10 — raise it for tighter statistics)
#
# Console output is mirrored into $DPS_OUT (default bench_out/) alongside
# the CSV dumps each bench writes. The JSON results of the timing benches
# (perf_smoke, perf_steps, ext_scale) land there too, as
# BENCH_<bench>.json, so a run never overwrites the tracked BENCH_*.json
# at the repo root (docs/performance.md says how those are made).
# overhead, the google-benchmark microbench suite, is skipped; run it
# directly with a --benchmark_filter.

set -eu

BUILD_DIR="${1:-build}"
REPEATS="${2:-3}"
OUT_DIR="${DPS_OUT:-bench_out}"
mkdir -p "$OUT_DIR"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

echo "Running all experiments (repeats=$REPEATS, output in $OUT_DIR/)"
for bench in "$BUILD_DIR"/bench/*; do
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  [ "$name" != overhead ] || continue
  echo "==> $name"
  DPS_REPEATS="$REPEATS" DPS_OUT="$OUT_DIR" \
    DPS_BENCH_JSON="$OUT_DIR/BENCH_$name.json" "$bench" \
    | tee "$OUT_DIR/$name.txt"
  echo
done
echo "All experiments complete. Tables: $OUT_DIR/*.txt  CSVs: $OUT_DIR/*.csv"
