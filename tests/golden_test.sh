#!/usr/bin/env sh
# Golden-output test: the five committed bench CSVs that reproduce must
# come out byte for byte, and one full-precision digest covers what their
# rounded cells cannot see: the sha256 of exp's telemetry trace of LDA x
# EP under DPS, whose values are written in shortest round-trip form.
# fig1_motivational and ext_thermal run at their defaults, fig6_spark_npb,
# ext_faults and ext_sched at DPS_REPEATS=1. The other committed CSVs
# predate later output changes and are not compared. An intended output
# change updates the CSVs in bench_out/ and the digest below, and says why.
# Registered with ctest by tests/CMakeLists.txt, which passes the build
# directory as $1.
set -eu

BUILD_DIR="${1:?usage: golden_test.sh <build_dir>}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${TMPDIR:-/tmp}/dps_golden_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT
# The goldens are for the benches' own defaults.
unset DPS_REPEATS DPS_SEED

DPS_OUT="$WORK" "$BUILD_DIR/bench/fig1_motivational" > /dev/null
DPS_OUT="$WORK" "$BUILD_DIR/bench/ext_thermal" > /dev/null
for bench in fig6_spark_npb ext_faults ext_sched; do
  DPS_REPEATS=1 DPS_OUT="$WORK" "$BUILD_DIR/bench/$bench" > /dev/null
done
status=0
for csv in fig1_motivational ext_thermal fig6_spark_npb ext_faults \
           ext_sched; do
  # cmp names the first differing byte.
  cmp "$WORK/$csv.csv" "$SOURCE_DIR/bench_out/$csv.csv" || status=1
done

"$BUILD_DIR/tools/exp" --a LDA --b EP --manager dps --repeats 1 \
  --trace "$WORK/trace.csv" > /dev/null
expected=a3790b3200dd41c922d4dc05642e0739c4d01f5a776cb669bf64341b2434ecad
actual=$(sha256sum "$WORK/trace.csv" | cut -d' ' -f1)
if [ "$actual" != "$expected" ]; then
  echo "FAIL: exp --a LDA --b EP --manager dps --repeats 1 --trace:" \
       "sha256 $actual, expected $expected" >&2
  status=1
fi
exit "$status"
