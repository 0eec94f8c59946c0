#!/usr/bin/env sh
# Golden-output test: the five committed bench CSVs that reproduce must
# come out byte for byte, and full-precision digests cover what their
# rounded cells cannot see: the sha256 of exp's telemetry trace of LDA x
# EP under DPS on each engine path (flat, under a --tree-shard tree, and
# a job stream), whose values are written in shortest round-trip form,
# and of analyze's report on the flat trace.
# fig1_motivational and ext_thermal run at their defaults, fig6_spark_npb,
# ext_faults and ext_sched at DPS_REPEATS=1. The other committed CSVs
# predate later output changes and are not compared. An intended output
# change updates the CSVs in bench_out/ and the digests below, and says
# why. Registered with ctest by tests/CMakeLists.txt, which passes the
# build directory as $1.
set -eu

BUILD_DIR="$(cd "${1:?usage: golden_test.sh <build_dir>}" && pwd)"
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

# expect_sha256 <digest> <file> <what>: the file has this sha256.
expect_sha256() {
  actual=$(sha256sum "$2" | cut -d' ' -f1)
  if [ "$actual" != "$1" ]; then
    echo "FAIL: $3: sha256 $actual, expected $1" >&2
    status=1
  fi
}

EXP="$BUILD_DIR/tools/exp"
"$EXP" --a LDA --b EP --manager dps --repeats 1 --trace "$WORK/trace.csv" \
  > /dev/null
expect_sha256 a3790b3200dd41c922d4dc05642e0739c4d01f5a776cb669bf64341b2434ecad \
  "$WORK/trace.csv" "exp --a LDA --b EP --manager dps --repeats 1 --trace"
"$EXP" --a LDA --b EP --manager dps --repeats 1 --tree-shard 4 \
  --trace "$WORK/tree.csv" > /dev/null
expect_sha256 c4b7e9032f993d777b64fbc92ce2aa866d954a5ff79910e6be9e22f867025ab4 \
  "$WORK/tree.csv" "exp ... --tree-shard 4 --trace"
"$EXP" --sched-policy backfill --manager dps --arrival-rate 12 --jobs 12 \
  --units 12 --trace "$WORK/jobs.csv" > /dev/null
expect_sha256 46a95d287ce97a23d49f44398e1680acde30584e0fa8281d0164b039490b62ce \
  "$WORK/jobs.csv" "exp --sched-policy backfill ... --trace"
# The report's first line names the trace, so analyze reads it by a fixed
# name from the work directory.
(cd "$WORK" && "$BUILD_DIR/tools/analyze" trace.csv > analyze.txt)
expect_sha256 19f50fd069ea0deb97598d90a7d0f72ebe172383d6a2b9b87511834f43fc3f0b \
  "$WORK/analyze.txt" "analyze trace.csv"
exit "$status"
