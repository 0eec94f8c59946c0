#!/usr/bin/env sh
# Config-rejection smoke test: a malformed INI value must stop exp, dpsd
# and dps_node at startup with an error naming its section, key and line, a malformed
# flag must stop exp, dpsd, dps_node and analyze naming the flag, a malformed bench
# knob must stop a bench naming the knob, each tool's --help must list
# exactly its flags, exp must record by its [obs] and --trace in both
# modes, a trace or export that cannot be written must fail exp, and the
# shipped configs/dps.ini must load and run.
# Registered with ctest by tests/CMakeLists.txt, which passes the build
# directory as $1.
set -eu

BUILD_DIR="${1:?usage: config_smoke_test.sh <build_dir>}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
WORK="${TMPDIR:-/tmp}/dps_config_smoke_$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT

# Runs the command with stderr in $WORK/err and returns its exit status,
# or kills it and returns 124 if it is still running after 5 seconds (a
# dpsd that accepted its config waits for clients forever).
bounded() {
  "$@" > "$WORK/out" 2> "$WORK/err" &
  pid=$!
  tries=0
  while kill -0 "$pid" 2> /dev/null && [ "$tries" -lt 50 ]; do
    sleep 0.1
    tries=$((tries + 1))
  done
  if kill -0 "$pid" 2> /dev/null; then
    kill -9 "$pid"
    wait "$pid" || true
    return 124
  fi
  wait "$pid"
}

# expect_rejected <message> <command...>: nonzero exit in time, message on
# stderr.
expect_rejected() {
  message="$1"
  shift
  status=0
  bounded "$@" || status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
    echo "FAIL: status $status from: $*" >&2
    exit 1
  fi
  if ! grep -qF -- "$message" "$WORK/err"; then
    echo "FAIL: no '$message' on stderr of: $*" >&2
    cat "$WORK/err" >&2
    exit 1
  fi
}

printf '[dps]\nhistory_length = twenty\n' > "$WORK/bad_dps.ini"
expect_rejected "[dps]: history_length" \
  "$BUILD_DIR/tools/exp" --config "$WORK/bad_dps.ini"
grep -q "at line 2" "$WORK/err"

printf '[net]\nround_deadline_s = abc\n' > "$WORK/bad_net.ini"
expect_rejected "[net]: round_deadline_s" \
  "$BUILD_DIR/tools/dpsd" --units 1 --port 0 --config "$WORK/bad_net.ini"
grep -q "at line 2" "$WORK/err"
# dps_node reads the same file's [net].
expect_rejected "[net]: round_deadline_s" \
  "$BUILD_DIR/tools/dps_node" --simulate 1 --config "$WORK/bad_net.ini"
grep -q "at line 2" "$WORK/err"
printf '[dps]\nhistory_length = 20\n\n[net]\nreconnect_max_attempts = 0\n' \
  > "$WORK/bad_client.ini"
expect_rejected "[net]: reconnect_max_attempts" \
  "$BUILD_DIR/tools/dps_node" --simulate 1 --config "$WORK/bad_client.ini"
grep -q "at line 5" "$WORK/err"
# A flag overrides the file's key: with --attempts 1 the same file
# configures a client, whose one attempt at a closed local port fails with
# exit 1, not the configuration error's 2.
status=0
bounded "$BUILD_DIR/tools/dps_node" --simulate 1 --port 1 --attempts 1 \
  --config "$WORK/bad_client.ini" || status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: dps_node --attempts over the file's key: status $status" >&2
  cat "$WORK/err" >&2
  exit 1
fi

# --manager slurm builds SLURM from the file's [stateless], in dpsd as in
# exp, so a value its controller refuses stops both.
printf '[stateless]\ndec_window_steps = 0\n' > "$WORK/bad_stateless.ini"
expect_rejected "MimdConfig" "$BUILD_DIR/tools/dpsd" --units 1 --port 0 \
  --manager slurm --config "$WORK/bad_stateless.ini"
expect_rejected "MimdConfig" "$BUILD_DIR/tools/exp" --manager slurm \
  --repeats 1 --config "$WORK/bad_stateless.ini"

# A flag's value obeys its field's type and range; the error names the flag.
expect_rejected "--repeats" "$BUILD_DIR/tools/exp" --repeats 1x
expect_rejected "--jobs" "$BUILD_DIR/tools/exp" --sched-policy fcfs --jobs abc
expect_rejected "--tree-shard" "$BUILD_DIR/tools/exp" --sched-policy fcfs \
  --jobs 5 --tree-shard abc
expect_rejected "--port" "$BUILD_DIR/tools/dpsd" --units 2 --port 70000
expect_rejected "--round-deadline" "$BUILD_DIR/tools/dpsd" --units 1 \
  --round-deadline -1
expect_rejected "--attempts" "$BUILD_DIR/tools/dps_node" --simulate 1 \
  --attempts 0
# A parent port without a parent host is refused, not run as a root.
expect_rejected "[ctrl]: parent_port needs a parent_host from --parent-port" \
  "$BUILD_DIR/tools/dpsd" --units 1 --port 0 --parent-port 9570

# expect_knob_rejected <NAME=value>: a bench knob that does not parse or is
# out of range stops the bench before any work with exit 2, naming the knob.
expect_knob_rejected() {
  status=0
  bounded env "$1" DPS_OUT="$WORK" "$BUILD_DIR/bench/table4_npb_workloads" ||
    status=$?
  if [ "$status" -ne 2 ] || ! grep -qF -- "${1%%=*}" "$WORK/err"; then
    echo "FAIL: $1 table4_npb_workloads: status $status" >&2
    cat "$WORK/err" >&2
    exit 1
  fi
}
expect_knob_rejected DPS_REPEATS=1x
expect_knob_rejected DPS_REPEATS=0

# expect_exit <status> <message> <command...>: rejected with that exit
# status, message on stderr.
expect_exit() {
  code="$1"
  shift
  expect_rejected "$@"
  if [ "$status" -ne "$code" ]; then
    shift
    echo "FAIL: status $status, not $code, from: $*" >&2
    exit 1
  fi
}
# A directory given as --config is refused, not read as an empty file.
expect_exit 2 "IniFile: cannot open $WORK" "$BUILD_DIR/tools/exp" \
  --config "$WORK" --a LR --b EP --repeats 1

# The perf benches' float floors and perf_smoke's DPS_JOBS are checked the
# same way, before the first timed phase.
expect_exit 2 DPS_PERF_MIN_SPEEDUP env DPS_PERF_MIN_SPEEDUP=x \
  DPS_OUT="$WORK" "$BUILD_DIR/bench/perf_smoke"
expect_exit 2 DPS_PERF_MIN_STEPS_PER_S env DPS_PERF_MIN_STEPS_PER_S=x \
  DPS_OUT="$WORK" "$BUILD_DIR/bench/perf_steps"
expect_exit 2 DPS_JOBS env DPS_JOBS=abc DPS_OUT="$WORK" \
  "$BUILD_DIR/bench/perf_smoke"

# analyze takes the trace first and its flags after it; an unknown flag or
# a flag without its value stops it before it reads the trace.
"$BUILD_DIR/tools/exp" --a Sort --b IS --repeats 1 --trace "$WORK/trace.csv" \
  > "$WORK/out"
"$BUILD_DIR/tools/analyze" "$WORK/trace.csv" --split 10 > "$WORK/out"
grep -q "fairness(units 0..9 vs 10..19)" "$WORK/out"
expect_exit 2 "unknown argument '--splt'" "$BUILD_DIR/tools/analyze" \
  "$WORK/trace.csv" --splt 5
expect_exit 2 "--split needs a value" "$BUILD_DIR/tools/analyze" \
  "$WORK/trace.csv" --split

# exp records its one run by the same rule in both modes: `enabled` in the
# file's [obs] turns obs on for a pair, which writes the exports the file
# names, and --trace writes a job stream's trace.
printf '[obs]\nenabled = true\nexport_prometheus = %s\n' "$WORK/obs.prom" \
  > "$WORK/obs.ini"
"$BUILD_DIR/tools/exp" --a Sort --b IS --repeats 1 --config "$WORK/obs.ini" \
  > "$WORK/out"
grep -q "phases of the recorded run" "$WORK/out"
grep -q "^engine_steps_total [1-9]" "$WORK/obs.prom"
"$BUILD_DIR/tools/exp" --sched-policy fcfs --jobs 4 --units 8 \
  --trace "$WORK/jobs.csv" > "$WORK/out"
grep -q "^time,unit,true_power" "$WORK/jobs.csv"

# A file that takes no byte (/dev/full) fails the run that writes to it
# with exit 1, naming the file, whichever output it is; so does obs_dump's
# conversion of an events CSV.
if [ -w /dev/full ]; then
  for output in --trace --obs-events --obs-metrics --obs-trace; do
    expect_exit 1 "cannot write /dev/full" "$BUILD_DIR/tools/exp" \
      --a Sort --b IS --repeats 1 "$output" /dev/full
  done
  "$BUILD_DIR/tools/exp" --a Sort --b IS --repeats 1 \
    --obs-events "$WORK/events.csv" > "$WORK/out"
  expect_exit 1 "cannot write /dev/full" "$BUILD_DIR/tools/obs_dump" \
    "$WORK/events.csv" /dev/full
fi

# expect_flags <tool> <flag...>: --help (and -h) lists exactly these flags.
expect_flags() {
  tool="$1"
  shift
  "$BUILD_DIR/tools/$tool" --help > "$WORK/help"
  "$BUILD_DIR/tools/$tool" -h | cmp -s - "$WORK/help"
  grep -q -- "-h, --help" "$WORK/help"
  grep -oE '^  --[a-z-]+' "$WORK/help" | sed 's/^  //' | sort > "$WORK/listed"
  printf '%s\n' "$@" | sort > "$WORK/expected"
  if ! cmp -s "$WORK/listed" "$WORK/expected"; then
    echo "FAIL: $tool --help lists other flags than expected" >&2
    diff "$WORK/expected" "$WORK/listed" >&2 || true
    exit 1
  fi
}

expect_flags exp --a --b --manager --repeats --seed --budget --sockets \
  --trace --config --obs-metrics --obs-events --obs-trace --list \
  --sched-policy --arrival-rate --jobs --job-trace --units --tree-shard \
  --tree-jobs --thermal --thermal-trip --thermal-clear --thermal-cap
expect_flags dpsd --units --port --budget --tdp --min-cap --manager \
  --config --period --rounds --bind-any --round-deadline --checkpoint \
  --checkpoint-interval --restore --parent-host --parent-port --parent-unit \
  --obs-metrics --obs-events --obs-trace
expect_flags dps_node --host --port --sysfs --simulate --seed --config \
  --failsafe-cap --attempts --backoff-base --backoff-max
expect_flags analyze --split

"$BUILD_DIR/tools/exp" --config "$SOURCE_DIR/configs/dps.ini" --repeats 1 \
  > "$WORK/out"
