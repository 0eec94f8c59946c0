#!/usr/bin/env sh
# Config-rejection smoke test: a malformed INI value must stop exp and dpsd
# at startup with an error naming its section, key and line, and the
# shipped configs/dps.ini must load and run. Registered with ctest by
# tests/CMakeLists.txt, which passes the build directory as $1.
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
  if ! grep -qF "$message" "$WORK/err"; then
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

"$BUILD_DIR/tools/exp" --config "$SOURCE_DIR/configs/dps.ini" --repeats 1 \
  > "$WORK/out"
