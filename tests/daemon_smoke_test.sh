#!/usr/bin/env sh
# End-to-end smoke test of the deployment daemons: dpsd (controller) and
# dps_node (clients) complete a fixed number of rounds over real TCP and
# both exit cleanly; a client whose controller is unreachable exits 1 with
# its error; a controller still waiting for clients stops on SIGTERM.
# Registered with ctest by tests/CMakeLists.txt, which passes the build
# directory as $1.
set -eu

BUILD_DIR="${1:?usage: daemon_smoke_test.sh <build_dir>}"
PORT=$((20000 + $$ % 10000))

"$BUILD_DIR/tools/dpsd" --units 3 --port "$PORT" --rounds 50 \
  --period 0.005 --budget 330 > /tmp/dpsd_smoke_$$.log 2>&1 &
DPSD_PID=$!

sleep 0.3
"$BUILD_DIR/tools/dps_node" --port "$PORT" --simulate 3 --seed 11 \
  > /tmp/dps_node_smoke_$$.log 2>&1
NODE_STATUS=$?

wait "$DPSD_PID"
DPSD_STATUS=$?

grep -q "finished after 50 rounds" /tmp/dps_node_smoke_$$.log
grep -q "shutting down after 50 rounds" /tmp/dpsd_smoke_$$.log
rm -f /tmp/dpsd_smoke_$$.log /tmp/dps_node_smoke_$$.log

[ "$NODE_STATUS" -eq 0 ] && [ "$DPSD_STATUS" -eq 0 ]

# Nothing listens on port 1: the client gives up after its attempts, prints
# which unit failed and exits 1 (not an abort from an uncaught exception).
CLOSED_LOG=/tmp/dps_node_closed_$$.log
CLOSED_STATUS=0
"$BUILD_DIR/tools/dps_node" --port 1 --simulate 1 --attempts 2 \
  --backoff-base 0.01 --backoff-max 0.02 > /dev/null 2> "$CLOSED_LOG" ||
  CLOSED_STATUS=$?
grep -q "dps_node: unit 0: fatal" "$CLOSED_LOG"
rm -f "$CLOSED_LOG"
[ "$CLOSED_STATUS" -eq 1 ]

# A controller waiting for clients that never come stops on SIGTERM within
# 2 s, exits 0 and writes its observability exports.
STOP_LOG=/tmp/dpsd_stop_$$.log
STOP_EVENTS=/tmp/dpsd_stop_$$.csv
"$BUILD_DIR/tools/dpsd" --units 2 --port 0 --obs-events "$STOP_EVENTS" \
  > "$STOP_LOG" 2>&1 &
STOP_PID=$!
# Its stdout is a file, so fully buffered: give it time to install its
# handlers rather than waiting for a line.
sleep 1
kill -TERM "$STOP_PID"
tries=0
while kill -0 "$STOP_PID" 2> /dev/null && [ "$tries" -lt 20 ]; do
  sleep 0.1
  tries=$((tries + 1))
done
if kill -0 "$STOP_PID" 2> /dev/null; then
  kill -9 "$STOP_PID"
  echo "dpsd still waiting for clients 2 s after SIGTERM" >&2
  exit 1
fi
STOP_STATUS=0
wait "$STOP_PID" || STOP_STATUS=$?
grep -q "shutting down after 0 rounds" "$STOP_LOG"
[ -s "$STOP_EVENTS" ]
rm -f "$STOP_LOG" "$STOP_EVENTS"
[ "$STOP_STATUS" -eq 0 ]
