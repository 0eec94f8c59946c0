#!/usr/bin/env sh
# End-to-end smoke test of the deployment daemons: dpsd (controller) and
# dps_node (clients) complete a fixed number of rounds over real TCP and
# both exit cleanly, dpsd printing its stats line and, at shutdown, the
# rounds' phase table; a client whose controller is unreachable exits 1 with
# its error; a controller still waiting for clients stops on SIGTERM, and
# exits 1 when an export it then writes cannot be written; and
# a two-level tree (a root dpsd over two aggregator dpsds, each over one
# dps_node) runs to the root's round limit and shuts down tier by tier.
# Registered with ctest by tests/CMakeLists.txt, which passes the build
# directory as $1.
set -eu

BUILD_DIR="${1:?usage: daemon_smoke_test.sh <build_dir>}"
PORT=$((20000 + $$ % 10000))

# wait_for <file> <text>: waits up to 10 s for <text> to appear in <file>.
wait_for() {
  tries=0
  until grep -q -- "$2" "$1" 2> /dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "no '$2' in $1 after 10 s" >&2
      cat "$1" >&2
      return 1
    fi
    sleep 0.1
  done
}

"$BUILD_DIR/tools/dpsd" --units 3 --port "$PORT" --rounds 60 \
  --period 0.005 --budget 330 > /tmp/dpsd_smoke_$$.log 2>&1 &
DPSD_PID=$!

sleep 0.3
"$BUILD_DIR/tools/dps_node" --port "$PORT" --simulate 3 --seed 11 \
  > /tmp/dps_node_smoke_$$.log 2>&1
NODE_STATUS=$?

wait "$DPSD_PID"
DPSD_STATUS=$?

grep -q "finished after 60 rounds" /tmp/dps_node_smoke_$$.log
grep -q "shutting down after 60 rounds" /tmp/dpsd_smoke_$$.log
grep -qE "decide [0-9.]+ us/round" /tmp/dpsd_smoke_$$.log
for phase in net.collect net.decide net.reply net.uplink core.history \
    core.priority managers.mimd core.readjust core.evict; do
  grep -q "| *$phase " /tmp/dpsd_smoke_$$.log
done
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
# dpsd installs its handlers before it prints that it is waiting.
wait_for "$STOP_LOG" "waiting for"
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

# An export that cannot be written (/dev/full takes no byte) fails that
# shutdown with exit 1, naming the file.
if [ -w /dev/full ]; then
  FULL_LOG=/tmp/dpsd_full_$$.log
  "$BUILD_DIR/tools/dpsd" --units 2 --port 0 --obs-metrics /dev/full \
    > "$FULL_LOG" 2>&1 &
  FULL_PID=$!
  wait_for "$FULL_LOG" "waiting for"
  kill -TERM "$FULL_PID"
  FULL_STATUS=0
  wait "$FULL_PID" || FULL_STATUS=$?
  grep -q "dpsd: fatal: cannot write /dev/full" "$FULL_LOG"
  rm -f "$FULL_LOG"
  [ "$FULL_STATUS" -eq 1 ]
fi

# Two-level tree. Every dpsd listens on a free port (--port 0) and prints
# it on its first line; the aggregators report to the root, checkpoint
# under their parent, and end on the root's shutdown.
TREE=/tmp/dps_tree_smoke_$$
mkdir -p "$TREE"
TREE_PIDS=""
trap 'kill $TREE_PIDS 2> /dev/null || true; rm -rf "$TREE"' EXIT

# port_of <log>: the port a dpsd's first line names.
port_of() {
  sed -n '1s/.*, port \([0-9]*\).*/\1/p' "$1"
}

"$BUILD_DIR/tools/dpsd" --units 2 --port 0 --rounds 40 --period 0.01 \
  > "$TREE/root.log" 2>&1 &
TREE_PIDS=$!
wait_for "$TREE/root.log" "waiting for"
ROOT_PORT=$(port_of "$TREE/root.log")

for s in 0 1; do
  "$BUILD_DIR/tools/dpsd" --units 2 --port 0 --period 0.01 \
    --parent-host 127.0.0.1 --parent-port "$ROOT_PORT" \
    --checkpoint "$TREE/aggr$s.ckpt" > "$TREE/aggr$s.log" 2>&1 &
  TREE_PIDS="$TREE_PIDS $!"
  wait_for "$TREE/aggr$s.log" "waiting for"
  "$BUILD_DIR/tools/dps_node" --port "$(port_of "$TREE/aggr$s.log")" \
    --simulate 2 --seed $((21 + s)) > "$TREE/node$s.log" 2>&1 &
  TREE_PIDS="$TREE_PIDS $!"
done

for pid in $TREE_PIDS; do
  if ! wait "$pid"; then
    echo "a tree process exited nonzero" >&2
    cat "$TREE"/*.log >&2
    exit 1
  fi
done
grep -q "shutting down after 40 rounds" "$TREE/root.log"
for s in 0 1; do
  grep -q "(parent shutdown)" "$TREE/aggr$s.log"
  grep -q "finished after" "$TREE/node$s.log"
  [ -s "$TREE/aggr$s.ckpt" ]
done
