#!/usr/bin/env sh
# Kill-and-restart smoke test of the hardened control plane: dpsd runs with
# periodic checkpointing, is killed with SIGKILL mid-session (no orderly
# shutdown), and a second dpsd restores the checkpoint on the same port.
# The resilient dps_node clients ride across the outage — they reconnect
# with their old unit ids — and the restored session's event CSV must
# record the checkpoint_restore. Registered with ctest by
# tests/CMakeLists.txt, which passes the build directory as $1.
set -eu

BUILD_DIR="${1:?usage: restart_smoke_test.sh <build_dir>}"
PORT=$((21000 + $$ % 10000))
CKPT=/tmp/dps_restart_$$.ckpt
EVENTS=/tmp/dps_restart_events_$$.csv
LOG1=/tmp/dpsd_restart1_$$.log
LOG2=/tmp/dpsd_restart2_$$.log
NODE_LOG=/tmp/dps_node_restart_$$.log

cleanup() {
  rm -f "$CKPT" "$CKPT.tmp" "$EVENTS" "$LOG1" "$LOG2" "$NODE_LOG"
}
trap cleanup EXIT

# Phase 1: controller with checkpointing every 5 rounds, no round limit.
"$BUILD_DIR/tools/dpsd" --units 2 --port "$PORT" --budget 220 \
  --period 0.02 --checkpoint "$CKPT" --checkpoint-interval 5 \
  > "$LOG1" 2>&1 &
DPSD_PID=$!

# Resilient clients: generous reconnect budget to ride out the restart.
sleep 0.3
"$BUILD_DIR/tools/dps_node" --port "$PORT" --simulate 2 --seed 7 \
  --attempts 400 --backoff-base 0.01 --backoff-max 0.05 \
  > "$NODE_LOG" 2>&1 &
NODE_PID=$!

# Let a few checkpoints land, then crash the controller hard.
sleep 1.5
kill -9 "$DPSD_PID"
wait "$DPSD_PID" 2>/dev/null || true
[ -s "$CKPT" ] || { echo "no checkpoint was written"; exit 1; }
# Its stdout is line-buffered, so the killed dpsd's log keeps its lines.
grep -q "waiting for" "$LOG1"

# Phase 2: restore on the same port; the clients reconnect and the session
# resumes where the snapshot left off.
"$BUILD_DIR/tools/dpsd" --units 2 --port "$PORT" --budget 220 \
  --period 0.02 --rounds 30 --checkpoint "$CKPT" --checkpoint-interval 5 \
  --restore --obs-events "$EVENTS" > "$LOG2" 2>&1
DPSD_STATUS=$?

wait "$NODE_PID"
NODE_STATUS=$?

grep -q "restored checkpoint at round" "$LOG2"
grep -q "shutting down after 30 rounds" "$LOG2"
grep -q "checkpoint_restore" "$EVENTS"
grep -q "finished after" "$NODE_LOG"

[ "$NODE_STATUS" -eq 0 ] && [ "$DPSD_STATUS" -eq 0 ]
