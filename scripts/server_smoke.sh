#!/usr/bin/env bash
# server_smoke.sh — end-to-end smoke of the spkadd-serve daemon:
# build it, flood it over real HTTP with the firehose example client,
# SIGTERM it mid-flood, and assert a clean graceful drain (exit 0).
#
# The in-process chaos suites prove the failure contracts; this
# script proves the actual binary wires them together: flags, signal
# handling, listener shutdown ordering, exit codes.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

ADDR="127.0.0.1:${SPKADD_SMOKE_PORT:-18471}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/spkadd-serve" ./cmd/spkadd-serve
go build -o "$WORK/firehose" ./examples/firehose

echo "== start daemon on $ADDR"
"$WORK/spkadd-serve" -addr "$ADDR" -queue-wait 50ms -drain-deadline 15s \
  >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
# The daemon must not die on its own while we work.
kill -0 "$SERVE_PID"

for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/readyz" >/dev/null; then break; fi
  [ "$i" = 50 ] && { echo "daemon never became ready" >&2; exit 1; }
  sleep 0.1
done

echo "== flood 1: full firehose, verified snapshot"
"$WORK/firehose" -serve "http://$ADDR" -tenant smoke | tee "$WORK/firehose.log"
grep -q 'snapshot verified bit-exact' "$WORK/firehose.log"

echo "== health and metrics surface the tenant"
# Capture before grepping: grep -q closing the pipe early would turn
# into a spurious curl write error under pipefail.
curl -sf "http://$ADDR/healthz" >"$WORK/healthz.json"
grep -q '"status": "ok"' "$WORK/healthz.json"
curl -sf "http://$ADDR/metrics" >"$WORK/metrics.txt"
grep -q 'spkadd_tenant_pushes_total{tenant="smoke"}' "$WORK/metrics.txt"

echo "== flood 2: SIGTERM mid-flood"
"$WORK/firehose" -serve "http://$ADDR" -tenant smoke2 \
  >"$WORK/firehose2.log" 2>&1 &
FLOOD_PID=$!
sleep 0.2 # let the second flood establish in-flight pushes
kill -TERM "$SERVE_PID"

# The daemon must exit 0: a graceful drain flushed every tenant pool
# with nothing abandoned. The interrupted flood client is expected to
# fail (503s / connection refused once the listener stops) — only its
# termination matters.
SERVE_RC=0; wait "$SERVE_PID" || SERVE_RC=$?
wait "$FLOOD_PID" || true
echo "== daemon exit code: $SERVE_RC"
cat "$WORK/serve.log"
if [ "$SERVE_RC" -ne 0 ]; then
  echo "FAIL: daemon exited $SERVE_RC after SIGTERM (drain not clean)" >&2
  exit 1
fi
grep -q 'drain' "$WORK/serve.log"
echo "PASS: clean drain under SIGTERM mid-flood"
