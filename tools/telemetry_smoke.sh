#!/usr/bin/env bash
# Live smoke test for the telemetry plane (DESIGN.md §16, EXPERIMENTS.md
# X15): boots a real smadb_server, scrapes /metrics + /healthz over HTTP,
# lints the exposition format, probes via smadb_cli --health/--metrics,
# and verifies that `kill query <id>` cancels a long-running scan.
#
# Usage: tools/telemetry_smoke.sh BUILD_DIR [PORT]
#   BUILD_DIR  directory holding examples/smadb_server + examples/smadb_cli
#   PORT       SQL port (default 7878; telemetry is PORT+1)
#
# Exits non-zero on the first failed check. Run from the repo root.
set -u

BUILD_DIR=${1:?usage: tools/telemetry_smoke.sh BUILD_DIR [PORT]}
PORT=${2:-7878}
HTTP_PORT=$((PORT + 1))
SERVER="$BUILD_DIR/examples/smadb_server"
CLI="$BUILD_DIR/examples/smadb_cli"
ROWS=${SMADB_SMOKE_ROWS:-6000000}
TMP=$(mktemp -d /tmp/smadb_smoke.XXXXXX)
SERVER_PID=

fail() { echo "telemetry_smoke: FAIL: $*" >&2; exit 1; }
note() { echo "telemetry_smoke: $*"; }

cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

[ -x "$SERVER" ] || fail "no server binary at $SERVER"
[ -x "$CLI" ] || fail "no cli binary at $CLI"

# A statement runner: pipes one or more statements through the CLI shell.
sql() { printf '%s\n' "$@" | "$CLI" "$PORT"; }

# ---- boot ------------------------------------------------------------------
note "starting smadb_server on :$PORT (telemetry :$HTTP_PORT, $ROWS rows)"
"$SERVER" "$PORT" --rows "$ROWS" -q > "$TMP/server.log" 2>&1 &
SERVER_PID=$!

ready=
for _ in $(seq 1 150); do  # seeding $ROWS rows takes a few seconds
  if curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null 2>&1; then
    ready=1; break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.2
done
[ -n "$ready" ] || { cat "$TMP/server.log" >&2; fail "server never became healthy"; }

# ---- scrape + lint ---------------------------------------------------------
# Warm the query plane first so the scrape carries query-path samples too.
sql "select region, sum(amount), count(*) from sales group by region" \
  > /dev/null || fail "warm-up query failed"

curl -fsS "http://127.0.0.1:$HTTP_PORT/metrics" > "$TMP/metrics.txt" \
  || fail "GET /metrics failed"
python3 tools/promlint.py "$TMP/metrics.txt" \
  || fail "live /metrics output failed promlint"
grep -q '^smadb_queries_total [1-9]' "$TMP/metrics.txt" \
  || fail "/metrics does not show the warm-up query"

curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz" > "$TMP/healthz.json" \
  || fail "GET /healthz failed"
grep -q '"status": "ok"' "$TMP/healthz.json" || fail "healthz not ok"

curl -fsS "http://127.0.0.1:$HTTP_PORT/statusz" | grep -q '"knobs"' \
  || fail "statusz missing knob snapshot"
curl -fsS "http://127.0.0.1:$HTTP_PORT/debug/queries" | head -c1 | grep -q '\[' \
  || fail "debug/queries is not a JSON array"
curl -fsS "http://127.0.0.1:$HTTP_PORT/debug/trace" | grep -q '"span"' \
  || fail "debug/trace missing spans"
note "scrape + exposition lint OK"

# ---- cli probe flags -------------------------------------------------------
"$CLI" --health "$HTTP_PORT" > /dev/null || fail "smadb_cli --health exit $?"
"$CLI" --metrics "$HTTP_PORT" > "$TMP/cli_metrics.txt" \
  || fail "smadb_cli --metrics exit $?"
python3 tools/promlint.py "$TMP/cli_metrics.txt" \
  || fail "--metrics body failed promlint"
if "$CLI" --health $((HTTP_PORT + 17)) > /dev/null 2>&1; then
  fail "--health against a dead port must exit non-zero"
fi
note "cli probes OK"

# ---- kill query cancels a long scan ----------------------------------------
# The victim runs a serial scan over the whole table (about 0.4 s at 6 M
# rows on a 4-core x86 box); the killer polls `show queries` for its id
# and kills it.
# The window is real scheduling, so retry the whole dance a few times —
# but a kill that lands MUST produce a typed cancelled error.
killed=
for attempt in 1 2 3 4 5; do
  sql "set dop = 1" \
      "select region, sum(amount), count(*) from sales group by region" \
    > "$TMP/victim.out" 2>&1 &
  VICTIM_PID=$!

  for _ in $(seq 1 100); do
    qid=$(sql "show queries" 2>/dev/null \
          | sed -n 's/^\[q\([0-9]*\) .*sql=select.*/\1/p' | head -n1)
    if [ -n "$qid" ]; then
      if sql "kill query $qid" 2>/dev/null | grep -q '^OK$'; then
        break
      fi
    fi
    kill -0 "$VICTIM_PID" 2>/dev/null || break
    sleep 0.05
  done
  wait "$VICTIM_PID"
  if grep -qi 'ERR.*cancel' "$TMP/victim.out"; then
    killed=1
    note "kill query cancelled the scan on attempt $attempt"
    break
  fi
  note "attempt $attempt: scan finished before the kill landed; retrying"
done
[ -n "$killed" ] || { cat "$TMP/victim.out" >&2; \
  fail "kill query never cancelled the scan"; }

# ---- graceful exit ---------------------------------------------------------
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=
[ "$rc" -eq 0 ] || { cat "$TMP/server.log" >&2; \
  fail "server exited $rc after SIGTERM"; }
note "PASS"
