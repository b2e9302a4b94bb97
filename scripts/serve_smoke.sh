#!/usr/bin/env bash
# End-to-end smoke test for the serve daemon:
#   1. the same batch shipped twice to a daemon — the second pass must
#      run zero simulations and be byte-identical, and `client watch`
#      must report warm-hit as hits/(hits+misses) from `client stats`;
#   2. `metrics` scraped mid-batch in both formats: the Prometheus body
#      must pass a line-grammar check and carry queue-depth gauges and
#      windowed p50/p99 while work is in flight;
#   3. kill -9 the daemon mid-batch, restart it on the same store — the
#      store must verify clean and a re-request must be byte-identical,
#      completed from warm hits plus re-simulation of the gap;
#   4. `cache stats --format json` must emit the same store object the
#      daemon's `stats` response carries;
#   5. graceful shutdown via `supermarq client shutdown`: the exit
#      summary equals the last `client stats` counters plus the
#      shutdown request itself;
#   6. cross-process tracing: a traced `client run` against a traced
#      daemon must yield two JSONL files sharing one trace id, stitched
#      via remote_parent. The merged file is copied to $SERVE_TRACE_OUT
#      when set (CI uploads it as an artifact).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/supermarq
echo "==> building supermarq CLI"
cargo build -q --release -p supermarq-cli

WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
STORE="$WORK/store"
ADDR_FILE="$WORK/addr.txt"

# Cells are deliberately slow-ish (qaoa-swap, 2000 shots) so the kill
# lands mid-batch with misses still in flight.
GRID=(batch --benchmarks ghz,qaoa-swap --sizes 3,4 --devices IonQ,AQT
      --shots 2000 --seeds 1,2 --reps 2)

start_daemon() { # start_daemon [extra serve args...]
    rm -f "$ADDR_FILE"
    "$BIN" serve --addr 127.0.0.1:0 --store "$STORE" \
        --addr-file "$ADDR_FILE" "$@" >"$WORK/serve.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 300); do
        [ -s "$ADDR_FILE" ] && break
        kill -0 "$DAEMON_PID" 2>/dev/null || {
            echo "FAIL: daemon died on startup"; cat "$WORK/serve.log"; exit 1; }
        sleep 0.1
    done
    ADDR=$(cat "$ADDR_FILE")
    [ -n "$ADDR" ] || { echo "FAIL: daemon never published its address"; exit 1; }
}

serve_stat() { # serve_stat <counter>  — reads one serve.* counter via `client stats`
    "$BIN" client stats --addr "$ADDR" \
        | tr ',{' '\n\n' | sed -n "s/^\"$1\"://p" | head -n 1
}

counter_of() { # counter_of <stats-json> <counter>  — one counter of a saved `client stats`
    printf '%s\n' "$1" | tr ',{' '\n\n' | sed -n "s/^\"$2\"://p" | head -n 1
}

echo "==> starting daemon"
start_daemon

echo "==> client batch pass 1 (cold store)"
"$BIN" client "${GRID[@]}" --addr "$ADDR" >"$WORK/pass1.jsonl" 2>"$WORK/summary1.txt"
cat "$WORK/summary1.txt"

echo "==> client batch pass 2 (warm store)"
SIMS_BEFORE=$(serve_stat simulations)
"$BIN" client "${GRID[@]}" --addr "$ADDR" >"$WORK/pass2.jsonl" 2>"$WORK/summary2.txt"
cat "$WORK/summary2.txt"
SIMS_AFTER=$(serve_stat simulations)

echo "==> asserting warm pass ran zero simulations and is byte-identical"
grep -q "misses=0" "$WORK/summary2.txt" || {
    echo "FAIL: warm pass reported cache misses"; exit 1; }
[ "$SIMS_BEFORE" = "$SIMS_AFTER" ] || {
    echo "FAIL: warm pass simulated ($SIMS_BEFORE -> $SIMS_AFTER)"; exit 1; }
cmp "$WORK/pass1.jsonl" "$WORK/pass2.jsonl" || {
    echo "FAIL: warm pass output differs from cold pass"; exit 1; }

echo "==> client watch warm-hit equals hits/(hits+misses) from client stats"
WATCH=$("$BIN" client watch --count 1 --addr "$ADDR" 2>/dev/null)
WARM_PCT=$(printf '%s\n' "$WATCH" | sed -n 's/.* warm_hit=\([0-9.]*\)%.*/\1/p')
STATS=$("$BIN" client stats --addr "$ADDR")
EXPECTED_PCT=$(awk -v h="$(counter_of "$STATS" hits)" -v m="$(counter_of "$STATS" misses)" \
    'BEGIN { printf "%.1f", (h + m > 0) ? 100 * h / (h + m) : 0 }')
[ -n "$WARM_PCT" ] && [ "$WARM_PCT" = "$EXPECTED_PCT" ] || {
    echo "FAIL: watch warm_hit=${WARM_PCT}% but stats give ${EXPECTED_PCT}%: $WATCH"; exit 1; }

echo "==> metrics scrape mid-batch (both formats)"
# A cold grid (fresh seeds) launched in the background so the scrape
# observes genuinely in-flight work.
SCRAPE_GRID=(batch --benchmarks qaoa-swap --sizes 4 --devices IonQ,AQT
             --shots 2000 --seeds 7,8,9 --reps 2)
"$BIN" client "${SCRAPE_GRID[@]}" --addr "$ADDR" >"$WORK/scrape.jsonl" 2>/dev/null &
SCRAPE_PID=$!
INFLIGHT=""
for _ in $(seq 1 600); do
    INFLIGHT=$("$BIN" client metrics --addr "$ADDR" \
        | tr ',{' '\n\n' | sed -n 's/^"inflight"://p' | head -n 1)
    [ -n "$INFLIGHT" ] && [ "$INFLIGHT" -gt 0 ] && break
    sleep 0.05
done
[ -n "$INFLIGHT" ] && [ "$INFLIGHT" -gt 0 ] || {
    echo "FAIL: batch never showed up as in-flight work"; exit 1; }
"$BIN" client metrics --format prometheus --addr "$ADDR" >"$WORK/metrics.prom"
"$BIN" client metrics --addr "$ADDR" >"$WORK/metrics.json"
wait "$SCRAPE_PID"

echo "==> Prometheus exposition passes the line grammar"
BAD=$(grep -Ev '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?)$' \
    "$WORK/metrics.prom" | grep -v '^$' || true)
[ -z "$BAD" ] || { echo "FAIL: malformed exposition lines:"; echo "$BAD"; exit 1; }
for METRIC in supermarq_serve_requests_total supermarq_serve_queue_depth \
    supermarq_serve_inflight \
    supermarq_serve_request_latency_window_p50_seconds \
    supermarq_serve_request_latency_window_p99_seconds; do
    grep -q "^$METRIC" "$WORK/metrics.prom" || {
        echo "FAIL: exposition missing $METRIC"; exit 1; }
done
grep -q '"window"' "$WORK/metrics.json" || {
    echo "FAIL: JSON metrics missing rolling-window digests"; exit 1; }
"$BIN" client trace --limit 8 --addr "$ADDR" | grep -q '"type":"trace"' || {
    echo "FAIL: trace op did not answer"; exit 1; }

echo "==> kill -9 mid-batch (misses in flight)"
rm -rf "$STORE"  # force a fully cold batch so the kill interrupts real work
"$BIN" client shutdown --addr "$ADDR" >/dev/null
wait "$DAEMON_PID" || true
DAEMON_PID=""
start_daemon
"$BIN" client "${GRID[@]}" --addr "$ADDR" >"$WORK/killed.jsonl" 2>/dev/null &
CLIENT_PID=$!
# Wait until at least one object is published, then murder the daemon.
for _ in $(seq 1 600); do
    [ -d "$STORE/objects" ] && [ -n "$(find "$STORE/objects" -name '*.json' 2>/dev/null | head -n 1)" ] && break
    sleep 0.1
done
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
wait "$CLIENT_PID" 2>/dev/null || true  # client fails or gets a partial batch; either is fine

echo "==> store verifies clean after the crash"
"$BIN" cache verify --store "$STORE"

echo "==> restarted daemon completes the batch byte-identically"
start_daemon
"$BIN" client "${GRID[@]}" --addr "$ADDR" >"$WORK/resumed.jsonl" 2>"$WORK/summary3.txt"
cat "$WORK/summary3.txt"
cmp "$WORK/pass1.jsonl" "$WORK/resumed.jsonl" || {
    echo "FAIL: post-crash replay differs from the original run"; exit 1; }

echo "==> cache stats --format json matches the daemon's store stats"
"$BIN" cache stats --store "$STORE" --format json >"$WORK/cli_stats.json"
CLI_ENTRIES=$(tr ',{' '\n\n' <"$WORK/cli_stats.json" | sed -n 's/^"entries"://p' | head -n 1)
DAEMON_ENTRIES=$("$BIN" client stats --addr "$ADDR" \
    | tr ',{' '\n\n' | sed -n 's/^"entries"://p' | head -n 1)
[ -n "$CLI_ENTRIES" ] && [ "$CLI_ENTRIES" = "$DAEMON_ENTRIES" ] || {
    echo "FAIL: stats disagree (cli=$CLI_ENTRIES daemon=$DAEMON_ENTRIES)"; exit 1; }

echo "==> graceful shutdown"
LAST_STATS=$("$BIN" client stats --addr "$ADDR")
"$BIN" client shutdown --addr "$ADDR"
wait "$DAEMON_PID" || true
DAEMON_PID=""
grep -q "serve: requests=" "$WORK/serve.log" || {
    echo "FAIL: daemon exited without printing its summary"; cat "$WORK/serve.log"; exit 1; }

echo "==> exit summary equals the last stats counters plus the shutdown request"
EXPECTED_SUMMARY="serve:"
for COUNTER in requests hits misses coalesced simulations rejected errors; do
    VALUE=$(counter_of "$LAST_STATS" "$COUNTER")
    [ "$COUNTER" = requests ] && VALUE=$((VALUE + 1))
    EXPECTED_SUMMARY="$EXPECTED_SUMMARY $COUNTER=$VALUE"
done
SUMMARY=$(grep "^serve: requests=" "$WORK/serve.log")
[ "$SUMMARY" = "$EXPECTED_SUMMARY" ] || {
    echo "FAIL: exit summary '$SUMMARY' != last stats plus shutdown '$EXPECTED_SUMMARY'"; exit 1; }

echo "==> cross-process trace propagation (client + daemon JSONL merge)"
start_daemon --trace-out "$WORK/daemon_trace.jsonl"
"$BIN" client run ghz --size 3 --device IonQ --shots 123 --reps 1 --seed 42 \
    --trace-out "$WORK/client_trace.jsonl" --addr "$ADDR" \
    >"$WORK/traced_run.json" 2>"$WORK/traced_run.err"
grep -q "serve timing: source=" "$WORK/traced_run.err" || {
    echo "FAIL: traced run printed no server timing echo"
    cat "$WORK/traced_run.err"; exit 1; }
TRACE_ID=$(grep -o '"trace":"[0-9a-f]\{32\}"' "$WORK/client_trace.jsonl" \
    | head -n 1 | cut -d'"' -f4)
[ -n "$TRACE_ID" ] || { echo "FAIL: client trace file carries no trace id"; exit 1; }
"$BIN" client shutdown --addr "$ADDR"
wait "$DAEMON_PID" || true
DAEMON_PID=""
grep -q "\"trace\":\"$TRACE_ID\"" "$WORK/daemon_trace.jsonl" || {
    echo "FAIL: daemon spans do not continue the client's trace $TRACE_ID"; exit 1; }
grep '"name":"serve.request"' "$WORK/daemon_trace.jsonl" \
    | grep -q '"remote_parent":' || {
    echo "FAIL: serve.request never stitched to the client's span"; exit 1; }
cat "$WORK/client_trace.jsonl" "$WORK/daemon_trace.jsonl" >"$WORK/trace_merged.jsonl"
if [ -n "${SERVE_TRACE_OUT:-}" ]; then
    cp "$WORK/trace_merged.jsonl" "$SERVE_TRACE_OUT"
    echo "merged trace written to $SERVE_TRACE_OUT"
fi

echo "Serve smoke test passed."
