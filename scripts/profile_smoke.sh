#!/usr/bin/env bash
# End-to-end smoke test for the observability layer: run a small
# benchmark with --trace-out and --profile, assert the JSONL trace is
# non-empty and well-formed, and assert the profile summary names every
# transpiler stage plus the simulator. The trace is left at
# $PROFILE_TRACE_OUT (default: a temp dir) so CI can upload it.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/supermarq
echo "==> building supermarq CLI"
cargo build -q --release -p supermarq-cli

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
TRACE="${PROFILE_TRACE_OUT:-$WORK/trace.jsonl}"

echo "==> traced + profiled run"
"$BIN" run ghz --size 4 --device IonQ --shots 200 --reps 2 \
    --store "$WORK/store" --trace-out "$TRACE" --profile \
    >"$WORK/stdout.txt" 2>"$WORK/profile.txt"
cat "$WORK/profile.txt"

echo "==> asserting trace is non-empty"
[ -s "$TRACE" ] || { echo "FAIL: trace file is empty"; exit 1; }

echo "==> asserting every trace line is well-formed JSON"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$TRACE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [l for l in f if l.strip()]
if not lines:
    sys.exit("FAIL: no trace lines")
for i, line in enumerate(lines, 1):
    try:
        obj = json.loads(line)
    except ValueError as e:
        sys.exit(f"FAIL: line {i} is not valid JSON: {e}")
    if obj.get("type") not in ("span", "event", "log"):
        sys.exit(f"FAIL: line {i} has unknown type {obj.get('type')!r}")
    if obj["type"] == "span" and not (
        isinstance(obj.get("id"), int) and isinstance(obj.get("elapsed_ns"), int)
    ):
        sys.exit(f"FAIL: line {i} span missing id/elapsed_ns")
print(f"ok: {len(lines)} well-formed trace lines")
# Every sim.run sits in its repetition, whichever thread ran it.
spans = {o["id"]: o for o in map(json.loads, lines) if o.get("type") == "span"}
for span in spans.values():
    if span["name"] == "sim.run":
        parent = spans.get(span.get("parent"))
        if parent is None or parent["name"] != "run.repetition":
            sys.exit(f"FAIL: sim.run {span['id']} is not inside a run.repetition span")
print("ok: every sim.run nests under run.repetition")
EOF
else
    # Fallback without python3: structural greps only.
    grep -qv '^{.*}$' "$TRACE" && {
        echo "FAIL: trace contains a non-object line"; exit 1; }
    grep -q '"type":"span"' "$TRACE" || {
        echo "FAIL: trace contains no span lines"; exit 1; }
fi

echo "==> asserting the summary names every pipeline stage"
for stage in bench.generate transpile.decompose transpile.place transpile.route \
             transpile.optimize transpile.schedule run.repetition sim.run bench.score; do
    grep -q "$stage" "$WORK/profile.txt" || {
        echo "FAIL: profile summary is missing $stage"; exit 1; }
done

echo "==> asserting the trace covers the same stages"
for stage in bench.generate transpile.decompose transpile.place transpile.route \
             transpile.optimize transpile.schedule run.repetition sim.run bench.score; do
    grep -q "\"name\":\"$stage\"" "$TRACE" || {
        echo "FAIL: trace has no $stage span"; exit 1; }
done

echo "Profile smoke test passed (trace at $TRACE)."
