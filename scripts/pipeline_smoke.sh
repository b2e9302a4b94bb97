#!/usr/bin/env bash
# End-to-end smoke test for the pass-manager pipelines: run one benchmark
# under three named pipelines (closed-default, closed-stages, no-optimize),
# assert the scores agree (stage verification must not perturb results;
# disabling optimization may only move the score within tolerance),
# assert the closed-stages trace JSONL names every pass in the pipeline,
# and run both divisions (closed and --open) through the text and --json
# paths, which must report the same mean score.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/supermarq
echo "==> building supermarq CLI"
cargo build -q --release -p supermarq-cli

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

score_of() {
    # Extracts the mean score from `supermarq run` text output.
    grep '^score:' "$1" | awk '{print $2}'
}

run_pipeline() {
    local name=$1; shift
    "$BIN" run ghz --size 4 --device IonQ --shots 400 --reps 2 --seed 7 \
        --pipeline "$name" --store "$WORK/store-$name" "$@" \
        >"$WORK/$name.txt"
    score_of "$WORK/$name.txt"
}

echo "==> listing built-in pipelines"
"$BIN" transpile passes >"$WORK/passes.txt"
for name in closed-default closed-stages no-optimize; do
    grep -q "$name" "$WORK/passes.txt" || {
        echo "FAIL: 'transpile passes' does not list $name"; exit 1; }
done

TRACE="$WORK/trace.jsonl"
DEFAULT=$(run_pipeline closed-default)
STAGES=$(run_pipeline closed-stages --trace-out "$TRACE")
NOOPT=$(run_pipeline no-optimize)
echo "scores: closed-default=$DEFAULT closed-stages=$STAGES no-optimize=$NOOPT"

echo "==> asserting closed-stages matches closed-default exactly"
[ "$DEFAULT" = "$STAGES" ] || {
    echo "FAIL: stage verification changed the score ($DEFAULT vs $STAGES)"; exit 1; }

echo "==> asserting no-optimize agrees within tolerance"
awk -v a="$DEFAULT" -v b="$NOOPT" 'BEGIN {
    d = a - b; if (d < 0) d = -d;
    if (d > 0.1) { printf "FAIL: scores diverge by %.4f\n", d; exit 1 }
}'

echo "==> asserting the trace names every closed-stages pass"
# Span names cover the stages; the verify spans carry their stage label
# and the run span carries the pipeline name.
for span in transpile.run transpile.optimize transpile.place \
            transpile.route transpile.decompose transpile.verify \
            transpile.schedule; do
    grep -q "\"name\":\"$span\"" "$TRACE" || {
        echo "FAIL: trace has no $span span"; exit 1; }
done
grep -q '"pipeline":"closed-stages"' "$TRACE" || {
    echo "FAIL: run span does not name the pipeline"; exit 1; }
for stage in logical-optimize route decompose optimize; do
    grep -q "\"stage\":\"$stage\"" "$TRACE" || {
        echo "FAIL: trace has no verify span for stage $stage"; exit 1; }
done

echo "==> asserting text and --json runs agree in both divisions"
# The text path calls the runner directly; --json goes through
# execute_spec and prints the store record.
for division in closed open; do
    OPEN=""
    [ "$division" = open ] && OPEN=--open
    "$BIN" run ghz --size 4 --device IonQ --shots 400 --reps 2 --seed 7 $OPEN \
        >"$WORK/$division.txt"
    "$BIN" run ghz --size 4 --device IonQ --shots 400 --reps 2 --seed 7 $OPEN \
        --json --store "$WORK/store-$division" >"$WORK/$division.json"
    grep -q "^division: $division" "$WORK/$division.txt" || {
        echo "FAIL: text run is not in the $division division"; exit 1; }
    grep -q "\"division\":\"$division\"" "$WORK/$division.json" || {
        echo "FAIL: --json record is not in the $division division"; exit 1; }
    TEXT=$(score_of "$WORK/$division.txt")
    JSON=$(grep -o '"mean_score":[^,}]*' "$WORK/$division.json" | cut -d: -f2)
    echo "$division: score=$TEXT mean_score=$JSON"
    [ "$TEXT" = "$(awk -v s="$JSON" 'BEGIN { printf "%.4f", s }')" ] || {
        echo "FAIL: $division text score $TEXT != --json mean_score $JSON"; exit 1; }
done

echo "Pipeline smoke test passed."
