#!/usr/bin/env bash
# Registry + mirror smoke test: every registered benchmark must score on
# a device through the registry path, and every mirror variant must
# score >= 0.99 noiselessly (a mirror circuit is U then U-inverse, so an
# ideal simulator must land back on all-zeros). Clifford mirrors are
# additionally exercised at >= 50 qubits, where only the CHP tableau
# path can verify them.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/supermarq
echo "==> building supermarq CLI"
cargo build -q --release -p supermarq-cli

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "==> bench list names all twelve registered benchmarks"
"$BIN" bench list >"$WORK/list.txt"
ALL_IDS="ghz mermin-bell bit-code phase-code qaoa-vanilla qaoa-swap vqe hamsim qft bv adder grover"
for id in $ALL_IDS; do
    grep -q "^$id " "$WORK/list.txt" || {
        echo "FAIL: 'bench list' does not name $id"; exit 1; }
done

# Small per-benchmark sizes: large enough to be non-trivial, small
# enough that statevector mirrors stay fast.
size_for() {
    case "$1" in
        adder|grover|bit-code|phase-code) echo 3 ;;
        *) echo 4 ;;
    esac
}

echo "==> every registered benchmark scores on a device via the registry"
for id in $ALL_IDS; do
    size=$(size_for "$id")
    "$BIN" run "$id" --size "$size" --device IonQ --shots 200 --reps 1 \
        --seed 7 --store "$WORK/store" >"$WORK/run-$id.txt"
    grep -q '^score:' "$WORK/run-$id.txt" || {
        echo "FAIL: 'run $id' produced no score"; exit 1; }
done

echo "==> every mirror variant scores >= 0.99 noiselessly"
for id in $ALL_IDS; do
    size=$(size_for "$id")
    "$BIN" bench mirror "$id" --size "$size" --shots 400 --seed 7 \
        --min 0.99 >"$WORK/mirror-$id.txt" || {
        echo "FAIL: mirror of $id below 0.99"; cat "$WORK/mirror-$id.txt"
        exit 1; }
done

echo "==> Clifford mirrors verify at >= 50 qubits through the CHP path"
# The five mirror-wide shapes; the bit and phase codes apply X and Z.
for spec in "ghz 100" "ghz 200" "bv 60" "bit-code 50" "phase-code 50"; do
    set -- $spec
    id=$1 size=$2
    out="$WORK/wide-$id-$size.txt"
    "$BIN" bench mirror "$id" --size "$size" --shots 100 --seed 7 \
        --min 0.99 >"$out" || {
        echo "FAIL: wide mirror of $id below 0.99"; cat "$out"
        exit 1; }
    grep -q '^path: clifford' "$out" || {
        echo "FAIL: $size-qubit $id mirror did not take the CHP path"
        cat "$out"; exit 1; }
done

echo "mirror smoke passed."
