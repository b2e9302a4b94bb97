#!/usr/bin/env bash
# End-to-end smoke test for the run-artifact store: run the same batch
# sweep twice against a throwaway store and assert that the second pass
# is served entirely from cache with byte-identical output, then check
# that `cache verify` and `cache gc` agree the store is clean. Finally,
# edit one stored spec without its hash: verify must flag it, a third
# pass must re-run exactly that cell with output identical to the first,
# and the store must verify clean again.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/supermarq
echo "==> building supermarq CLI"
cargo build -q --release -p supermarq-cli

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
STORE="$WORK/store"

GRID=(batch --benchmarks ghz,hamsim --sizes 3,4 --devices IonQ,AQT
      --shots 200 --reps 2 --store "$STORE")

echo "==> batch pass 1 (cold store)"
"$BIN" "${GRID[@]}" --out "$WORK/pass1.jsonl" | tee "$WORK/summary1.txt"

echo "==> batch pass 2 (warm store)"
"$BIN" "${GRID[@]}" --out "$WORK/pass2.jsonl" | tee "$WORK/summary2.txt"

echo "==> asserting second pass ran zero simulations"
grep -q "misses=0" "$WORK/summary2.txt" || {
    echo "FAIL: warm pass reported cache misses"; exit 1; }
grep -q "hits=0 " "$WORK/summary1.txt" || {
    echo "FAIL: cold pass unexpectedly hit the cache"; exit 1; }

echo "==> asserting passes are byte-identical"
cmp "$WORK/pass1.jsonl" "$WORK/pass2.jsonl" || {
    echo "FAIL: warm pass output differs from cold pass"; exit 1; }

echo "==> cache verify"
"$BIN" cache verify --store "$STORE"

echo "==> cache gc (clean store: nothing to remove)"
"$BIN" cache gc --store "$STORE" | tee "$WORK/gc.txt"
grep -q "0 invalid object(s)" "$WORK/gc.txt" || {
    echo "FAIL: gc removed objects from a clean store"; exit 1; }

echo "==> tamper: edit one object's spec, leave its hash"
OBJ=$(find "$STORE/objects" -name '*.json' | sort | head -n 1)
sed -i 's/"shots":200,/"shots":201,/' "$OBJ"
grep -q '"shots":201,' "$OBJ" || {
    echo "FAIL: the tamper edit did not apply to $OBJ"; exit 1; }

echo "==> cache verify (must fail on the tampered entry)"
if "$BIN" cache verify --store "$STORE" >"$WORK/verify3.txt" 2>&1; then
    cat "$WORK/verify3.txt"
    echo "FAIL: cache verify passed a tampered store"; exit 1
fi
cat "$WORK/verify3.txt"
grep -q " 1 corrupt," "$WORK/verify3.txt" || {
    echo "FAIL: cache verify did not report 1 corrupt entry"; exit 1; }

echo "==> batch pass 3 (the tampered cell must miss and re-run)"
"$BIN" "${GRID[@]}" --out "$WORK/pass3.jsonl" | tee "$WORK/summary3.txt"
grep -q "misses=1 " "$WORK/summary3.txt" || {
    echo "FAIL: pass 3 did not re-run exactly the tampered cell"; exit 1; }
cmp "$WORK/pass1.jsonl" "$WORK/pass3.jsonl" || {
    echo "FAIL: pass 3 output differs from pass 1"; exit 1; }

echo "==> cache verify (the re-run republished the cell)"
"$BIN" cache verify --store "$STORE"

echo "Cache smoke test passed."
