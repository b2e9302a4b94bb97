#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, and the full test suite.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: no doc links to missing, private or ambiguous items)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test"
cargo test -q --workspace

echo "==> e2ebench build (the gated benchmark package is its own workspace)"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo bench (smoke mode: each routine runs once, untimed)"
cargo bench -q -p supermarq-bench --bench substrate -- --test

echo "==> bench assertion (dense CX path must stay within 2.5x of the CX kernel)"
BENCH_ASSERT=1 cargo bench -q -p supermarq-bench --bench substrate -- kernels_18q

echo "==> bench assertion (ambient pool within 1.5x of an installed pool of one on ghz6 trajectories)"
BENCH_ASSERT=1 cargo bench -q -p supermarq-bench --bench substrate -- noisy_trajectories_ghz6

echo "==> bench assertion (100 shots of the 200-qubit GHZ mirror within 1.0x of one CHP run)"
BENCH_ASSERT=1 cargo bench -q -p supermarq-bench --bench substrate -- ghz_200q

echo "==> bench assertion (100 noisy ghz16 shots within 100x of one noiseless 16-qubit final_state)"
BENCH_ASSERT=1 cargo bench -q -p supermarq-bench --bench substrate -- trajectory_throughput

echo "==> cache smoke (batch twice; warm pass must be all cache hits)"
bash scripts/cache_smoke.sh

echo "==> profile smoke (traced run; JSONL + summary must be well-formed)"
bash scripts/profile_smoke.sh

echo "==> pipeline smoke (three pipelines; scores agree, trace names every pass)"
bash scripts/pipeline_smoke.sh

echo "==> lint smoke (suite lints clean, V008 blame, differential certification)"
bash scripts/lint_smoke.sh

echo "==> serve smoke (daemon warm hits, kill -9 resume, graceful shutdown)"
bash scripts/serve_smoke.sh

echo "==> mirror smoke (registry scores every benchmark; mirrors >= 0.99; wide Clifford via CHP)"
bash scripts/mirror_smoke.sh

echo "==> bench gate (serve latency groups vs committed baseline; informational)"
bash scripts/bench_gate.sh

echo "All checks passed."
