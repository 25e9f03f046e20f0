#!/usr/bin/env bash
# Tier-1 gate, runnable locally or from CI. Mirrors
# .github/workflows/ci.yml exactly.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release

echo "==> tests"
cargo test -q

echo "==> benchmark tests (perfbench is a workspace of its own; the root cargo test does not reach it)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> clippy (-D warnings)"
cargo clippy --all-targets -- -D warnings

echo "==> rustfmt check"
cargo fmt --check

echo "==> docs (-D warnings: broken or ambiguous intra-doc links fail the build)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> robustness smoke (10 episodes)"
cargo run -p bpr-bench --bin robustness --release -- --episodes 10

echo "==> determinism smoke (scaling at 1,2 threads; fails on divergence)"
cargo run -p bpr-bench --bin scaling --release -- \
  --episodes 12 --bootstrap-iters 6 --batch 3 --max-steps 200 --threads 1,2

echo "==> kill-and-resume smoke (fails on resume divergence; keeps snapshot)"
cargo run -p bpr-bench --bin kill_resume --release -- \
  --episodes 20 --every 3 --bootstrap-iters 8 --batch 4 --max-steps 200 --threads 1,2

echo "==> planning-throughput smoke (fails on fused/parallel divergence or steady-state allocations)"
cargo run -p bpr-bench --bin planning --release -- \
  --decisions 8 --depth 2 --threads 1,2,4

echo "==> planning perf-gate smoke on a generated 10^3-state scenario (fails under 1.5x lumped+cached speedup, on divergence, or on steady-state allocations)"
cargo run -p bpr-bench --bin planning --release -- \
  --scenario cellfleet-mid --decisions 5 --depth 1 --threads 1,2 \
  --min-speedup 1.5

echo "==> modelcheck (full-corpus lint gate: paper models + generated 10^2-10^4 corpus; fails on errors or unexpected warnings)"
cargo run -p bpr-bench --bin modelcheck --release -- \
  --quiet --out MODELCHECK.json --manifest MODELCHECK_manifest.json

echo "==> certify (certified-bound gate: kernel bounds bracketed by the plan oracle and MDP ceiling, BPR100-series policy analysis; fails on unsound/dominated rows or error findings)"
cargo run -p bpr-bench --bin certify --release -- \
  --quiet --out CERTIFY.json

echo "==> serve chaos-soak smoke (bursty load + fault injection + forced kill/resume, plus a loopback-socket network-chaos soak on web3tier-small; fails on incident loss, divergence, or transport-accounting violations)"
cargo run -p bpr-bench --bin serve --release -- \
  --ticks 120 --kill-round 25 --net-scenarios web3tier-small --net-ticks 48 \
  --out BENCH_serve.json --snapshot serve.snapshot

# Note: `command -v cargo-miri` is a false positive under rustup (the
# proxy shim exists even when the component is absent) — ask rustup.
if rustup component list --installed 2>/dev/null | grep -q "^miri"; then
  echo "==> miri (bpr-linalg + bpr-pomdp unit tests)"
  cargo miri test -p bpr-linalg -p bpr-pomdp --lib -q
else
  echo "==> miri: not installed, skipping (CI runs it on nightly)"
fi

echo "==> ci.sh: all gates passed"
