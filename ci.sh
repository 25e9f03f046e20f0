#!/usr/bin/env bash
# Tier-1 gate, runnable locally or from CI. Mirrors
# .github/workflows/ci.yml exactly.
set -euo pipefail
cd "$(dirname "$0")"

# Smoke outputs (benchmark JSONs, the modelcheck manifest, snapshots)
# go here, so a run never overwrites the committed artifacts.
out=target/ci
mkdir -p "$out"

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
  --episodes 12 --bootstrap-iters 6 --batch 3 --max-steps 200 --threads 1,2 \
  --out "$out/BENCH_scaling.json"

echo "==> kill-and-resume smoke (fails on resume divergence; keeps snapshot)"
cargo run -p bpr-bench --bin kill_resume --release -- \
  --episodes 20 --every 3 --bootstrap-iters 8 --batch 4 --max-steps 200 --threads 1,2 \
  --out "$out/BENCH_kill_resume.json" --snapshot "$out/kill_resume.snapshot"

echo "==> planning-throughput smoke (fails under a 5x cold-path speedup over legacy on the dense EMN kernel, best of five interleaved passes per side, on fused divergence from legacy at the uniform or null point belief, if the root shares no afterstate at the null point, or on steady-state allocations)"
cargo run -p bpr-bench --bin planning --release -- \
  --decisions 40 --depth 2 \
  --min-speedup 5 --out "$out/BENCH_planning_emn.json"

echo "==> planning identity smoke at depth 3 on EMN (no speedup gate; fails on fused divergence from legacy, or on steady-state allocations: frontier nodes under two interior layers, whose skipped actions' node counts replay through the depth-2 cache)"
cargo run -p bpr-bench --bin planning --release -- \
  --decisions 10 --depth 3 --cutoff 1e-2 \
  --out "$out/BENCH_planning_emn_d3.json"

echo "==> planning identity smoke at depth 2 on a generated 10^2-state scenario (no speedup gate; fails on fused divergence from legacy, or on steady-state allocations: a second model family for the interior-node afterstate sharing)"
cargo run -p bpr-bench --bin planning --release -- \
  --scenario web3tier-small --decisions 10 --depth 2 \
  --out "$out/BENCH_planning_web3tier-small.json"

echo "==> planning perf-gate smoke on a generated 10^3-state scenario (fails under a 1.5x cold-path speedup over legacy, best of five interleaved passes per side, on divergence from legacy on the sparse layout, or on steady-state allocations of the cold path)"
cargo run -p bpr-bench --bin planning --release -- \
  --scenario cellfleet-mid --decisions 5 --depth 1 \
  --min-speedup 1.5 --out "$out/BENCH_planning_cellfleet-mid.json"

echo "==> modelcheck (full-corpus lint gate: paper models + generated 10^2-10^4 corpus; fails on errors or unexpected warnings)"
cargo run -p bpr-bench --bin modelcheck --release -- \
  --quiet --out MODELCHECK.json --manifest "$out/MODELCHECK_manifest.json"

echo "==> lint corpus unchanged (the regenerated MODELCHECK.json must equal the committed one)"
git diff --exit-code -- MODELCHECK.json

echo "==> certify (certified-bound gate: kernel bounds bracketed by the plan oracle and MDP ceiling, BPR100-series policy analysis; fails on unsound/dominated rows or error findings)"
cargo run -p bpr-bench --bin certify --release -- \
  --quiet --out CERTIFY.json

echo "==> certified bounds unchanged (the regenerated CERTIFY.json must equal the committed one)"
git diff --exit-code -- CERTIFY.json

echo "==> fig5 (Random and Average bootstrap curves on EMN, paper Fig. 5)"
cargo run -p bpr-bench --bin fig5 --release -- \
  --iterations 20 --seed 7 --csv fig5.csv

echo "==> bootstrap curves unchanged (the regenerated fig5.csv must equal the committed one)"
git diff --exit-code -- fig5.csv

echo "==> serve chaos-soak smoke (bursty load + fault injection + forced kill/resume, plus a loopback-socket network-chaos soak on web3tier-small; fails on incident loss, divergence, or transport-accounting violations)"
cargo run -p bpr-bench --bin serve --release -- \
  --ticks 120 --kill-round 25 --net-scenarios web3tier-small --net-ticks 48 \
  --out "$out/BENCH_serve.json" --snapshot "$out/serve.snapshot"

echo "==> perfbench smoke (each workload at seed 1 for 2 s, plus a traced emn-serve run; fails if a run or the traced replay's bit-exact check fails, or if a work digest differs from the pinned one)"
for spec in emn-serve:0:6216e896f8acb9c7 fleet-burst:0:f876377ff72392c0 \
            emn-improve:0:6d81ada39441046a emn-serve:1:8fb87e544b4204fd; do
  IFS=: read -r workload trace want <<<"$spec"
  report=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace "$trace")
  got=$(sed -n '1s/.*"work_digest": "\([0-9a-f]*\)".*/\1/p' <<<"$report")
  if [ "$got" != "$want" ]; then
    echo "PERFBENCH DIGEST: $workload (trace $trace) did $got, pinned $want"
    exit 1
  fi
  echo "    $workload (trace $trace): work digest $got"
done

# Note: `command -v cargo-miri` is a false positive under rustup (the
# proxy shim exists even when the component is absent) — ask rustup.
if rustup component list --installed 2>/dev/null | grep -q "^miri"; then
  echo "==> miri (bpr-linalg + bpr-pomdp unit tests)"
  cargo miri test -p bpr-linalg -p bpr-pomdp --lib -q
else
  echo "==> miri: not installed, skipping (CI runs it on nightly)"
fi

echo "==> ci.sh: all gates passed"
