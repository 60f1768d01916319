#!/usr/bin/env bash
# Continuous-integration gate: everything a PR must pass.
# Mirrors .github/workflows/ci.yml so the same checks run locally.
set -euo pipefail
cd "$(dirname "$0")"

# ci-step: fmt
echo "== cargo fmt --check =="
cargo fmt --all -- --check

# ci-step: build
echo "== cargo build --release =="
cargo build --release --workspace

# ci-step: test
echo "== cargo test =="
# --no-fail-fast: a failing test binary must not hide the ones after it.
cargo test -q --workspace --no-fail-fast

# ci-step: clippy
echo "== cargo clippy =="
cargo clippy --all-targets --workspace -- -D warnings

# ci-step: docs
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# ci-step: deny
echo "== cargo deny =="
# The workflow runs cargo-deny via its action; locally it gates only when
# installed (`cargo install cargo-deny`) so a bare toolchain can still run
# the rest of the suite.
if command -v cargo-deny >/dev/null 2>&1; then
  cargo deny check
else
  echo "(cargo-deny not installed; skipping — CI runs it)"
fi

# ci-step: perf-smoke
echo "== perf smoke: fig13_100gpu 5 s, fig13_1kgpu 5 s, replan_tenants 3 s =="
# Runs the benchmark's deployment workload for five seconds, on 100 GPUs
# and on the 1 000-GPU fleet. Exits non-zero if any repetition panics or
# differs from the first in event count or bad-rate bits (the harness's
# in-run determinism gate). Timing is never gated — the runner is another
# machine, which is also why this is not a `perf --compare` against a
# committed result file.
cargo run --release -q -p perf -- \
  --workload fig13_100gpu --seed 100 --seconds 5 --trace 0
cargo run --release -q -p perf -- \
  --workload fig13_1kgpu --seed 100 --seconds 5 --trace 0
# The planner's turn: three seconds of re-plan epochs on both fleets.
# Non-zero unless every plan succeeded, every session is placed xor listed
# infeasible, and epoch 0 re-plans to the same GPUs and placement.
cargo run --release -q -p perf -- \
  --workload replan_tenants --seed 100 --seconds 3 --trace 0

# ci-step: goodput-smoke
echo "== goodput smoke: fig14 k=5 ladder point at 98% of committed baseline =="
# Replays the committed fig14 nexus #models=5 configuration (5 Inception
# copies, one GPU, 100 ms SLO, batch-plan ladders) at 98% of the committed
# throughput and fails if the bad rate exceeds the figure's own 1%
# criterion — a fast tripwire for ladder planning/dispatch regressions.
cargo run --release -q -p bench --bin goodput_smoke -- --quick

# ci-step: artifacts-fresh
echo "== artifacts fresh: every bench_results/*.json regenerates byte-for-byte =="
# Re-runs every figure/table binary at its committed arguments (seed 42)
# into a temp dir and `cmp`s all 19 JSON artifacts against bench_results/,
# so the numbers EXPERIMENTS.md quotes are the numbers this tree produces.
# The goodput smoke's baseline, fig14.json, is one of them. A change that
# moves an output must regenerate the artifact in the same commit.
scripts/regen.sh --check

# ci-step: front-door
echo "== front-door smoke + chaos: nexus-serve over localhost TCP =="
# Real sockets, real threads: 4 backend processes-worth of listeners, 200
# concurrent client connections, backend 0 killed mid-run, a routing epoch
# pushed mid-traffic. The binary exits nonzero unless every request is
# accounted (completed + dropped == submitted), both pushed epochs were
# applied in order, no request overran its deadline budget, and shutdown
# joined every thread (zero leaks). Timing is never gated — only
# accounting, ordering, and clean teardown.
cargo run --release -q -p nexus-serve --bin nexus-serve

# ci-step: schema-golden
echo "== schema golden: fixed-seed trace capture =="
# The Fig. 13 mini-run must reproduce the committed golden byte-for-byte;
# divergence means the trace schema or the simulation changed. Regenerate
# deliberately with:
#   cargo run -p nexus-obs --bin nexus-trace -- capture --golden \
#     --out crates/nexus-obs/tests/golden/fig13_mini.trace.json
tmp_golden="$(mktemp)"
trap 'rm -f "$tmp_golden"' EXIT
cargo run --release -q -p nexus-obs --bin nexus-trace -- \
  capture --golden --out "$tmp_golden" >/dev/null
cargo run --release -q -p nexus-obs --bin nexus-trace -- \
  diff "$tmp_golden" crates/nexus-obs/tests/golden/fig13_mini.trace.json

# ci-step: hetero-smoke
echo "== hetero smoke: committed mixed-fleet goodput-per-dollar point =="
# Replays the committed bench_results/hetero.json headline — the mixed
# 1080Ti/K80/V100 fleet on the workload where it beats every homogeneous
# equivalent-cost baseline — and fails if goodput per dollar drops more
# than 1% below the committed point or any SLO-budget violation appears
# (a session whose latency budget no available device class can hold).
cargo run --release -q -p bench --bin hetero_smoke

# ci-step: hostile-inputs
echo "== hostile inputs: deep nesting and out-of-range workload values =="
# With the release binaries built above: a file of 100 000 `[` through
# `nexus-trace summarize` and `simulate`, and one workload file per
# out-of-range value through `simulate`, must each exit 1 with `error:` on
# stderr — never a panic (101), a stack overflow (134) or a hang (124
# under `timeout 20`).
scripts/hostile_inputs.sh

# ci-step: planner-oracles
echo "== planner oracles: packer and split-DP differentials, 2048 cases each =="
# The `#[ignore]`d long copies of the planner's oracle proptests: every
# residue merge probe equals `try_merge`, and the packer's allocations and
# the pooled split DP's splits equal their unoptimised references, at
# benchmark scale. Release build; the tests take seconds.
cargo test --release -q -p nexus-scheduler -- --ignored

# ci-step: drift-check
echo "== ci.sh <-> ci.yml drift check =="
# Every gated step carries a `ci-step:` marker in both this script and the
# workflow; the check fails if either file has a step the other lacks.
scripts/ci_drift_check.sh

echo "CI OK"
