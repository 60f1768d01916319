#!/usr/bin/env bash
# Regenerates every figure/table artifact of crates/bench at its committed
# arguments (seed 42, each binary's default --secs; Fig. 13 at --secs 600)
# into a directory of the caller's choosing — never into bench_results/.
#
#   scripts/regen.sh --out DIR
#
# DIR receives <name>.json (the binary's --out) and <name>.txt (its stdout)
# under the names bench_results/ uses, plus ladder.{json,txt} (written by
# `ablations`) and fault_flap.json (written by `fault_recovery`). To compare
# two commits, run this on each and `cmp` the .json files: ablations.txt
# prints a host-time column and every .txt echoes its --out path.
set -euo pipefail
cd "$(dirname "$0")/.."

out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out="${2:?--out needs a directory}"; shift 2 ;;
    *) echo "usage: scripts/regen.sh --out DIR" >&2; exit 2 ;;
  esac
done
[ -n "$out" ] || { echo "usage: scripts/regen.sh --out DIR" >&2; exit 2; }
mkdir -p "$out"
out="$(cd "$out" && pwd)"
if [ "$out" = "$(pwd)/bench_results" ]; then
  echo "refusing to overwrite the committed bench_results/" >&2
  exit 2
fi

cargo build --release --offline -q -p bench

# <artifact name> <binary> [extra args]
while read -r name bin extra; do
  echo "== $name ($bin $extra)"
  # shellcheck disable=SC2086
  cargo run --release --offline -q -p bench --bin "$bin" -- \
    --seed 42 $extra --out "$out/$name.json" >"$out/$name.txt"
done <<'EOF'
table1 table1
fig2 fig2_schedule
fig4 fig4_latency_split
fig5 fig5_lazy_drop
fig9 fig9_early_drop
fig10 fig10_game
fig11 fig11_traffic
fig12 fig12_rush_hour
fig13 fig13_large_scale --secs 600
fig14 fig14_multiplexing
fig15 fig15_prefix
fig16 fig16_squishy
fig17 fig17_query_analysis
sec74 sec74_optimality
ablations ablations
hetero hetero
fault_recovery fault_recovery
EOF
echo "regenerated $(find "$out" -name '*.json' | wc -l) JSON artifacts into $out"
