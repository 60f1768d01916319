#!/usr/bin/env bash
# Regenerates every figure/table artifact of crates/bench at its committed
# arguments (seed 42, each binary's default --secs; Fig. 13 at --secs 600)
# into a directory of the caller's choosing — never into bench_results/.
#
#   scripts/regen.sh --out DIR
#   scripts/regen.sh --check
#
# DIR receives <name>.json (the binary's --out) and <name>.txt (its stdout)
# under the names bench_results/ uses, plus ladder.{json,txt} (written by
# `ablations`) and fault_flap.json (written by `fault_recovery`). To compare
# two commits, run this on each and `cmp` the .json files: ablations.txt
# prints a host-time column and every .txt echoes its --out path.
#
# --check regenerates into a temporary directory and `cmp`s every .json
# against bench_results/; it fails if any file differs, or if either side
# has a .json the other lacks. The .txt files are not compared (see above).
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/regen.sh --out DIR | --check" >&2
  exit 2
}

out=""
check=0
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out="${2:?--out needs a directory}"; shift 2 ;;
    --check) check=1; shift ;;
    *) usage ;;
  esac
done
if [ "$check" = 1 ]; then
  [ -z "$out" ] || usage
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
fi
[ -n "$out" ] || usage
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
  # `hetero` writes its own <name>.txt beside --out; its stdout then only
  # echoes the paths, and redirecting it onto that file would clobber it.
  rm -f "$out/$name.txt"
  # shellcheck disable=SC2086
  cargo run --release --offline -q -p bench --bin "$bin" -- \
    --seed 42 $extra --out "$out/$name.json" >"$out/$name.stdout"
  if [ -e "$out/$name.txt" ]; then
    rm "$out/$name.stdout"
  else
    mv "$out/$name.stdout" "$out/$name.txt"
  fi
done <<'EOF_LIST'
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
EOF_LIST
echo "regenerated $(find "$out" -name '*.json' | wc -l) JSON artifacts into $out"

[ "$check" = 1 ] || exit 0
if ! diff <(cd bench_results && ls -1 -- *.json) <(cd "$out" && ls -1 -- *.json) >&2; then
  echo "FAIL: bench_results/ and the regenerated set differ in file names" >&2
  echo "(lines prefixed '<' exist only in bench_results/, '>' only in the regenerated set)" >&2
  exit 1
fi
stale=0
for f in bench_results/*.json; do
  if ! cmp -s "$f" "$out/$(basename "$f")"; then
    echo "stale: $f" >&2
    stale=$((stale + 1))
  fi
done
if [ "$stale" -gt 0 ]; then
  echo "FAIL: $stale committed artifact(s) differ from what this tree produces;" >&2
  echo "regenerate with scripts/regen.sh --out bench_results.new and review the diff" >&2
  exit 1
fi
echo "artifacts fresh: $(find "$out" -name '*.json' | wc -l) JSON files match bench_results/"
