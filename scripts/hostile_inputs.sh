#!/usr/bin/env bash
# Hostile-input gate for the two binaries that read operator-supplied JSON
# (needs the release build): a file of 100 000 `[` and a workload file per
# out-of-range value must each end in exit 1 with `error: ...` on stderr,
# and an unknown flag to a figure binary in exit 2 with `error: ...`.
# Before the checks existed these inputs ended in a panic (101), a stack
# overflow (134), or a hang or an OOM kill (124 under `timeout 20`). The
# rows are the ones `out_of_range_values_are_typed_errors` drives through
# the library (crates/bench/src/workload_file.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${CARGO_TARGET_DIR:-target}/release"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# expect_exit <code> <what> <command...>
expect_exit() {
  local want="$1" what="$2" rc=0
  shift 2
  timeout 20 "$@" >/dev/null 2>"$tmp/stderr" || rc=$?
  if [ "$rc" -ne "$want" ] || ! grep -q '^error:' "$tmp/stderr"; then
    echo "FAIL: $what: exit $rc (want $want), stderr: $(head -c 300 "$tmp/stderr")" >&2
    exit 1
  fi
}

# expect_error <what> <command...>
expect_error() { expect_exit 1 "$@"; }

# A malformed command line to a figure binary is a usage error: exit 2.
expect_exit 2 "fig4_latency_split --bogus" "$bin/fig4_latency_split" --bogus

head -c 100000 /dev/zero | tr '\0' '[' >"$tmp/deep.json"
expect_error "nexus-trace summarize on 100000 '['" \
  "$bin/nexus-trace" summarize --input "$tmp/deep.json"
expect_error "simulate on 100000 '['" \
  "$bin/simulate" --workload "$tmp/deep.json"

# <"secs" value>|<fields of the one app>
n=0
while IFS='|' read -r secs app; do
  n=$((n + 1))
  printf '{"gpus": 4, "secs": %s, "apps": [{%s}]}\n' "$secs" "$app" >"$tmp/w$n.json"
  expect_error "simulate on secs=$secs, app {$app}" \
    "$bin/simulate" --workload "$tmp/w$n.json"
done <<'EOF'
5|"app": "game", "rate": -5.0
5|"app": "game", "rate": 0.0
5|"app": "game", "rate": 1e300
5|"app": "game", "rate": 1000001.0
5|"app": "game", "rate": 1e999
5|"app": "game", "rate": 10.0, "modulation": [[-1.0, 1.0]]
5|"app": "game", "rate": 10.0, "modulation": [[0.0, 0.0]]
5|"app": "game", "rate": 10.0, "modulation": [[0.0, -1.0]]
5|"app": "game", "rate": 10.0, "modulation": [[0.0, 1e300]]
5|"app": "game", "rate": 10.0, "modulation": [[0.0, 1e999]]
5|"app": "game", "rate": 10.0, "modulation": [[5.0, 1.0], [1.0, 2.0]]
0|"app": "game", "rate": 10.0
18446744073709551615|"app": "game", "rate": 10.0
18446744073709|"app": "game", "rate": 10.0
-1|"app": "game", "rate": 10.0
5|"app": "x", "model": "resnet50", "slo_ms": 0, "rate": 1.0
EOF
echo "hostile inputs OK: $((n + 2)) files, each exit 1 with a typed error; one bad flag, exit 2"
