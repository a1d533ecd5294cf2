#!/usr/bin/env bash
# Regenerates every recorded experiment output and diffs it against
# results/, byte for byte: table1 fig5 fig6 fig7 fig8 table2 ablation
# leveling service chaos (56 s in all on the 2-core reference box; the
# last two add under a second). Every bin is seed-deterministic and
# reads no clock, so any difference is a behaviour change. crash_sweep.txt
# and fleet.json have their own CI legs.
#
# Usage: scripts/check_results.sh [dir-with-release-bins]
set -euo pipefail

BIN="${1:-target/release}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

status=0
for name in table1 fig5 fig6 fig7 fig8 table2 ablation leveling service chaos; do
  args=()
  if [ "$name" = ablation ]; then args=(all); fi
  # The recorded storm is the thinned one CI's chaos-smoke leg runs.
  vars=()
  if [ "$name" = chaos ]; then vars=(WLR_CHAOS_WINDOW=60000); fi
  if ! env "${vars[@]}" "$BIN/$name" "${args[@]}" >"$OUT/$name.txt" 2>"$OUT/$name.err"; then
    echo "FAIL  $name exited non-zero"
    tail -n 20 "$OUT/$name.err"
    status=1
  elif diff "results/$name.txt" "$OUT/$name.txt" >"$OUT/$name.diff"; then
    echo "ok    results/$name.txt"
  else
    echo "DIFF  results/$name.txt"
    head -n 20 "$OUT/$name.diff"
    status=1
  fi
done
exit $status
