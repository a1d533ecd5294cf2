#!/usr/bin/env bash
# Instructions per write, in total and per function.
#
#   scripts/icount.sh [STACK] [WINDOW_WRITES] [healthy|worn|crash|armed]
#
# Builds the single-step tracer (scripts/icount.rs) with rustc and the
# `icount_probe` example in release, then counts the instructions of
# WINDOW_WRITES writes of STACK (default reviver-sg) in one of the
# probe's four shapes (see examples/icount_probe.rs):
#
#   healthy (default)  `healthy_stream`'s shape, 500 000 writes skipped,
#                      a window of 10 000 by default;
#   worn               `wearout_tail`'s shape: forked at 80 % usable,
#                      200 000 writes skipped, a window of 5 000 by
#                      default;
#   crash              one of `crash_recover`'s cycles, oracle on: fork at
#                      90 % usable, power loss at device write 500,
#                      recover, finish; a window of 5 000 writes by
#                      default, fork and recovery included;
#   armed              `crash`'s shape with the power loss out of reach:
#                      the first writes after the fork while the plan can
#                      still fire, a window of 400 by default, fork and
#                      arming excluded.
#
# The count is deterministic; the tracer steps about 60 000 instructions
# a second, so a default window takes about a minute. Linux x86-64 only.
set -euo pipefail

stack=${1:-reviver-sg}
mode=${3:-healthy}
case $mode in
    healthy) skip=500000 window=${2:-10000} ;;
    worn) skip=200000 window=${2:-5000} ;;
    crash) skip=0 window=${2:-5000} ;;
    armed) skip=0 window=${2:-400} ;;
    *) echo "icount.sh: mode $mode is not healthy, worn, crash or armed" >&2; exit 2 ;;
esac
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}

mkdir -p "$target/icount"
rustc -O --edition 2021 -o "$target/icount/icount" "$root/scripts/icount.rs"
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" \
    -p wl-reviver --example icount_probe
"$target/icount/icount" --sum 'wl_reviver::reviver::' --sum 'wlr_wl::' \
    "$window" "$target/release/examples/icount_probe" "$stack" "$skip" "$window" "$mode"
