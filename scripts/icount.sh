#!/usr/bin/env bash
# Instructions per healthy-era write, in total and per function.
#
#   scripts/icount.sh [STACK] [WINDOW_WRITES]
#
# Builds the single-step tracer (scripts/icount.rs) with rustc and the
# `icount_probe` example in release, then counts the instructions of
# WINDOW_WRITES (default 10 000) writes of STACK (default reviver-sg)
# after 500 000 warm-up writes on `healthy_stream`'s shape. The count is
# deterministic; the tracer steps about 60 000 instructions a second, so
# the default window takes about a minute. Linux x86-64 only.
set -euo pipefail

stack=${1:-reviver-sg}
window=${2:-10000}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
target=${CARGO_TARGET_DIR:-$root/target}

mkdir -p "$target/icount"
rustc -O --edition 2021 -o "$target/icount/icount" "$root/scripts/icount.rs"
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" \
    -p wl-reviver --example icount_probe
"$target/icount/icount" --sum 'wl_reviver::reviver::' --sum 'wlr_wl::' \
    "$window" "$target/release/examples/icount_probe" "$stack" 500000 "$window"
