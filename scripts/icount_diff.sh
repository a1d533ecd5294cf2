#!/usr/bin/env bash
# The instruction gate: instructions per write of a base revision against
# the working tree, over a fixed matrix of stacks and shapes.
#
#   scripts/icount_diff.sh BASE_REV
#
# Exports BASE_REV and the working tree's tracked files (committed or
# not; `git add` a new file first) with `git archive` into
# target/icount_diff/base and target/icount_diff/head — two paths of the
# same length, so that panic-location strings do not move the code — and
# builds the `icount_probe` example in each, with its own target dir and
# the same rustc. The base gets the working tree's probe, so both sides
# run the same shapes. Then it counts, with the single-step tracer
# (scripts/icount.rs), each row of the matrix on both sides:
#
#   healthy  reviver-sg reviver-sr sg sr   500 000 skipped, 10 000 counted
#   worn     reviver-sg reviver-sr         200 000 skipped,  5 000 counted
#   crash    reviver-sg reviver-sr         one crash cycle,  5 000 counted
#   armed    reviver-sg reviver-sr         after the fork,     400 counted
#
# (examples/icount_probe.rs describes the shapes.) It prints `rustc -V`,
# every total and every function whose count moved, per write, and exits
# 1 when a total rises by more than 1 %: two builds of one source in two
# such trees count equal, so any rise is the change's, and 1 % of a
# healthy write (2 instructions of `reviver-sg`'s 189) is about what one
# added compare-and-branch on the plain path costs. Linux x86-64 only
# (ptrace); about two minutes of counting after the two builds.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: scripts/icount_diff.sh BASE_REV" >&2; exit 2; }
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base_rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
# The working tree as a commit; HEAD itself when nothing is modified.
head_rev=$(git -C "$root" stash create)
head_rev=${head_rev:-$(git -C "$root" rev-parse HEAD)}
work=$root/target/icount_diff

rm -rf "$work/base" "$work/head"
mkdir -p "$work/base" "$work/head"
git -C "$root" archive "$base_rev" | tar -x -C "$work/base"
git -C "$root" archive "$head_rev" | tar -x -C "$work/head"
cp "$work/head/examples/icount_probe.rs" "$work/base/examples/icount_probe.rs"

rustc -O --edition 2021 -o "$work/icount" "$work/head/scripts/icount.rs"
for side in base head; do
    CARGO_TARGET_DIR="$work/$side/target" cargo build --quiet --release --offline \
        --manifest-path "$work/$side/Cargo.toml" -p wl-reviver --example icount_probe
done

# count SIDE MODE STACK SKIP WINDOW: the raw per-function counts (one op,
# every function listed) of one matrix cell, into $work/SIDE.MODE.STACK.
count() {
    local side=$1 mode=$2 stack=$3 skip=$4 window=$5
    "$work/icount" --top 1000000 1 "$work/$side/target/release/examples/icount_probe" \
        "$stack" "$skip" "$window" "$mode" >"$work/$side.$mode.$stack"
}

matrix=(
    "healthy reviver-sg 500000 10000"
    "healthy reviver-sr 500000 10000"
    "healthy sg 500000 10000"
    "healthy sr 500000 10000"
    "worn reviver-sg 200000 5000"
    "worn reviver-sr 200000 5000"
    "crash reviver-sg 0 5000"
    "crash reviver-sr 0 5000"
    "armed reviver-sg 0 400"
    "armed reviver-sr 0 400"
)

rustc -V
echo "base $base_rev, head $head_rev"
printf '%-8s %-11s %10s %10s %9s\n' shape stack base head delta
status=0
details=""
for row in "${matrix[@]}"; do
    read -r mode stack skip window <<<"$row"
    # The two sides are independent processes: count them side by side.
    count base "$mode" "$stack" "$skip" "$window" &
    count head "$mode" "$stack" "$skip" "$window"
    wait $!
    # `window: N instructions over 1 ops = ...`, then `N.0 share% name`
    # per function.
    verdict=$(awk -v w="$window" -v mode="$mode" -v stack="$stack" '
        FNR == 1 { side = (FILENAME ~ /\/base\./) ? "b" : "h" }
        /^window:/ { total[side] = $2; next }
        /%  / && !/every function matching/ {
            n = $1; sub(/^ *[0-9.]+ +[0-9.]+%  /, ""); fn[$0] = 1; c[side, $0] = n
        }
        END {
            b = total["b"] / w; h = total["h"] / w
            printf "%-8s %-11s %10.2f %10.2f %+9.2f\n", mode, stack, b, h, h - b
            for (f in fn) {
                d = (c["h", f] - c["b", f]) / w
                if (d != 0) printf "DETAIL %-8s %-11s %+9.2f  %s\n", mode, stack, d, f
            }
            if (total["h"] > total["b"] * 1.01) print "RISE"
        }' "$work/base.$mode.$stack" "$work/head.$mode.$stack")
    grep -v '^DETAIL\|^RISE$' <<<"$verdict"
    details+=$({ grep '^DETAIL' <<<"$verdict" || true; } | sort -k4,4g | sed 's/^DETAIL //')$'\n'
    if grep -q '^RISE$' <<<"$verdict"; then
        status=1
    fi
done
echo
echo "per-function deltas, instructions per write (none: every function counted equal)"
printf '%s' "$details" | grep -v '^$' || true
if [ $status -ne 0 ]; then
    echo "icount_diff: a total rose by more than 1 %" >&2
fi
exit $status
