#!/usr/bin/env bash
# The repository's benchmark (see README.md beside this file).
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       builds the benchmark, runs each of the five workloads in its own
#       `e2e` process, then the traced run (`layers`), prints every metric
#       as `name value unit` and writes benchmark/out/results.json.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload: the end-to-end metrics (--trace 0) or the
#       per-layer metrics (--trace 1). The last line of standard output is
#       the result as one JSON object.
#
# Exits non-zero if the build fails, a process fails or a correctness
# check does not hold. Reads no environment variable of its own; cargo
# puts its output where CARGO_TARGET_DIR says, as always.
set -euo pipefail

here=$(dirname "${BASH_SOURCE[0]}")
out="$here/out"
cargo=(cargo --quiet)
target=(--release --offline --manifest-path "$here/Cargo.toml")
workloads=(healthy_stream wearout_tail bank_uniform bank_hot crash_recover)

seed=42 seconds=10 trace=0 workload=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
    case $1 in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --workload) workload=$2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

if ! "${cargo[@]}" build "${target[@]}" --bins; then
    echo "run.sh: the benchmark did not build (it needs the repository's crates/ beside it)" >&2
    exit 1
fi

# With a fixed address-space layout peak memory repeats to the page; with
# a random one it moves by 3 %. Where the kernel refuses, run as is.
launch=()
if setarch "$(uname -m)" -R true 2>/dev/null; then
    launch=(setarch "$(uname -m)" -R)
fi

# run BIN ARGS...: one process of one binary, on the arguments all share.
run() {
    local bin=$1
    shift
    "${launch[@]}" "${cargo[@]}" run "${target[@]}" --bin "$bin" -- \
        --seed "$seed" --seconds "$seconds" --out "$out" "$@"
}

if [ -n "$workload" ]; then
    case $trace in
        0) run e2e --workload "$workload" --trace 0 ;;
        1) run layers --workload "$workload" --trace 1 ;;
        *) echo "run.sh: --trace $trace: expected 0 or 1" >&2; exit 2 ;;
    esac
    exit
fi

now() { date +%s.%N; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }'; }

mkdir -p "$out"
rm -f "$out"/*.e2e.json "$out/layers.json" "$out/spans.jsonl" "$out/results.json"
began=$(now)
walls=
for w in "${workloads[@]}"; do
    t=$(now)
    if ! run e2e --workload "$w" --trace 0; then
        echo "run.sh: workload $w failed" >&2
        exit 1
    fi
    walls+="\"$w\": $(since "$t"), "
    echo
done
t=$(now)
if ! run layers --workload all --trace 1; then
    echo "run.sh: the traced run failed" >&2
    exit 1
fi
walls+="\"layers\": $(since "$t"), \"total\": $(since "$began")"

revision=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$revision" != unknown ] && [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
    revision+=-dirty
fi
{
    printf '{"seed": %s, "seconds": %s, "rustc": "%s", "git": "%s", "wall_s": {%s}, "e2e": [' \
        "$seed" "$seconds" "$(rustc -V)" "$revision" "$walls"
    sep=
    for w in "${workloads[@]}"; do
        printf '%s' "$sep"
        cat "$out/$w.e2e.json"
        sep=', '
    done
    printf '], "layers": '
    cat "$out/layers.json"
    printf '}\n'
} > "$out/results.json"

echo
echo "wall time, s: {$walls}"
echo "wrote $out/results.json and $out/spans.jsonl"
