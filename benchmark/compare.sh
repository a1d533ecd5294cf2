#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Two results.json files of run.sh side by side: one row per end-to-end
# metric and workload with both values, the ratio B/A, the bound and
# ok / worse / unresolved. Simulated statistics must be equal. Refuses
# files measured on different machines or with different seeds. Exits 1
# if anything is worse, 2 if the files cannot be compared.
set -euo pipefail

here=$(dirname "${BASH_SOURCE[0]}")
exec cargo --quiet run --release --offline --manifest-path "$here/Cargo.toml" --bin compare -- "$@"
