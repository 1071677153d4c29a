#!/usr/bin/env bash
# Two full sets of runs of the same tree must agree within the ledger's own
# bounds: `compare` may report no regression and no unresolved row.
#
#   ./selfcheck.sh [seed] [repeats]     (defaults: the development seed, 5)
#
# Each set repeats every workload `repeats` times, so a report's quartiles
# are run-to-run spread. Reports land in target/selfcheck/.
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-42}"
repeats="${2:-5}"
out="${CARGO_TARGET_DIR:-target}/selfcheck"
mkdir -p "$out"
cargo build --release --offline
for set in a b; do
    cargo run --release --offline --quiet -- run --seed "$seed" --repeats "$repeats" \
        --out "$out/seed$seed-$set.json"
done
cargo run --release --offline --quiet -- compare "$out/seed$seed-a.json" "$out/seed$seed-b.json"
echo "selfcheck: two sets agree (seed $seed, $repeats repeats each)"
