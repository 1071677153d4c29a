#!/usr/bin/env bash
# Build, run every workload briefly (untraced and traced), and run the
# ledger's own tests. A smoke test only: --quick numbers are never compared.
# Ready for CI to call; takes under two minutes on the 2-core seed box.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo run --release --offline --quiet -- run --quick
cargo run --release --offline --quiet -- trace --quick
cargo test --release --offline --quiet
echo "smoke: ok"
