#!/usr/bin/env bash
# Builds the minedig CLI and the benchmark from the checkout this script
# sits in, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload scan --seed 2018 --seconds 10 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default .bench_build), where the
# benchmark also keeps its span dumps and checkpoint scratch.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "e2ebench: no minedig sources in $root" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin minedig >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" "$@"
