#!/usr/bin/env bash
# Builds the daemons and the benchmark from the checkout this script sits
# in, then runs the benchmark with the given arguments:
#
#   bash tsn_benchmark/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Everything is built into one directory (CARGO_TARGET_DIR, default
# `target` at the repository root) so that the benchmark finds
# `tsn-serviced` and `tsn-routerd` beside its own executable.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Cargo reports on standard error; standard output stays the benchmark's.
cargo build --release --offline --quiet -p tsn_service -p tsn_router
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/tsn_benchmark" "$@"
