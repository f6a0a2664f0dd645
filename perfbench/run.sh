#!/usr/bin/env bash
# Builds the benchmark harness together with the `figures` and `hsmd`
# release binaries it drives, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload figures_full --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench --bin perfbench -p hsm-bench --bin figures -p hsm-core --bin hsmd >&2
exec "$target/release/perfbench" "$@"
