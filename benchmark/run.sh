#!/usr/bin/env bash
# Builds the workspace's psim-serve and the benchmark, then runs the
# benchmark with the given arguments (see README.md):
#
#   benchmark/run.sh [--workload NAME|all] [--seed S] [--seconds T] [--trace [0|1]]
#
# Builds go to $CARGO_TARGET_DIR (default: benchmark/target). Exits 1 if
# any op fails, and without a result when the workspace is not beside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/serve" ]; then
    echo "run.sh: no workspace at $root (Cargo.toml and crates/ are needed)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --quiet --release --offline --locked \
    --manifest-path "$root/Cargo.toml" -p psim-serve --bin psim-serve >&2
cargo build --quiet --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
# Both binaries land in one directory, where the benchmark looks for
# psim-serve by default.
exec "$CARGO_TARGET_DIR/release/parsimony-benchmark" "$@"
