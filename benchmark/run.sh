#!/usr/bin/env bash
# benchmark/run.sh — build the benchmark package offline and run it.
#
#   benchmark/run.sh <benchmark arguments>   build, then `benchmark <arguments>`
#       e.g. benchmark/run.sh --workload fig1_paper --seed 1 --seconds 15 --trace 0
#            benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
#   benchmark/run.sh                         fmt --check, clippy -D warnings, the
#       package's unit tests, a --quick pass on the held-out seed, then the full
#       run of every workload (files under benchmark/out/)
#
# Builds into $CARGO_TARGET_DIR when set, else into target/benchmark, so the
# root workspace's own target directory and Cargo.lock are never touched.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
manifest=benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"

cargo build --release --offline --quiet --manifest-path "$manifest" >&2

if [ "$#" -gt 0 ]; then
    exec "$bin" "$@"
fi

cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --quiet --manifest-path "$manifest"
"$bin" all --quick --seed held-out
"$bin" all
