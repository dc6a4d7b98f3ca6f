#!/usr/bin/env bash
# Offline check of the benchmark itself: the crate's unit tests, then
# every workload in both modes for a second or two (--smoke). A smoke run
# fails unless every metric BENCHMARK.json names is printed — finite, or
# `null` for a counter the engine no longer exports — nothing unnamed is,
# and the oracle passes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo test --release --offline --quiet --manifest-path "$here/Cargo.toml"
"$here/run.sh" --smoke | grep -E '^# [a-z_]+ seed|PROBLEM'
echo "dvmbench: check passed"
