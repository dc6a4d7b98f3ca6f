#!/usr/bin/env bash
# dvmbench: build the benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Without --workload every workload runs, without --trace both modes do,
# without --seconds a run measures for BENCHMARK.json's run_seconds: each
# (workload, mode) in a process of its own, so peak_rss_mb is per
# workload. Metrics are printed as `name unit value`; the last line of
# each process is the JSON object BENCHMARK.json's driver reads. Records
# land in benchmark/out/. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workloads=(stream_sla ingest_sat bulk_refresh readers_fleet)
modes=(0 1)
seed=1
seconds=()
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds=(--seconds "$2"); shift 2 ;;
        --trace) modes=("$2"); shift 2 ;;
        --smoke) smoke=(--smoke); seconds=(--seconds 1.5); shift ;;
        *) echo "usage: $0 [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]" >&2; exit 2 ;;
    esac
done

# A relative target directory is relative to where we were called from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

DVMBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
DVMBENCH_RUSTC="$(rustc --version)"
export DVMBENCH_COMMIT DVMBENCH_RUSTC

mkdir -p "$here/out"
for workload in "${workloads[@]}"; do
    for mode in "${modes[@]}"; do
        "$target/release/dvmbench" --workload "$workload" --seed "$seed" \
            --trace "$mode" --out "$here/out" "${seconds[@]}" "${smoke[@]}"
    done
done
