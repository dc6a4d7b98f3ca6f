#!/usr/bin/env bash
# Offline CI: the whole workspace must build, test, and resolve its
# dependency graph without touching any registry or network.
#
#   1. hermeticity gate — `cargo tree` may list only crates that live at a
#      local path (the workspace members themselves); any registry dep
#      (`crate v1.2.3` with no `(/path)` suffix) fails the build.
#   2. release build, fully offline.
#   3. the tier-1 test suite, fully offline.
#
# Usage: scripts/ci.sh  (from anywhere inside the repo)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity: dependency graph must be workspace-only"
# Every node `cargo tree` prints is either a workspace crate (path suffix
# like `(/root/repo/crates/x)`, possibly followed by `(*)` dedup markers)
# or an external registry crate. Keep dependency lines that lack a path.
external=$(cargo tree --offline --workspace --edges normal,build,dev \
  | grep -E '^[^a-zA-Z]*[a-zA-Z0-9_-]+ v[0-9]' \
  | grep -v ' (/' \
  | grep -v '(\*)' \
  | sort -u || true)
if [ -n "$external" ]; then
  echo "FAIL: non-workspace registry dependencies found:" >&2
  echo "$external" >&2
  exit 1
fi
echo "    OK: only workspace-local crates in the graph"

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo clippy --offline --workspace --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
  cargo clippy --offline --workspace --all-targets -- -D warnings
else
  echo "    SKIP: clippy not installed in this toolchain"
fi

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The concurrency suite must also pass with the test runner's own thread
# pool unconstrained, so worker threads from different #[test] bodies
# genuinely contend with the engine's maintenance fan-out.
echo "==> concurrent stress (RUST_TEST_THREADS unconstrained)"
env -u RUST_TEST_THREADS cargo test -q --offline -p dvm-core --test concurrent_stress

# Durability: the fault-injection suite must recover from every injected
# crash point (torn frames, dropped unsynced writes, bit rot, partial
# checkpoint temp files), and a database reopened from checkpoint + WAL
# must still pass the downtime experiment end-to-end.
echo "==> crash-recovery gate"
cargo test -q --offline -p dvm-core --test recovery
durable_dir="$(mktemp -d)"
DVM_DURABLE_DIR="$durable_dir" EXP_DOWNTIME_QUICK=1 \
  cargo run --release --offline -q -p dvm-bench --bin exp_downtime >/dev/null
rm -rf "$durable_dir"
echo "    OK: fault-injection suite green; recovered database refreshes correctly"

# Executor experiment smoke: every benchmark family in exp_eval must run
# end-to-end (one sample each, no JSON written).
echo "==> streaming executor experiment smoke"
cargo run --release --offline -q -p dvm-bench --bin exp_eval -- --test

# Maintenance profiler smoke: the coverage gate must hold — with
# profiling on, per-operator nanos (operator trees + phase timers) must
# explain 80%–120% of each propagate's observed wall time — and the
# policy-driven time series must record.
echo "==> maintenance profiler experiment smoke"
cargo run --release --offline -q -p dvm-bench --bin exp_profile -- --test

# CDC ingestion smoke: four concurrent producer streams group-committed
# through the ingest pipeline must leave the same database state as a
# per-op twin (bag-equal base table, identical refreshed view, INV_C
# clean), and the SLA-policy driver must hold the view under its
# staleness bound while the producers stream.
echo "==> CDC ingestion experiment smoke"
cargo run --release --offline -q -p dvm-bench --bin exp_ingest -- --test

# Compiled delta-plan smoke: the compiled program's ▼/▲ and a per-call
# derivation of them must stay bag-equal on every backlog, and the views
# they maintain equal to a from-scratch recompute, across several
# propagate/refresh rounds (join + aggregate views, the last rounds with
# sales and customer both changing); all eight compiled/per_call benchmark
# series must run end-to-end.
echo "==> compiled delta-plan experiment smoke"
cargo run --release --offline -q -p dvm-bench --bin exp_compile -- --test

# The repo's benchmark (benchmark/, dvmbench) is a workspace of its own, so
# nothing above compiles it: an engine API change could break
# benchmark/src/layers.rs silently. Its offline check builds it against
# this checkout, runs its unit tests, and smoke-runs all four workloads in
# both modes with the oracle on.
echo "==> dvmbench self-check (benchmark/check.sh)"
bash benchmark/check.sh

# Every JSON artifact under results/ must parse and match its schema
# (pure-Rust validation via dvm_obs::json — no jq in the image), including
# the benchmark series the executor speedup gates divide.
echo "==> results/ JSON schema validation"
cargo test -q --offline -p dvm-bench --test json_schema

# The observability layer claims a compile-out-cheap disabled path: the
# instrumented execute path must stay within 5% of the recorded baseline
# (release build; widen with OBS_GUARD_TOLERANCE=0.15 on noisy hosts).
# obs_guard also enforces the streaming executor's recorded speedups in
# results/BENCH_eval.json (fused ≥2x on filter-project, ≥1.3x on propagate),
# the group-commit speedup in results/BENCH_ingest.json (the CDC
# pipeline ≥3x over per-op execute under Always fsync), and the
# compiled-delta-program speedup in results/BENCH_compile.json.
echo "==> disabled-tracer overhead + executor speedup guard"
cargo run --release --offline -q -p dvm-bench --bin obs_guard

echo "==> CI green"
