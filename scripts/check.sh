#!/usr/bin/env bash
# Full local gate for the workspace. CI (.github/workflows/ci.yml) runs
# exactly this script; if it passes here, it passes there.
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo silently ignores .cargo/config.toml's [build].rustflags when the
# RUSTFLAGS env var is set — dropping target-cpu=native/FMA and putting the
# GEMM microkernel on its documented ~20x non-FMA cliff. Warn, don't fail:
# results stay correct, only kernel benchmark numbers become meaningless.
if [[ -n "${RUSTFLAGS:-}" ]]; then
  echo "WARNING: RUSTFLAGS is set ('${RUSTFLAGS}'); .cargo/config.toml's" >&2
  echo "         target-cpu=native/FMA flags are being IGNORED — kernel bench" >&2
  echo "         numbers from this build are not comparable (see DESIGN.md §8.3)." >&2
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps with rustdoc warnings denied (no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> easgd-xtask lint"
cargo run -q -p easgd-xtask -- lint

echo "==> golden-trace determinism suite (release, the recording profile)"
cargo test -q --release --test golden_traces

echo "==> easgd-xtask explore"
cargo run -q -p easgd-xtask -- explore

echo "==> easgd-xtask explore --protocol --smoke (full suite runs nightly in CI)"
cargo run -q -p easgd-xtask -- explore --protocol --smoke

echo "==> the seed stays retired (its baselines and *_vs_seed keys were deleted, EXPERIMENTS.md has the frozen numbers)"
if grep -rnE "gemm_naive_par|par_rows|SeedNet|_vs_seed" crates/ src/ BENCH_*.json; then
  echo "error: a seed baseline is back (matches above)" >&2
  exit 1
fi

echo "==> one fork-join (par::fan_out; the band helpers, their budget wrapper and the ops-side gate were deleted)"
if grep -rnE "par_zip|par_chunks_mut|WorkerPool|with_pool|should_par" crates/ src/ tests/ examples/; then
  echo "error: a deleted par helper is back (matches above)" >&2
  exit 1
fi

echo "==> one source of Sync EASGD time (the priced hub mode and everything only it kept alive were deleted)"
if grep -rnE "SyncExchange::Priced|broadcast_costed_into|center_dilution_from|dilution_from_band|tree_collective_time|trace_priced_exchange" crates/ src/ tests/ examples/; then
  echo "error: a piece of the priced Sync EASGD mode is back (matches above)" >&2
  exit 1
fi

echo "==> list-free tree roles (an all-ranks tree collective builds no per-call participant list; a rank's position is arithmetic)"
if grep -rnF "(0..comm.size()).collect" crates/cluster/src/; then
  echo "error: a per-call participant list is back (matches above)" >&2
  exit 1
fi

echo "==> no column cache (Conv2d keeps the padded batch; the GEMM packs lower from it)"
if grep -rn "col_cache" crates/nn/src/; then
  echo "error: a column cache is back in the conv layer (matches above)" >&2
  exit 1
fi

echo "==> gradient read in place (LocalStep keeps no copy of the network's gradient arena)"
if grep -nE "grad\.copy_from_slice\(self\.net\.grads\(\)|grad: Vec<f32>" crates/core/src/engine/local.rs; then
  echo "error: LocalStep's gradient copy is back (matches above)" >&2
  exit 1
fi

echo "==> one §6.2 path (knl_partition_run; the executed chip partitioner, its pool type and KnlChip's unread modes were deleted)"
if grep -rnE "PartitionedPool|partitioned_sync_easgd|partitioned_hogwild_easgd|with_group_threads|hogwild_easgd_exchange|McdramMode|ClusterMode|max_partitions" crates/ src/ tests/ examples/; then
  echo "error: a piece of the executed chip partitioner is back (matches above)" >&2
  exit 1
fi

echo "==> one async exchange rule (AsyncVariant; the per-method locked trainers and their gradient-push master were deleted)"
if grep -rnE "GradCenter|original_easgd_turns|fn async_(sgd|msgd|easgd)\b" crates/ src/ tests/ examples/; then
  echo "error: a per-method copy of the async exchange is back (matches above)" >&2
  exit 1
fi

echo "==> kernel table (smoke: one iteration per row, no JSON; gemm_par_vs_serial on >= 2 threads, skip notice on 1; checked-in BENCH_kernels.json fork-join acceptance)"
cargo run -q --release -p easgd-bench --bin kernels -- --smoke

echo "==> simulated exchange tables (smoke + checked-in BENCH_comm.json acceptance)"
cargo run -q --release -p easgd-bench --bin comm -- --smoke

echo "==> cluster harness on the event backend (smoke: P<=512 + checked-in BENCH_cluster.json acceptance; full P=8192 sweep runs nightly in CI)"
cargo run -q --release -p easgd-bench --bin cluster -- --smoke

echo "==> logical-time serve sweep (smoke: short sweep + checked-in BENCH_serve.json acceptance; full latency sweep runs nightly in CI)"
cargo run -q --release -p easgd-bench --bin serve -- --smoke

echo "==> bench artifact check (every checked-in BENCH_*.json against easgd_bench::report's declarations)"
cargo run -q --release -p easgd-bench --bin schema_check

# benchmark/ is a package of its own (outside the workspace) that hosts
# replays of the trainers from public library pieces: a signature change
# that breaks them must fail here, not in the perf pipeline. run.sh
# refuses to run with RUSTFLAGS set (see the warning above).
if [[ -z "${RUSTFLAGS+set}" ]]; then
  echo "==> benchmark package: clippy + every workload in smoke mode"
  cargo clippy --quiet --manifest-path benchmark/Cargo.toml --target-dir target -- -D warnings
  bash benchmark/run.sh --smoke
else
  echo "==> benchmark package: SKIPPED (RUSTFLAGS is set)"
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo test --workspace --features strict-invariants"
cargo test --workspace -q --features strict-invariants

echo "==> SIMD tier bit-identity: the scalar and avx2+fma builds of easgd-tensor (scripts/simd_tiers.sh)"
scripts/simd_tiers.sh

echo "==> non-test lines per crate (scripts/loc.sh)"
scripts/loc.sh

echo "==> all checks passed"
