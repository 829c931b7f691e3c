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

echo "==> easgd-xtask lint (the source rules, and crates/xtask/gone.txt: what was deleted stays gone)"
cargo run -q -p easgd-xtask -- lint

echo "==> golden-trace determinism suite (release, the recording profile)"
cargo test -q --release --test golden_traces

echo "==> easgd-xtask explore"
cargo run -q -p easgd-xtask -- explore

echo "==> easgd-xtask explore --protocol --smoke (full suite runs nightly in CI)"
cargo run -q -p easgd-xtask -- explore --protocol --smoke

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
