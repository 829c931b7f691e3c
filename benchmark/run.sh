#!/usr/bin/env bash
# The one command. From the root of a checkout:
#
#   bash benchmark/run.sh                     # all five workloads, then the traced pass, then the table
#   bash benchmark/run.sh --smoke             # every workload <= 2 s, checks only, no numbers kept
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run (the driver's form)
#
# Builds once (release, into $CARGO_TARGET_DIR or ./target, shared with
# the workspace) and hands the arguments to the binary. cargo is run from
# the checkout root so that .cargo/config.toml's target-cpu=native flags
# apply; the root Cargo.lock is not touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# cargo ignores .cargo/config.toml's [build].rustflags whenever RUSTFLAGS
# is set, even to an empty string: the GEMM microkernel then falls off the
# documented ~20x non-FMA cliff. Refuse to measure such a build.
if [[ -n "${RUSTFLAGS+set}" || -n "${CARGO_ENCODED_RUSTFLAGS+set}" ]]; then
  echo "error: RUSTFLAGS is set in the environment; unset it (cargo would drop target-cpu=native)" >&2
  exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# The allocator is part of the measured environment; the binary refuses
# to run without these settings (README.md, "Wrong builds and the
# environment", has the measurements behind them).
#  * One arena: with glibc's per-thread arenas the peak resident set
#    depends on which thread freed what when.
#  * Freed memory stays in the process: every trainer call builds and
#    drops hundreds of MB of replicas, and on the sizing host the cost of
#    faulting that memory back in drifts by half over minutes, which
#    moved train_mlp_sync_p4's round time by a quarter with nothing
#    changed. Calls after the first then run on memory already mapped.
export MALLOC_ARENA_MAX=1
export MALLOC_MMAP_THRESHOLD_=1073741824
export MALLOC_TRIM_THRESHOLD_=8589934592
export MALLOC_TOP_PAD_=268435456

BENCH_GIT_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT
exec "$target/release/easgd-benchmark" "$@"
