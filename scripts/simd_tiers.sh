#!/usr/bin/env bash
# The explicit-SIMD kernels compile one of three tiers (avx512f+fma /
# avx2+fma / scalar) at build time; all three must stay bit-identical.
# The native build exercises the host's best tier — this script rebuilds
# the tensor crate with the portable fallbacks (separate target dirs so
# the caches don't thrash) and reruns its suite, so the paths CI hardware
# doesn't default to cannot rot. Each leg also greps the tier its build
# reports (one test prints it): a cfg slip would otherwise run the native
# tier three times and pass. The convolution's tests ride along: its
# bits-equal-the-per-sample-loop properties are properties of the packs
# underneath. So do the network's: that backward may stop at the first
# parametrised layer without moving a bit holds per tier, and so does
# that every layer stores its gradients whatever the arena held (the
# tensor suite carries the transposed stream nest's twin). So does the
# property that a packed operand (a frozen serving replica's weights)
# holds the bits of the stored one. Each leg also runs the thread/event
# backend parity suite and the serve sessions' tests: a split batch keeps
# every bit of one thread's forward only if the tier's rows do not depend
# on their batch mates.
# The avx2+fma leg also replays the golden digests: every GEMM output is
# one fused chain, so an FMA build of any width gives the recorded bits.
# The scalar leg does not: a build without FMA rounds `mul` and `add`
# separately by design (DESIGN.md §8.3, `simd::madd`), so its
# trainers' digests differ from the recorded ones.
# scripts/check.sh and CI's simd-tiers job both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

leg() { # <rustflags> <target dir> <tier>
  echo "--> $3 (RUSTFLAGS='$1')"
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-tensor
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-nn --lib -- conv:: network::
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q --test properties packed_operands
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q --test backend_parity
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-serve --lib session::
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-tensor --lib \
    build_reports_its_simd_tier -- --nocapture | grep -x "simd tier under test: $3"
}

leg "" target/scalar scalar
if [[ "$(uname -m)" == "x86_64" ]]; then
  avx2="-C target-feature=+avx2,+fma"
  leg "$avx2" target/avx2 avx2+fma
  RUSTFLAGS="$avx2" CARGO_TARGET_DIR=target/avx2 cargo test -q --test golden_traces
fi
