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
# parametrised layer without moving a bit holds per tier.
# scripts/check.sh and CI's simd-tiers job both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

leg() { # <rustflags> <target dir> <tier>
  echo "--> $3 (RUSTFLAGS='$1')"
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-tensor
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-nn --lib -- conv:: network::
  RUSTFLAGS="$1" CARGO_TARGET_DIR="$2" cargo test -q -p easgd-tensor --lib \
    build_reports_its_simd_tier -- --nocapture | grep -x "simd tier under test: $3"
}

leg "" target/scalar scalar
if [[ "$(uname -m)" == "x86_64" ]]; then
  leg "-C target-feature=+avx2,+fma" target/avx2 avx2+fma
fi
