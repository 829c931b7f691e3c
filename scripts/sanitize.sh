#!/usr/bin/env bash
# AddressSanitizer leg: rebuilds the code that holds the workspace's
# `unsafe` (the explicit-SIMD kernels and the event backend's fibers)
# and the suites that drive it with `-Zsanitizer=address`, and runs
# them. Needs a nightly toolchain (`cargo +nightly`); without one it
# prints a SKIPPED line and exits 0.
#
# * First a probe: a test that over-reads 64 bytes with `_mm512_loadu_ps`
#   on purpose (simd.rs, compiled only under `--cfg easgd_asan_probe`)
#   must be reported as a heap-buffer-overflow. A sanitizer build that
#   misses it would pass every leg below without checking anything.
#   The probe needs an AVX-512 build; elsewhere it is SKIPPED, by name.
# * Then two legs, each in a target dir of its own: the native tier
#   (RUSTFLAGS replaces .cargo/config.toml's flags, so target-cpu=native
#   is restated) and avx2+fma on baseline x86_64, as scripts/simd_tiers.sh
#   builds it. Each runs the tensor suite (fiber:: included), easgd-nn's
#   conv and network tests, tests/step_alloc.rs, easgd-serve's session::
#   tests and the cluster's backend:: tests, and greps the tier its build
#   reports. LeakSanitizer runs with ASan and fails a leg on any leak.
#
# Expected noise, not an error: ASan prints "WARNING: ASan is ignoring
# requested __asan_handle_no_return" once per process that switches
# fiber stacks. The switch is not annotated for ASan, so ASan cannot
# tell a fiber stack from a corrupt stack pointer when a panic unwinds
# on one; it skips clearing that stack's shadow and says so (DESIGN.md
# §7.4). The warning is left visible and counted at the end.
#
# Runtime on a 2-vCPU host: about 4.5 min from cold target dirs, 47 s warm.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
  echo "SKIPPED: AddressSanitizer leg (scripts/sanitize.sh): no nightly toolchain (cargo +nightly)"
  exit 0
fi

triple=x86_64-unknown-linux-gnu
asan="-Zsanitizer=address"
log="$(mktemp)"
trap 'rm -f "$log"' EXIT

test_asan() { # <rustflags> <target dir> <cargo test args...>
  local flags="$1" dir="$2"
  shift 2
  RUSTFLAGS="$asan $flags" CARGO_TARGET_DIR="$dir" \
    cargo +nightly test -q --target "$triple" "$@" 2>&1 | tee -a "$log"
}

echo "--> probe: a deliberate 64-byte _mm512_loadu_ps over-read must be reported"
if grep -qw avx512f /proc/cpuinfo; then
  if probe="$(RUSTFLAGS="$asan -C target-cpu=native --cfg easgd_asan_probe" \
    CARGO_TARGET_DIR=target/asan-probe cargo +nightly test -q --target "$triple" \
    -p easgd-tensor --lib asan_probe_overreads_64_bytes 2>&1)"; then
    echo "$probe"
    echo "error: the over-read probe ran clean: this build does not sanitize" >&2
    exit 1
  fi
  if ! grep -q "ERROR: AddressSanitizer: heap-buffer-overflow" <<<"$probe" ||
    ! grep -q "READ of size 64" <<<"$probe"; then
    echo "$probe"
    echo "error: the over-read probe failed, but not with ASan's report" >&2
    exit 1
  fi
  echo "probe reported: heap-buffer-overflow, READ of size 64"
else
  echo "SKIPPED: over-read probe (this host has no AVX-512)"
fi

leg() { # <rustflags> <target dir> <tier>
  echo "--> $3 (RUSTFLAGS='$asan $1')"
  test_asan "$1" "$2" -p easgd-tensor
  test_asan "$1" "$2" -p easgd-nn --lib -- conv:: network::
  test_asan "$1" "$2" --test step_alloc
  test_asan "$1" "$2" -p easgd-serve --lib session::
  test_asan "$1" "$2" -p easgd-cluster --lib backend::
  test_asan "$1" "$2" -p easgd-tensor --lib build_reports_its_simd_tier -- --nocapture |
    grep -x "simd tier under test: $3"
}

# The tier a native build selects (simd.rs, `TIER`).
if grep -qw avx512f /proc/cpuinfo; then
  native=avx512f
elif grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo; then
  native=avx2+fma
else
  native=scalar
fi
leg "-C target-cpu=native" target/asan "$native"
leg "-C target-feature=+avx2,+fma" target/asan-avx2 avx2+fma

n="$(grep -c "ASan is ignoring requested __asan_handle_no_return" "$log" || true)"
echo "note: ASan warned ${n} time(s) that it ignored __asan_handle_no_return (unannotated fiber stack switches; expected, see the header)"
