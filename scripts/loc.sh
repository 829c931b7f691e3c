#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every .rs file under crates/*/src
# and src/, the lines before its test module — the first column-0
# `#[cfg(test)]` that is followed by a `mod` line. (A `#[cfg(test)]` on a
# lone item, like gemm.rs's test-only thread_local!, does not end the
# count: the rest of that file is not tests.)
# Usage: scripts/loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src -name '*.rs' | sort | xargs awk '
  function count() { split(FILENAME, p, "/"); n[p[1] == "src" ? "src" : p[1] "/" p[2]]++; total++ }
  FNR == 1 { in_tests = 0; held = 0 }
  held { held = 0; if (/^(pub )?mod /) in_tests = 1; else count() }
  !in_tests && /^#\[cfg\(test\)\]/ { held = 1; next }
  !in_tests { count() }
  END { for (c in n) printf "%7d  %s\n", n[c], c | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
