#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every .rs file under crates/*/src
# and src/, the lines before its first column-0 `#[cfg(test)]`.
# Usage: scripts/loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src src -name '*.rs' | sort | xargs awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests { split(FILENAME, p, "/"); n[p[1] == "src" ? "src" : p[1] "/" p[2]]++; total++ }
  END { for (c in n) printf "%7d  %s\n", n[c], c | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
