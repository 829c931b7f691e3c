//! Validates every checked-in `BENCH_*.json` against the declarations in
//! [`easgd_bench::report`] — the same ones the bins render from: frame,
//! host block, every acceptance key's bound, and no row recorded at more
//! threads than its host had.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin schema_check            # repo root
//! cargo run --release -p easgd-bench --bin schema_check -- --root p
//! ```

use easgd_bench::{arg_value, report};
use std::path::PathBuf;

fn main() {
    let root = arg_value("--root")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")));
    let errors = report::validate_all(&root);
    if errors.is_empty() {
        println!(
            "schema check ok: {} artifacts conform under {}",
            report::ARTIFACTS.len(),
            root.display()
        );
        return;
    }
    for e in &errors {
        eprintln!("schema check: {e}");
    }
    std::process::exit(1);
}
