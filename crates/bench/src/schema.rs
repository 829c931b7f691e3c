//! Schema self-check for the checked-in `BENCH_*.json` artifacts.
//!
//! Every bench binary hand-rolls its JSON writer (the workspace carries
//! no JSON dependency), which means a renamed acceptance key or a
//! truncated file is invisible until a human reads the artifact. This
//! registry pins, per artifact, the structural frame and the acceptance
//! keys that CI's smoke legs grep for — `--bin schema_check` validates
//! all checked-in artifacts in one shot, so a bench refactor that
//! silently drops a key fails the per-push gate instead of rotting.
//!
//! The registry intentionally lists **key presence**, not values:
//! thresholds on values stay in each bin's `validate_checked_in`, next
//! to the code that produces them. A key listed in
//! [`BenchSchema::required_true`] must be present *and* literally
//! `true` — those are correctness gates (monotonicity, bit-identity),
//! never environment-dependent measurements.

use std::path::Path;

/// The pinned shape of one checked-in bench artifact.
#[derive(Clone, Copy, Debug)]
pub struct BenchSchema {
    /// File name at the repo root.
    pub file: &'static str,
    /// Acceptance keys that must be present with a numeric value.
    pub required_numbers: &'static [&'static str],
    /// Acceptance keys that must be present and literally `true`.
    pub required_true: &'static [&'static str],
}

/// Every checked-in bench artifact and its required acceptance keys.
pub const SCHEMAS: &[BenchSchema] = &[
    BenchSchema {
        file: "BENCH_kernels.json",
        required_numbers: &[
            "gemm_256_serial_speedup_vs_naive",
            "gemm_1024_speedup_vs_seed_fork_join",
            "gemm_256_serial_gflops",
            "vgg_fc6_b32_gflops",
            "vgg_fc6_b32_speedup_vs_seed_fork_join",
            "gemm_min_par_over_serial",
            "fork_join_flops",
        ],
        required_true: &[],
    },
    BenchSchema {
        file: "BENCH_comm.json",
        required_numbers: &[
            "fused_kernel_speedup_vs_two_pass",
            "pooled_fused_step_speedup_vs_seed",
            "pooled_allocs_per_exchange_step",
            "seed_allocs_per_exchange_step",
            "pooled_bytes_copied_mb_per_step",
            "seed_bytes_copied_mb_per_step",
            "tree_over_flat_time_ratio_p8",
            "overlap_efficiency_p8",
            "pipelined_over_serial_step_ratio_p8",
            "pipelined_allocs_per_round",
            "tree_round_copies_per_arena",
            "tree_round_allocs_per_round",
        ],
        required_true: &[],
    },
    BenchSchema {
        file: "BENCH_train.json",
        required_numbers: &[
            "lenet_step_speedup_vs_seed",
            "vgg_step_speedup_vs_seed",
            "pooled_allocs_per_train_step",
            "seed_allocs_per_train_step",
        ],
        required_true: &[],
    },
    BenchSchema {
        file: "BENCH_cluster.json",
        required_numbers: &[
            "max_abs_efficiency_delta_vs_model",
            "googlenet_efficiency_2176_cores",
            "vgg_efficiency_2176_cores",
            "googlenet_efficiency_p8192",
            "vgg_efficiency_p8192",
            "tree_fit_r2",
            "tree_slope_s_per_doubling",
            "tree_growth_ratio_8192_over_512",
            "max_event_ranks",
        ],
        required_true: &["figure13_speedup_monotone"],
    },
    BenchSchema {
        file: "BENCH_serve.json",
        required_numbers: &["qps_batch8_over_batch1", "steady_state_allocs_per_request"],
        required_true: &[
            "p99_within_deadline_bound",
            "sim_bit_identical",
            "eval_bitwise_ok",
        ],
    },
];

/// Pulls `"key": <number>` out of hand-rolled bench JSON. Shared by the
/// per-bin validators and the schema check.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Escapes `s` for a hand-rolled JSON string literal.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Whether `"key": true` appears literally (the writers emit bare JSON
/// booleans).
pub fn json_true(text: &str, key: &str) -> bool {
    let needle = format!("\"{key}\":");
    match text.find(&needle) {
        Some(at) => text[at + needle.len()..].trim_start().starts_with("true"),
        None => false,
    }
}

/// Validates one artifact's text against its schema.
pub fn validate_text(schema: &BenchSchema, text: &str) -> Result<(), String> {
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err(format!("{}: not a JSON object", schema.file));
    }
    if json_number(text, "schema").is_none() {
        return Err(format!("{}: missing \"schema\" version", schema.file));
    }
    if !text.contains("\"generated_by\":") {
        return Err(format!("{}: missing \"generated_by\"", schema.file));
    }
    if !text.contains("\"acceptance\":") {
        return Err(format!("{}: missing \"acceptance\" block", schema.file));
    }
    for key in schema.required_numbers {
        if json_number(text, key).is_none() {
            return Err(format!(
                "{}: missing numeric acceptance key {key}",
                schema.file
            ));
        }
    }
    for key in schema.required_true {
        if json_true(text, key) {
            continue;
        }
        return Err(if text.contains(&format!("\"{key}\":")) {
            format!("{}: acceptance key {key} must be true", schema.file)
        } else {
            format!("{}: missing boolean acceptance key {key}", schema.file)
        });
    }
    Ok(())
}

/// Validates every registered artifact under `root`; returns one error
/// line per failure (empty = all artifacts conform).
pub fn validate_all(root: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    for schema in SCHEMAS {
        let path = root.join(schema.file);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = validate_text(schema, &text) {
                    errors.push(e);
                }
            }
            Err(e) => errors.push(format!("{}: unreadable ({e})", schema.file)),
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": 1,
  "generated_by": "cargo run --release -p easgd-bench --bin serve",
  "acceptance": {
    "qps_batch8_over_batch1": 7.11,
    "steady_state_allocs_per_request": 0.00,
    "p99_within_deadline_bound": true,
    "sim_bit_identical": true,
    "eval_bitwise_ok": true
  },
  "entries": []
}
"#;

    fn serve_schema() -> &'static BenchSchema {
        SCHEMAS
            .iter()
            .find(|s| s.file == "BENCH_serve.json")
            .unwrap()
    }

    #[test]
    fn accepts_a_conforming_artifact() {
        assert_eq!(validate_text(serve_schema(), GOOD), Ok(()));
    }

    #[test]
    fn rejects_missing_or_false_keys() {
        let missing = GOOD.replace("\"sim_bit_identical\": true,\n", "");
        let err = validate_text(serve_schema(), &missing).unwrap_err();
        assert!(err.contains("missing boolean"), "{err}");

        let falsy = GOOD.replace("\"eval_bitwise_ok\": true", "\"eval_bitwise_ok\": false");
        let err = validate_text(serve_schema(), &falsy).unwrap_err();
        assert!(err.contains("must be true"), "{err}");

        let keyless = GOOD.replace("qps_batch8_over_batch1", "qps_renamed");
        let err = validate_text(serve_schema(), &keyless).unwrap_err();
        assert!(err.contains("missing numeric"), "{err}");
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(validate_text(serve_schema(), "not json").is_err());
        let no_accept = GOOD.replace("\"acceptance\":", "\"acc\":");
        assert!(validate_text(serve_schema(), &no_accept).is_err());
    }

    #[test]
    fn number_parser_reads_scientific_notation() {
        assert_eq!(
            json_number("{\"x\": 2.220e-16}", "x"),
            Some(2.220e-16),
            "cluster artifact uses scientific notation"
        );
    }

    #[test]
    fn checked_in_artifacts_all_conform() {
        // The crate sits at crates/bench; artifacts live at the root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let errors = validate_all(&root);
        assert!(errors.is_empty(), "schema violations: {errors:#?}");
    }
}
