// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! The metric registry — the names and units `BENCHMARK.json` lists —
//! and the one-line JSON result the driver reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 5] = [
    "train_vgg_p1",
    "train_mlp_sync_p4",
    "train_mlp_measgd_t2",
    "sim_p1024",
    "serve_lenet",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload prints all nine; README.md says what each means on each.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("rank_rounds_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("idle_latency_p50_us", "us"),
    ("saturated_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of the traced pass; layer = crate
/// directory name. A metric reads 0 on a workload that does not
/// exercise it.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("tensor.gemm_peak_gflops", "GFLOP/s"),
    ("tensor.stream_gb_per_s", "GB/s"),
    ("tensor.gemm_conv_gflops", "GFLOP/s"),
    ("tensor.im2col_melem_per_s", "Melem/s"),
    ("tensor.col2im_melem_per_s", "Melem/s"),
    ("tensor.gemm_mlp_gflops", "GFLOP/s"),
    ("tensor.gemm_skinny_gflops", "GFLOP/s"),
    ("tensor.gemm_m1_gflops", "GFLOP/s"),
    ("tensor.elastic_exchange_melem_per_s", "Melem/s"),
    ("tensor.center_dilution_melem_per_s", "Melem/s"),
    ("tensor.elastic_momentum_melem_per_s", "Melem/s"),
    ("tensor.sgd_update_melem_per_s", "Melem/s"),
    ("nn.step_ms", "ms"),
    ("nn.fwd_ms", "ms"),
    ("nn.loss_ms", "ms"),
    ("nn.bwd_ms", "ms"),
    ("nn.conv_fwd_ms", "ms"),
    ("nn.conv_bwd_ms", "ms"),
    ("nn.dense_fwd_ms", "ms"),
    ("nn.dense_bwd_ms", "ms"),
    ("nn.pool_ms", "ms"),
    ("nn.act_ms", "ms"),
    ("nn.flops_per_step", "count"),
    ("nn.step_gflops", "GFLOP/s"),
    ("nn.peak_fraction", "ratio"),
    ("nn.closure_err", "ratio"),
    ("nn.scratch_allocs_per_step", "count"),
    ("nn.infer_us_b1", "us"),
    ("nn.infer_us_b8", "us"),
    ("data.batch_us", "us"),
    ("data.wait_share", "ratio"),
    ("data.generate_s", "s"),
    ("core.local_step_ms", "ms"),
    ("core.exchange_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.lock_wait_ms", "ms"),
    ("core.exchange_share", "ratio"),
    ("core.round_closure_err", "ratio"),
    ("core.sim_s_per_round", "s"),
    ("core.sim_comm_ratio", "ratio"),
    ("core.final_accuracy", "ratio"),
    ("core.final_loss", "loss"),
    ("core.center_hash48", "count"),
    ("cluster.comm_ms", "ms"),
    ("cluster.collective_calls_per_round", "count"),
    ("cluster.bytes_copied_per_round", "B"),
    ("cluster.pool_fresh_per_round", "count"),
    ("cluster.pool_reuse_share", "ratio"),
    ("cluster.codec_mb_per_s", "MB/s"),
    ("cluster.pingpong_us", "us"),
    ("cluster.spawn_us_per_rank", "us"),
    ("cluster.host_us_per_rank_round", "us"),
    ("cluster.ctx_switches_per_rank_round", "count"),
    ("cluster.sim_s_per_round", "s"),
    ("cluster.sim_efficiency", "ratio"),
    ("hardware.model_max_rel_delta", "ratio"),
    ("hardware.tree_fit_r2", "ratio"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batch_full_share", "ratio"),
    ("serve.busy_share", "ratio"),
    ("serve.generator_late_us_p99", "us"),
    ("serve.slo_miss_share", "ratio"),
    ("serve.engine_ns_per_req", "ns"),
    ("serve.pool_allocs_per_req", "count"),
    ("serve.fit_fixed_us", "us"),
    ("serve.fit_per_sample_us", "us"),
    ("serve.fit_r2", "ratio"),
    ("serve.logical_p99_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: trainer calls, simulator calls, requests.
    pub attempted: u64,
    /// Operations whose output check failed (or that never completed).
    pub failed: u64,
    /// Why, for the human reading the log.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric. The name must be in the registry, so a typo
    /// cannot silently add a metric the driver does not know.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the registry"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Counts one checked operation; `problem` says what was wrong.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Counts a failure that is not tied to one more attempted operation
    /// (a gate of the traced pass, a mismatch across calls).
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(problem);
        }
    }

    /// The metrics this run must print, in registry order: every
    /// end-to-end metric untraced (each must have been measured), every
    /// per-layer metric traced (0 where the workload bypasses the layer).
    pub fn rows(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let v = self
                        .get(n)
                        .unwrap_or_else(|| panic!("end-to-end metric `{n}` was not measured"));
                    (n, u, v)
                })
                .collect()
        }
    }

    /// The last line of standard output: one JSON object.
    pub fn result_line(&self, trace: bool) -> String {
        let mut out = String::new();
        let ok = self.failed == 0 && self.attempted > 0;
        let _ = write!(
            out,
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.rows(trace).into_iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all the digits measured. JSON has no NaN or
/// infinity; a non-finite value is a failed measurement and must have
/// been counted as one before it gets here.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    // Rust prints f64 as a plain decimal (never `1e21`), the shortest
    // one that reads back to the same value.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the registry must name the same metrics with
    /// the same units, and the same workloads.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&needle).count(), 1, "{needle}");
        }
        for w in WORKLOADS {
            assert_eq!(
                text.matches(&format!("{{\"name\": \"{w}\", \"why\""))
                    .count(),
                1,
                "{w}"
            );
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
        assert_eq!(text.matches("\"why\":").count(), WORKLOADS.len());
        let run_seconds = format!("\"run_seconds\": {},", crate::RUN_SECONDS);
        assert!(text.contains(&run_seconds), "{run_seconds}");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome::default();
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            o.set(n, 1.5 + i as f64);
        }
        o.check(None);
        o.check(Some("bad".into()));
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("\"peak_rss_mb\": {\"value\": 9.5, \"unit\": \"MB\"}}}"));
        // Traced: every per-layer metric, 0 where unmeasured.
        let traced = o.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"trace.overhead_share\": {\"value\": 0, \"unit\": \"ratio\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_metric_names_are_rejected() {
        Outcome::default().set("no.such_metric", 1.0);
    }
}
