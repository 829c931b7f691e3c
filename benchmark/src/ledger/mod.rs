// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! The traced pass: per-layer metrics measured from outside the
//! library, by hosting each workload's loop in the benchmark's own
//! files — assembled from the same public pieces the library's trainer
//! uses — and timing the calls into each crate's public functions.
//!
//! Every hosted replay must reproduce the library call's result (loss,
//! `center_hash`) bit for bit, close its own time ledger, and cost no
//! more than a tenth on top of the untraced call; otherwise the traced
//! run fails. End-to-end numbers never come from here.

pub mod chain;
pub mod probes;
pub mod serve_lenet;
pub mod sim_p1024;
pub mod timeline;
pub mod train_mlp_measgd_t2;
pub mod train_mlp_sync_p4;
pub mod train_vgg_p1;

use crate::report::Outcome;
use crate::stats::quartiles;
use crate::trace::Trace;

/// `nn.closure_err` above this fails the traced run.
pub const NN_CLOSURE_GATE: f64 = 0.05;
/// `core.round_closure_err` above this fails the traced run.
pub const ROUND_CLOSURE_GATE: f64 = 0.10;
/// `trace.overhead_share` above this fails the traced run.
pub const OVERHEAD_GATE: f64 = 0.10;

/// `trace.overhead_share` = (traced − untraced) ÷ untraced. Untraced
/// and traced work alternate, and the share is the median over the
/// adjacent pairs, so that host drift — which moves whole minutes of
/// this sandbox by a tenth — cancels. The gate fires only when even the
/// lower quartile of the pairs is above [`OVERHEAD_GATE`]: a single run
/// holds a handful of pairs whose own noise is of the gate's size, and
/// a gate on their median would fail one healthy run in twenty.
pub fn overhead_gate(out: &mut Outcome, pairs: &[(f64, f64)]) {
    let shares: Vec<f64> = pairs.iter().map(|(u, t)| (t - u) / u).collect();
    let (q1, share, q3) = quartiles(&shares);
    println!(
        "trace overhead over {} untraced/traced pairs: median {share:.4} (q1 {q1:.4}, q3 {q3:.4})",
        pairs.len()
    );
    out.set("trace.overhead_share", share);
    if q1 > OVERHEAD_GATE {
        out.fail(format!(
            "trace.overhead_share {share:.4}: three quarters of the pairs are above {OVERHEAD_GATE}"
        ));
    }
}

/// Writes `benchmark/out/trace-<workload>.json` (relative to the
/// checkout root the benchmark runs from) and reports dropped spans.
pub fn write_trace(out: &mut Outcome, trace: &Trace, workload: &str) {
    if trace.dropped() > 0 {
        out.fail(format!(
            "{} spans did not fit the trace buffer",
            trace.dropped()
        ));
    }
    let path = std::path::Path::new("benchmark/out").join(format!("trace-{workload}.json"));
    match trace.write_json(&path, workload) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => out.fail(e),
    }
}
