//! # easgd-bench
//!
//! The paper-table harness of the `knl-easgd` reproduction: one binary
//! per table/figure of the SC '17 paper's evaluation, and four bins that
//! write the checked-in `BENCH_*.json` artifacts. Wall-clock step,
//! exchange and serving numbers are not measured here — `benchmark/`
//! owns them ([`report`] states the keep-rule).
//!
//! | target | regenerates |
//! |---|---|
//! | `--bin datasets` | Table 1 (dataset card) |
//! | `--bin table2`   | Table 2 (α-β network parameters) |
//! | `--bin fig4`     | Figure 4 / §2.3 (data vs model parallelism) |
//! | `--bin fig6`     | Figure 6 panels 1–4 (ours vs counterparts) |
//! | `--bin fig8`     | Figure 8 (overall shoot-out) |
//! | `--bin fig9`     | Figure 9 (method lineage) |
//! | `--bin fig10`    | Figure 10 (packed vs per-layer communication) |
//! | `--bin table3`   | Table 3 / Figure 11 (time breakdowns, 5.3×) |
//! | `--bin fig12`    | Figure 12 (KNL chip partitioning) |
//! | `--bin fig13`    | Figure 13 (more machines + more data) |
//! | `--bin table4`   | Table 4 (weak scaling vs Intel Caffe) |
//! | `--bin batch_size` | §7.2 (impact of batch size) |
//! | `--bin convex`   | §1's convex case (least squares, closed-form optimum) |
//! | `--bin hierarchy` | §10.4 testbed: hierarchical vs flat collectives |
//! | `--bin stragglers` | the introduction's straggler argument |
//! | `--bin tau_sweep` | communication-period (τ) ablation |
//! | `--bin kernels`  | `BENCH_kernels.json` (fork-join gate ledger, Figure 12 on real threads) |
//! | `--bin comm`     | `BENCH_comm.json` (tree vs flat reduce, §6.1 overlap, simulated) |
//! | `--bin cluster`  | `BENCH_cluster.json` (Table 4 / Figure 13 live on the event backend) |
//! | `--bin serve`    | `BENCH_serve.json` (logical-time micro-batching sweep) |
//! | `--bin schema_check` | validates every checked-in `BENCH_*.json` |
//!
//! This library hosts the pieces the binaries share: the standard
//! experiment task, iteration sweeps, table printers, and the artifact
//! writer/validator ([`report`]).

pub mod report;

use easgd::metrics::RunResult;
use easgd_data::{Dataset, SyntheticSpec};
use easgd_nn::models::lenet_tiny;
use easgd_nn::Network;

/// The standard Figure 6/8 experiment task: a synthetic MNIST-like
/// problem hard enough that accuracy-vs-time curves separate (noise
/// raised above the mnist-small default).
pub fn figure_task() -> (Network, Dataset, Dataset) {
    let spec = SyntheticSpec {
        noise: 1.1,
        ..SyntheticSpec::mnist_small()
    };
    let task = spec.task(0xF16);
    let (train, test) = task.train_test(2_000, 500, 0xF17);
    (lenet_tiny(0xF18), train, test)
}

/// The iteration budgets swept by the figure experiments — “each point
/// on the figure is a single train and test” (Figure 6 caption).
pub fn figure_budgets() -> Vec<usize> {
    vec![12, 25, 50, 100, 200, 400]
}

/// Prints the standard run-row header.
pub fn print_run_header() {
    println!(
        "{:<20} {:>7} {:>10} {:>8} {:>10}",
        "method", "iters", "seconds", "acc %", "log10 err"
    );
}

/// Prints one run as a figure point.
pub fn print_run(r: &RunResult) {
    println!(
        "{:<20} {:>7} {:>10.3} {:>8.1} {:>10.2}",
        r.method,
        r.iterations,
        r.seconds(),
        r.accuracy * 100.0,
        r.log10_error()
    );
}

/// First CLI argument following `flag`, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_task_is_learnable_but_not_trivial() {
        let (net, train, test) = figure_task();
        assert_eq!(net.num_classes(), train.classes);
        assert_eq!(train.shape, test.shape);
        assert!(train.len() >= 1000);
    }

    #[test]
    fn budgets_are_increasing() {
        let b = figure_budgets();
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
