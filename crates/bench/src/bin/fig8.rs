//! Figure 8: the overall shoot-out — all eight methods, log10 error rate
//! vs time, each point an independent run with its own iteration budget.
//!
//! ```sh
//! cargo run --release -p easgd-bench --bin fig8
//! ```
//!
//! The asynchronous/shared-memory methods run wall-clock; Original and
//! Sync EASGD additionally run on the simulated 4-GPU node (marked
//! `[sim]`), where the paper's communication-cost separation lives.

use easgd::{
    original_easgd_sim, run_method, sync_easgd_sim, MethodId, OriginalMode, SimCosts, SyncVariant,
    TrainConfig,
};
use easgd_bench::{figure_budgets, figure_task, print_run, print_run_header};

fn main() {
    let (net, train, test) = figure_task();
    println!("=== Figure 8: all methods, wall-clock (shared-memory node) ===");
    print_run_header();
    for m in MethodId::ALL {
        // The momentum methods train at the smaller rate (η/(1−µ) is
        // their effective one).
        let eta = match m {
            MethodId::AsyncMsgd | MethodId::AsyncMeasgd => 0.02,
            _ => 0.2,
        };
        for &iters in &figure_budgets() {
            let cfg = TrainConfig::figure6(iters).with_eta(eta);
            print_run(&run_method(m, &net, &train, &test, &cfg));
        }
    }

    println!("\n=== Figure 8 (simulated 4-GPU node): the comm-bound separation ===");
    let costs = SimCosts::mnist_lenet_4gpu();
    print_run_header();
    for &iters in &figure_budgets() {
        let cfg = TrainConfig::figure6(iters);
        let mut orig =
            original_easgd_sim(&net, &train, &test, &cfg, &costs, OriginalMode::Pipelined);
        orig.method += " [sim]";
        print_run(&orig);
        let mut sync = sync_easgd_sim(&net, &train, &test, &cfg, &costs, SyncVariant::Easgd3, 0);
        sync.method += " [sim]";
        print_run(&sync);
    }
}
