//! Figure 6: each of the paper's methods vs its existing counterpart,
//! accuracy vs time, one independent run per point.
//!
//! ```sh
//! cargo run --release -p easgd-bench --bin fig6              # all panels
//! cargo run --release -p easgd-bench --bin fig6 -- --panel 3 # one panel
//! ```
//!
//! Panels 1–3 (Async EASGD vs Async SGD, Async MEASGD vs Async MSGD,
//! Hogwild EASGD vs Hogwild SGD) run wall-clock on real threads; panel 4
//! (Sync EASGD vs Original EASGD) runs on the simulated 4-GPU node where
//! the round-robin vs tree-reduction cost difference lives.

use easgd::{
    original_easgd_sim, run_comparison, sync_easgd_sim, MethodId, OriginalMode, SimCosts,
    SyncVariant, TrainConfig,
};
use easgd_bench::{arg_value, figure_budgets, figure_task, print_run, print_run_header};

/// One wall-clock panel: one of the paper's methods against its
/// Figure 6 counterpart.
fn wall_panel(title: &str, method: MethodId, eta: f32) {
    println!("\n=== {title} ===");
    let (net, train, test) = figure_task();
    print_run_header();
    for &iters in &figure_budgets() {
        let cfg = TrainConfig::figure6(iters).with_eta(eta);
        let (ours, theirs) = run_comparison(method, &net, &train, &test, &cfg)
            .expect("each of the paper's methods has a counterpart");
        print_run(&theirs);
        print_run(&ours);
    }
}

fn sim_panel() {
    println!("\n=== Figure 6.4: Sync EASGD vs Original EASGD (simulated 4-GPU node) ===");
    let (net, train, test) = figure_task();
    let costs = SimCosts::mnist_lenet_4gpu();
    print_run_header();
    for &iters in &figure_budgets() {
        let cfg = TrainConfig::figure6(iters);
        print_run(&original_easgd_sim(
            &net,
            &train,
            &test,
            &cfg,
            &costs,
            OriginalMode::Pipelined,
        ));
        print_run(&sync_easgd_sim(
            &net,
            &train,
            &test,
            &cfg,
            &costs,
            SyncVariant::Easgd3,
            0,
        ));
    }
}

fn main() {
    let panel = arg_value("--panel");
    let want = |p: &str| panel.is_none() || panel.as_deref() == Some(p);
    if want("1") {
        wall_panel(
            "Figure 6.1: Async EASGD vs Async SGD",
            MethodId::AsyncEasgd,
            0.2,
        );
    }
    if want("2") {
        wall_panel(
            "Figure 6.2: Async MEASGD vs Async MSGD",
            MethodId::AsyncMeasgd,
            0.02,
        );
    }
    if want("3") {
        wall_panel(
            "Figure 6.3: Hogwild EASGD vs Hogwild SGD",
            MethodId::HogwildEasgd,
            0.2,
        );
    }
    if want("4") {
        sim_panel();
    }
}
