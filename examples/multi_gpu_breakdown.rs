//! The §6.1 optimization story on the simulated 4-GPU node: Original
//! EASGD → Sync EASGD1 → 2 → 3, with the Table 3 time breakdown at each
//! step. The Sync rows' seconds are what the executed tree messages cost
//! (serial tree for EASGD1/2, the pipelined tree for EASGD3), with
//! `lenet_tiny`'s arena priced as the paper's 1.72 MB LeNet.
//!
//! ```sh
//! cargo run --release --example multi_gpu_breakdown
//! ```

use knl_easgd::algorithms::{sync_easgd_sim, RunResult, SimCosts};
use knl_easgd::cluster::TimeCategory;
use knl_easgd::prelude::*;

fn print_row(r: &RunResult) {
    let b = r.breakdown.as_ref().unwrap();
    let t = r.sim_seconds.unwrap();
    print!("{:<16} {:>7.1}% {:>8.2}s", r.method, r.accuracy * 100.0, t);
    for c in TimeCategory::ALL.iter().take(6) {
        print!(" {:>6.1}%", 100.0 * b.get(*c) / b.total());
    }
    println!(" {:>6.0}%", b.comm_ratio() * 100.0);
}

fn main() {
    let task = SyntheticSpec::mnist_small().task(3001);
    let (train, test) = task.train_test(2_000, 500, 3002);
    let net = lenet_tiny(3003);
    let costs = SimCosts::mnist_lenet_4gpu();

    // The paper gives round-robin 5× the iteration budget of the sync
    // methods (5000 vs 1000) so every method reaches the same accuracy.
    let sync_cfg = TrainConfig::figure6(250);
    let rr_cfg = sync_cfg.clone().with_iterations(312); // ≈ 5/4× per worker

    println!(
        "{:<16} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "method",
        "acc",
        "sim time",
        "g-g",
        "c-g dat",
        "c-g par",
        "fwdbwd",
        "gpu-up",
        "cpu-up",
        "comm"
    );
    let ser = original_easgd_sim(
        &net,
        &train,
        &test,
        &rr_cfg,
        &costs,
        OriginalMode::Serialized,
    );
    print_row(&ser);
    let pip = original_easgd_sim(
        &net,
        &train,
        &test,
        &rr_cfg,
        &costs,
        OriginalMode::Pipelined,
    );
    print_row(&pip);
    let mut last = 0.0;
    for v in [
        SyncVariant::Easgd1,
        SyncVariant::Easgd2,
        SyncVariant::Easgd3,
    ] {
        let r = sync_easgd_sim(&net, &train, &test, &sync_cfg, &costs, v, 0);
        print_row(&r);
        last = r.sim_seconds.unwrap();
    }
    println!(
        "\nspeedup of Sync EASGD3 over Original EASGD: {:.1}x (paper: 5.3x)",
        pip.sim_seconds.unwrap() / last
    );
}
