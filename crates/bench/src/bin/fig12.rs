//! Figure 12: partitioning a KNL chip into groups, each processing a
//! local weight/data replica, improves time-to-accuracy until the
//! MCDRAM capacity limit.
//!
//! ```sh
//! cargo run --release -p easgd-bench --bin fig12
//! ```

use easgd::{knl_partition_run, TrainConfig};
use easgd_data::SyntheticSpec;
use easgd_hardware::knl::KnlChip;
use easgd_nn::models::alexnet_cifar_tiny;

fn main() {
    let task = SyntheticSpec::cifar_small().task(0xF12);
    let (train, test) = task.train_test(2_000, 500, 0xF13);
    let net = alexnet_cifar_tiny(0xF14);
    let chip = KnlChip::cori_node();
    let target = 0.88;
    let base_round = 0.5; // G = 1 full-chip seconds per iteration

    println!(
        "Figure 12: partitioned KNL training, target accuracy {:.1}%",
        target * 100.0
    );
    println!(
        "{:>6} {:>6} {:>8} {:>10} {:>8} {:>12} {:>9}",
        "parts", "fits?", "rounds", "s/round", "acc %", "sim secs", "speedup"
    );
    let mut base: Option<f64> = None;
    for groups in [1usize, 4, 8, 16] {
        let cfg = TrainConfig {
            workers: groups,
            batch: 32,
            eta: 0.004,
            rho: 0.3,
            mu: 0.9,
            iterations: 5_000,
            seed: 0xF15,
            comm_period: 1,
        };
        let out = knl_partition_run(&net, &train, &test, &cfg, &chip, base_round, target, 2);
        let speedup = match (base, out.seconds_to_target) {
            (Some(b), Some(s)) => format!("{:.2}x", b / s),
            _ => "--".to_string(),
        };
        println!(
            "{:>6} {:>6} {:>8} {:>10.3} {:>8.1} {:>12} {:>9}",
            out.partitions,
            if out.fits_fast_memory { "yes" } else { "no" },
            out.rounds_run,
            out.round_seconds,
            out.final_accuracy * 100.0,
            out.seconds_to_target
                .map_or("--".to_string(), |s| format!("{s:.1}")),
            speedup,
        );
        if base.is_none() {
            base = out.seconds_to_target;
        }
    }

    // The capacity cliff (§6.2: "MCDRAM can hold at most 16 copies of
    // weight and data" for the paper's 249 MB + 687 MB working set).
    println!("\nMCDRAM capacity gate for the paper's full-size working set:");
    let weights = 249_000_000usize;
    let data = 687_000_000usize;
    for p in [1usize, 4, 8, 16, 32] {
        println!(
            "  {p:>2} copies of (249 MB weights + 687 MB data): {}",
            if chip.fits_copies(p, weights, data) {
                "fits in 16 GB MCDRAM"
            } else {
                "SPILLS to DDR4"
            }
        );
    }
    println!(
        "\npaper: 1 part 1605 s, 4 parts 1025 s (1.6x), 8 parts 823 s (2.0x), \
         16 parts 490 s (3.3x); 32 parts impossible (capacity)"
    );
}
