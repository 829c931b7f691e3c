//! Communication-period ablation: EASGD's τ knob (τ local SGD steps per
//! elastic exchange). τ = 1 is the SC '17 setting; larger τ trades
//! communication for staleness — the knob the original EASGD paper
//! explores and a natural extension of the SC '17 methods.
//!
//! ```sh
//! cargo run --release -p easgd-bench --bin tau_sweep
//! ```

use easgd::{run_method, MethodId, TrainConfig};
use easgd_bench::figure_task;

fn main() {
    let (net, train, test) = figure_task();
    println!("Communication-period sweep (Async EASGD / Hogwild EASGD, 4 workers, 200 iters)");
    println!(
        "{:>5} {:>22} {:>10} {:>8} | {:>22} {:>10} {:>8}",
        "tau", "method", "wall s", "acc %", "method", "wall s", "acc %"
    );
    for &tau in &[1usize, 2, 4, 8, 16] {
        let cfg = TrainConfig::figure6(200).with_comm_period(tau);
        let a = run_method(MethodId::AsyncEasgd, &net, &train, &test, &cfg);
        let h = run_method(MethodId::HogwildEasgd, &net, &train, &test, &cfg);
        println!(
            "{:>5} {:>22} {:>10.2} {:>8.1} | {:>22} {:>10.2} {:>8.1}",
            tau,
            a.method,
            a.wall_seconds,
            a.accuracy * 100.0,
            h.method,
            h.wall_seconds,
            h.accuracy * 100.0
        );
    }
    println!(
        "\nreading: on a fast shared-memory node τ = 1 is near-optimal (exchanges are\n\
         cheap); higher τ reduces synchronization at mild accuracy cost — the trade\n\
         that matters when exchanges cross a slow network."
    );
}
