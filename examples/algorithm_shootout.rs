//! The Figure 8 experience in miniature: run all eight methods on the
//! same task, hardware and hyperparameters (§2.4's comparison rule) and
//! rank them by time-to-accuracy.
//!
//! ```sh
//! cargo run --release --example algorithm_shootout
//! ```

use knl_easgd::algorithms::RunResult;
use knl_easgd::prelude::*;

fn main() {
    let task = SyntheticSpec::mnist_small().task(1001);
    let (train, test) = task.train_test(2_000, 500, 1002);
    let net = lenet_tiny(1003);
    let cfg = TrainConfig::figure6(300);
    let mut msgd_cfg = cfg.clone();
    msgd_cfg.eta = 0.01; // momentum methods need the smaller rate

    println!(
        "{:<16} {:>10} {:>10} {:>12}  origin",
        "method", "acc %", "err log10", "wall s"
    );
    let mut results: Vec<(RunResult, &str)> = MethodId::ALL
        .into_iter()
        .map(|m| {
            let momentum = matches!(m, MethodId::AsyncMsgd | MethodId::AsyncMeasgd);
            let c = if momentum { &msgd_cfg } else { &cfg };
            let origin = if m.is_existing() { "existing" } else { "ours" };
            (run_method(m, &net, &train, &test, c), origin)
        })
        .collect();
    results.sort_by(|a, b| b.0.accuracy.partial_cmp(&a.0.accuracy).unwrap());
    for (r, origin) in &results {
        println!(
            "{:<16} {:>10.1} {:>10.2} {:>12.2}  {origin}",
            r.method,
            r.accuracy * 100.0,
            r.log10_error(),
            r.wall_seconds
        );
    }
}
