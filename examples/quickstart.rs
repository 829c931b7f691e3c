//! Quickstart: train a small CNN on a synthetic MNIST-like task with the
//! paper's fastest method (Sync EASGD) and print the outcome.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use knl_easgd::prelude::*;

fn main() {
    // 1. A task: class-conditional synthetic images (stands in for MNIST
    //    in this offline reproduction; see DESIGN.md §2).
    let spec = SyntheticSpec::mnist_small();
    let task = spec.task(42);
    let (train, test) = task.train_test(2_000, 500, 43);
    println!(
        "dataset: {} train / {} test samples of {:?}, {} classes",
        train.len(),
        test.len(),
        train.shape,
        train.classes
    );

    // 2. A model: LeNet-shaped CNN (conv → pool → dense), parameters in
    //    one packed arena (§5.2 of the paper).
    let net = lenet_tiny(7);
    println!(
        "model: {} parameters ({} bytes packed)",
        net.num_params(),
        net.size_bytes()
    );

    // 3. Train with Sync EASGD on 4 workers — the method the paper finds
    //    fastest-or-tied while staying deterministic (§8).
    let cfg = TrainConfig::figure6(400);
    let result = sync_easgd_shared(&net, &train, &test, &cfg);
    println!(
        "{}: {} rounds x {} workers, batch {}",
        result.method, cfg.iterations, cfg.workers, cfg.batch
    );
    println!(
        "  test accuracy {:.1}%  (final loss {:.4})  in {:.2}s wall",
        result.accuracy * 100.0,
        result.final_loss,
        result.wall_seconds
    );

    // 4. Same budget with the round-robin baseline the paper improves on.
    let baseline = run_method(MethodId::OriginalEasgd, &net, &train, &test, &cfg);
    println!(
        "{}: test accuracy {:.1}% in {:.2}s wall",
        baseline.method,
        baseline.accuracy * 100.0,
        baseline.wall_seconds
    );
}
