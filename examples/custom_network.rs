//! Building a custom architecture with the network builder from the
//! paper's layers — local response normalization (AlexNet), an inception
//! module (GoogLeNet), average pooling — training it distributed, and
//! checkpointing the result.
//!
//! ```sh
//! cargo run --release --example custom_network
//! ```

use knl_easgd::nn::checkpoint::{load_network, save_network};
use knl_easgd::nn::inception::InceptionConfig;
use knl_easgd::prelude::*;

fn main() {
    let task = SyntheticSpec::cifar_small().task(0xC057);
    let (train, test) = task.train_test(1_500, 400, 0xC058);

    // A custom stack: conv stem → LRN → inception → average pool →
    // classifier.
    let net = NetworkBuilder::new([3, 16, 16])
        .conv2d(8, 3, 1, 1)
        .relu()
        .lrn()
        .maxpool(2, 2)
        .inception(InceptionConfig {
            c1: 4,
            c3_reduce: 4,
            c3: 6,
            c5_reduce: 2,
            c5: 3,
            pool_proj: 3,
        })
        .relu()
        .avgpool(2, 2)
        .flatten()
        .dense(64)
        .relu()
        .dense(10)
        .build(7);
    println!(
        "custom network: {} layers, {} parameters ({} packed bytes)",
        net.num_layers(),
        net.num_params(),
        net.size_bytes()
    );
    for (name, len) in net.segment_sizes() {
        println!("  {name:<24} {len:>8}");
    }

    // Train it with Hogwild EASGD (fastest asynchronous method).
    let cfg = TrainConfig::figure6(250);
    let result = hogwild_easgd(&net, &train, &test, &cfg);
    println!(
        "\n{}: {:.1}% test accuracy in {:.2}s",
        result.method,
        result.accuracy * 100.0,
        result.wall_seconds
    );

    // Checkpoint and restore.
    let path = std::env::temp_dir().join("custom_network.ckpt");
    save_network(&net, &path).expect("checkpoint write failed");
    let mut restored = net.clone();
    load_network(&mut restored, &path).expect("checkpoint read failed");
    println!(
        "checkpoint round-trip OK: {} bytes at {}",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display()
    );
}
