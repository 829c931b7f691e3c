//! Cross-crate integration: data → model → distributed training, for
//! every method in the paper, on one shared task.

use knl_easgd::prelude::*;

fn setup() -> (Network, Dataset, Dataset) {
    let task = SyntheticSpec::mnist_small().task(7001);
    let (train, test) = task.train_test(800, 240, 7002);
    (lenet_tiny(7003), train, test)
}

fn cfg(iters: usize) -> TrainConfig {
    TrainConfig::figure6(iters).with_seed(7010)
}

#[test]
fn every_wallclock_method_trains_end_to_end() {
    let (net, train, test) = setup();
    let c = cfg(120);
    let mut msgd = c.clone();
    msgd.eta = 0.01;
    let results: Vec<RunResult> = MethodId::ALL
        .into_iter()
        .map(|m| {
            let momentum = matches!(m, MethodId::AsyncMsgd | MethodId::AsyncMeasgd);
            run_method(m, &net, &train, &test, if momentum { &msgd } else { &c })
        })
        .collect();
    for r in &results {
        assert!(
            r.accuracy > 0.3,
            "{} failed to learn: acc {}",
            r.method,
            r.accuracy
        );
        assert!(r.final_loss.is_finite(), "{} diverged", r.method);
        assert!(r.wall_seconds > 0.0);
    }
    // All eight methods, all distinct names.
    let mut names: Vec<_> = results.iter().map(|r| r.method.clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 8);
}

#[test]
fn simulated_cluster_methods_train_end_to_end() {
    let (net, train, test) = setup();
    let costs = SimCosts::mnist_lenet_4gpu();
    let c = cfg(60);
    let orig = original_easgd_sim(&net, &train, &test, &c, &costs, OriginalMode::Pipelined);
    let sync3 = sync_easgd_sim(&net, &train, &test, &c, &costs, SyncVariant::Easgd3, 0);
    assert!(orig.accuracy > 0.3, "original acc {}", orig.accuracy);
    assert!(sync3.accuracy > 0.3, "sync3 acc {}", sync3.accuracy);
    // Same per-worker iteration budget: Sync EASGD3 must be much faster
    // in simulated time (the 5.3× headline mechanism).
    assert!(sync3.sim_seconds.unwrap() < orig.sim_seconds.unwrap());
}

#[test]
fn elastic_methods_beat_their_counterparts_on_equal_budget() {
    // Figure 6's qualitative claim, checked on accuracy at equal
    // iteration budget and hyperparameters. Elastic averaging stabilizes
    // the asynchronous methods; at minimum it must not lose badly.
    let (net, train, test) = setup();
    let c = cfg(150);
    for m in [MethodId::AsyncEasgd, MethodId::HogwildEasgd] {
        let (ours, theirs) = run_comparison(m, &net, &train, &test, &c).unwrap();
        assert!(
            ours.accuracy >= theirs.accuracy - 0.08,
            "{} ({}) much worse than {} ({})",
            ours.method,
            ours.accuracy,
            theirs.method,
            theirs.accuracy
        );
    }
}

#[test]
fn real_mnist_format_roundtrips_through_training() {
    // Write a tiny synthetic dataset in the *real* MNIST idx format,
    // load it back through the production loader, and train on it.
    use knl_easgd::data::loaders::load_mnist;
    use std::io::Write;

    let spec = SyntheticSpec {
        size: 28,
        ..SyntheticSpec::mnist()
    };
    let d = spec.task(7020).generate(64, 7021);
    let dir = std::env::temp_dir().join("knl_easgd_e2e_mnist");
    std::fs::create_dir_all(&dir).unwrap();
    let img_path = dir.join("images-idx3");
    let lbl_path = dir.join("labels-idx1");
    let mut img = Vec::new();
    img.extend_from_slice(&0x0000_0803u32.to_be_bytes());
    img.extend_from_slice(&(d.len() as u32).to_be_bytes());
    img.extend_from_slice(&28u32.to_be_bytes());
    img.extend_from_slice(&28u32.to_be_bytes());
    for i in 0..d.len() {
        for &v in d.image(i) {
            // Quantize the normalized floats into the byte range.
            img.push(((v.clamp(-3.0, 3.0) + 3.0) / 6.0 * 255.0) as u8);
        }
    }
    let mut lbl = Vec::new();
    lbl.extend_from_slice(&0x0000_0801u32.to_be_bytes());
    lbl.extend_from_slice(&(d.len() as u32).to_be_bytes());
    lbl.extend(d.labels().iter().map(|&l| l as u8));
    std::fs::File::create(&img_path)
        .unwrap()
        .write_all(&img)
        .unwrap();
    std::fs::File::create(&lbl_path)
        .unwrap()
        .write_all(&lbl)
        .unwrap();

    let loaded = load_mnist(&img_path, &lbl_path).unwrap();
    assert_eq!(loaded.len(), 64);
    assert_eq!(loaded.shape, vec![1, 28, 28]);
    let mut net = lenet(7022);
    let mut rng = Rng::new(7023);
    let batch = loaded.sample_batch(&mut rng, 16);
    let stats = net.forward_backward(&batch.images, &batch.labels);
    assert!(stats.loss.is_finite());
}

#[test]
fn knl_partitioning_respects_capacity_and_learns() {
    let (net, train, test) = setup();
    let mut c = cfg(400).with_workers(4);
    c.eta = 0.02; // the §6.2 update applies the gradient *sum*
    let out = knl_partition_run(&net, &train, &test, &c, &KnlChip::cori_node(), 0.5, 0.6, 25);
    assert!(out.fits_fast_memory);
    assert!(
        out.final_accuracy > 0.5,
        "partitioned training stalled at {}",
        out.final_accuracy
    );
}
