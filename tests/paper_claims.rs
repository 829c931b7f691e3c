//! Direct checks of the paper's headline quantitative claims, at the
//! reproduction's scale (see EXPERIMENTS.md for the full paper-vs-
//! measured record).

use knl_easgd::algorithms::weak_scaling::{INTEL_CAFFE_GOOGLENET_2176, INTEL_CAFFE_VGG_2176};
use knl_easgd::hardware::collective::{reduce_tree, round_robin_exchange};
use knl_easgd::nn::spec::{spec_alexnet, spec_googlenet, spec_vgg19};
use knl_easgd::nn::{CommSchedule, LayoutKind};
use knl_easgd::prelude::*;

/// §1 / contribution (1): tree reduction replaces the round-robin rule —
/// Θ(log P) vs Θ(P).
#[test]
fn tree_vs_round_robin_asymptotics() {
    let link = AlphaBeta::fdr_infiniband();
    let w = spec_alexnet().weight_bytes();
    let speedup_16 = round_robin_exchange(&link, 16, w) / reduce_tree(&link, 16, w);
    let speedup_256 = round_robin_exchange(&link, 256, w) / reduce_tree(&link, 256, w);
    assert!((speedup_16 - 4.0).abs() < 1e-9); // 16/log2(16)
    assert!((speedup_256 - 32.0).abs() < 1e-9); // 256/log2(256)
}

/// §5.2 / Figure 10: packed single-layer communication strictly beats
/// per-layer messages on every Table 2 network, and the gap equals the
/// saved latency terms.
#[test]
fn packed_layout_wins_on_every_table2_network() {
    for spec in [spec_alexnet(), spec_googlenet(), spec_vgg19()] {
        let packed = CommSchedule::from_spec(&spec, LayoutKind::Packed);
        let unpacked = CommSchedule::from_spec(&spec, LayoutKind::PerLayer);
        for link in AlphaBeta::table2() {
            let tp = packed.time_alpha_beta(link.alpha_s, link.beta_s_per_byte);
            let tu = unpacked.time_alpha_beta(link.alpha_s, link.beta_s_per_byte);
            assert!(tp < tu, "{} on {}", spec.name, link.name);
            let saved = (unpacked.num_messages() - 1) as f64 * link.alpha_s;
            assert!((tu - tp - saved).abs() < 1e-12);
        }
    }
}

/// §6.1 / Table 3: the Sync EASGD chain cuts the communication ratio
/// from ~87% to well under 30% and yields a large speedup at equal
/// gradient budget.
#[test]
fn table3_shape_comm_ratio_collapses() {
    let task = SyntheticSpec::mnist_small().task(8001);
    let (train, test) = task.train_test(600, 200, 8002);
    let net = lenet_tiny(8003);
    let costs = SimCosts::mnist_lenet_4gpu();
    let cfg = TrainConfig::figure6(30).with_seed(8004);

    let orig = original_easgd_sim(&net, &train, &test, &cfg, &costs, OriginalMode::Pipelined);
    let sync3 = sync_easgd_sim(&net, &train, &test, &cfg, &costs, SyncVariant::Easgd3, 0);

    let orig_ratio = orig.breakdown.as_ref().unwrap().comm_ratio();
    let sync_ratio = sync3.breakdown.as_ref().unwrap().comm_ratio();
    assert!(orig_ratio > 0.75, "original comm ratio {orig_ratio}");
    assert!(sync_ratio < 0.30, "sync3 comm ratio {sync_ratio}");

    let speedup = orig.sim_seconds.unwrap() / sync3.sim_seconds.unwrap();
    assert!(
        speedup > 3.0,
        "expected multi-x speedup at equal budget, got {speedup:.2}"
    );
}

/// §6.2 / Figure 12: the MCDRAM capacity rule allows 16 partitions for
/// AlexNet + one CIFAR copy, but not 32.
#[test]
fn figure12_capacity_gate() {
    let chip = KnlChip::cori_node();
    let alexnet = 249_000_000; // §6.2's numbers
    let cifar_copy = 687_000_000;
    assert!(chip.fits_copies(16, alexnet, cifar_copy));
    assert!(!chip.fits_copies(32, alexnet, cifar_copy));
}

/// §7.1 / Table 4: weak-scaling efficiencies land in the paper's bands
/// and beat the Intel Caffe numbers at 2176 cores.
#[test]
fn table4_efficiency_bands() {
    let g = WeakScalingModel::googlenet_imagenet();
    let v = WeakScalingModel::vgg_imagenet();
    // 4352 cores = 64 nodes: paper 91.6% / 80.2%.
    assert!(
        (0.85..1.0).contains(&g.efficiency(64)),
        "{}",
        g.efficiency(64)
    );
    assert!(
        (0.70..0.95).contains(&v.efficiency(64)),
        "{}",
        v.efficiency(64)
    );
    // 2176 cores = 32 nodes: beat Intel Caffe's 87% / 62%.
    assert!(g.efficiency(32) > INTEL_CAFFE_GOOGLENET_2176);
    assert!(v.efficiency(32) > INTEL_CAFFE_VGG_2176);
    // GoogLeNet scales better than VGG everywhere (weight size ratio).
    for n in [2usize, 8, 32, 64] {
        assert!(g.efficiency(n) > v.efficiency(n));
    }
}

/// §8: Sync EASGD is deterministic and reproducible — bit-identical
/// accuracy and simulated time across runs.
#[test]
fn sync_easgd_determinism_claim() {
    let task = SyntheticSpec::mnist_small().task(8011);
    let (train, test) = task.train_test(400, 100, 8012);
    let net = lenet_tiny(8013);
    let costs = SimCosts::mnist_lenet_4gpu();
    let cfg = TrainConfig::figure6(20).with_seed(8014);
    let a = sync_easgd_sim(&net, &train, &test, &cfg, &costs, SyncVariant::Easgd3, 0);
    let b = sync_easgd_sim(&net, &train, &test, &cfg, &costs, SyncVariant::Easgd3, 0);
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.sim_seconds, b.sim_seconds);
    let shared_a = sync_easgd_shared(&net, &train, &test, &cfg);
    let shared_b = sync_easgd_shared(&net, &train, &test, &cfg);
    assert_eq!(shared_a.accuracy, shared_b.accuracy);
}

/// Table 1: the dataset cards match the paper.
#[test]
fn table1_dataset_cards() {
    let cards = knl_easgd::data::standard_cards();
    assert_eq!(cards[0].training_images, 60_000);
    assert_eq!(cards[1].pixels, "3x32x32");
    assert_eq!(cards[2].classes, 1000);
    assert!((cards[2].random_guess_accuracy() - 0.001).abs() < 1e-12);
}

/// Table 2: the α-β presets match the paper's numbers.
#[test]
fn table2_network_parameters() {
    let t = AlphaBeta::table2();
    assert_eq!(t[0].name, "Mellanox 56Gb/s FDR IB");
    assert!((t[0].alpha_s - 0.7e-6).abs() < 1e-15);
    assert!((t[1].beta_s_per_byte - 0.3e-9).abs() < 1e-18);
    assert!((t[2].alpha_s - 7.2e-6).abs() < 1e-15);
}
