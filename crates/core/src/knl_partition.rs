//! KNL chip partitioning (§6.2, Figure 12).
//!
//! The divide-and-conquer schedule: split the chip into `G` NUMA-like
//! groups, give each group a private replica of the data and the weights
//! (both resident in MCDRAM), let each compute a batch gradient on its
//! own cores, tree-**sum** the gradients, and let every group update its
//! replica with the sum. Groups never communicate except through that
//! reduction.
//!
//! Three effects drive Figure 12's 3.3× speedup, and all are modelled:
//!
//! 1. **Parallelism that actually scales.** One small-batch DNN iteration
//!    cannot use 68 cores efficiently (Amdahl + tiny GEMMs); 16 groups of
//!    4 cores each run near-perfectly in parallel. Per-round simulated
//!    compute time is `T₁ / amdahl(68/G)`, with the gradients *really*
//!    computed (the accuracy trajectory is genuine training).
//! 2. **Summed (not averaged) gradients.** Algorithm §6.2 applies the
//!    *sum* of the G gradients, the linear-scaling rule in disguise —
//!    G groups reach the target accuracy in roughly G× fewer rounds.
//! 3. **The MCDRAM capacity gate.** The scheme works only while `G`
//!    copies of (weights + data) fit in the 16 GB of fast memory;
//!    spilling to DDR4 multiplies compute time by the bandwidth ratio.
//!
//! The experiment runs single-threaded and deterministically; group
//! concurrency lives in the simulated clock. (The wall-clock
//! bulk-synchronous substrate is exercised by
//! [`crate::shared::sync_easgd_shared`].)

use crate::config::TrainConfig;
use crate::engine::{evaluate_center, worker_rng, SALT_PHI};
use easgd_data::Dataset;
use easgd_hardware::knl::KnlChip;
use easgd_nn::Network;
use easgd_tensor::Rng;

/// Amdahl's-law speedup of one batch iteration on `cores` cores with the
/// given serial fraction.
pub fn amdahl_speedup(cores: usize, serial_fraction: f64) -> f64 {
    assert!(cores > 0, "need at least one core");
    assert!(
        (0.0..=1.0).contains(&serial_fraction),
        "bad serial fraction"
    );
    let c = cores as f64;
    c / (1.0 + serial_fraction * (c - 1.0))
}

/// Result of one partitioned-training run.
#[derive(Clone, Debug)]
pub struct KnlPartitionOutcome {
    /// Requested partition count `G`.
    pub partitions: usize,
    /// Whether `G` copies of weights + data fit in MCDRAM (§6.2's
    /// limitation rule).
    pub fits_fast_memory: bool,
    /// Modelled compute slowdown applied when the working set spills to
    /// DDR4 (1.0 when resident).
    pub memory_penalty: f64,
    /// Simulated seconds per round.
    pub round_seconds: f64,
    /// Simulated seconds to reach the target accuracy, if reached.
    pub seconds_to_target: Option<f64>,
    /// Accuracy at the end of the run.
    pub final_accuracy: f32,
    /// Rounds executed.
    pub rounds_run: usize,
}

/// Serial fraction of one small-batch training iteration on a many-core
/// chip. Calibrated so the Figure 12 speedup chain lands near the
/// paper's (1 → 4 → 8 → 16 parts ≈ 1 / 1.6 / 2.0 / 3.3×).
pub const KNL_ITERATION_SERIAL_FRACTION: f64 = 0.05;

/// Runs §6.2 partitioned training with `cfg.workers` groups until
/// `target_accuracy` is reached (checked every `check_every` rounds) or
/// `cfg.iterations` rounds elapse.
///
/// `base_round_seconds` is the measured/modelled time of ONE batch
/// iteration using the whole chip (the G = 1 case). Every group holds a
/// full replica of `train` and contributes one real batch gradient per
/// round; the *summed* gradient updates all replicas identically.
// Experiment driver: takes the full §6.2 configuration tuple; bundling it
// into a struct would just move the eight names one level down.
#[allow(clippy::too_many_arguments)]
pub fn knl_partition_run(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    chip: &KnlChip,
    base_round_seconds: f64,
    target_accuracy: f32,
    check_every: usize,
) -> KnlPartitionOutcome {
    cfg.validate();
    assert!(check_every > 0, "check_every must be positive");
    assert!(base_round_seconds > 0.0, "base round time must be positive");
    let g = cfg.workers;
    let weight_bytes = proto.size_bytes();
    let data_bytes = train.size_bytes();
    let fits = chip.fits_copies(g, weight_bytes, data_bytes);
    let memory_penalty = if fits {
        1.0
    } else {
        chip.mcdram_bw / chip.ddr_bw
    };

    // Per-round simulated time: the G groups run concurrently, each on
    // cores/G cores; one full-chip iteration costs base_round_seconds at
    // amdahl(cores) speedup, so a (cores/G)-core group costs
    // base · amdahl(cores)/amdahl(cores/G).
    let full_chip = amdahl_speedup(chip.cores, KNL_ITERATION_SERIAL_FRACTION);
    let group_cores = chip.cores_per_partition(g).max(1);
    let group = amdahl_speedup(group_cores, KNL_ITERATION_SERIAL_FRACTION);
    let compute_seconds = base_round_seconds * full_chip / group * memory_penalty;
    // Tree-summing G gradients through MCDRAM: log₂G full-weight hops.
    let reduce_seconds = easgd_hardware::collective::ceil_log2(g) as f64
        * (2.0 * weight_bytes as f64 / chip.mcdram_bw);
    let round_seconds = compute_seconds + reduce_seconds;

    // Real training: G per-group gradients per round, applied as a sum.
    let mut net = proto.clone();
    let n = net.num_params();
    let mut rngs: Vec<Rng> = (0..g).map(|w| worker_rng(cfg.seed, SALT_PHI, w)).collect();
    let mut grad_sum = vec![0.0f32; n];
    let mut hit_round = None;
    let mut final_accuracy = 0.0f32;
    let mut rounds_run = 0;
    for round in 0..cfg.iterations {
        grad_sum.iter_mut().for_each(|x| *x = 0.0);
        for rng in rngs.iter_mut() {
            let batch = train.sample_batch(rng, cfg.batch);
            let _ = net.forward_backward(&batch.images, &batch.labels);
            easgd_tensor::ops::fold_sum(&mut grad_sum, &[net.grads().as_slice()]);
        }
        // §6.2: update with the gradient *sum* (linear scaling built in).
        easgd_tensor::ops::axpy(-cfg.eta, &grad_sum, net.params_mut().as_mut_slice());
        rounds_run = round + 1;
        if rounds_run % check_every == 0 {
            final_accuracy = evaluate_center(proto, net.params().as_slice(), test);
            if final_accuracy >= target_accuracy {
                hit_round = Some(rounds_run);
                break;
            }
        }
    }
    KnlPartitionOutcome {
        partitions: g,
        fits_fast_memory: fits,
        memory_penalty,
        round_seconds,
        seconds_to_target: hit_round.map(|r| r as f64 * round_seconds),
        final_accuracy,
        rounds_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(91);
        let (train, test) = task.train_test(600, 200, 92);
        (lenet_tiny(93), train, test)
    }

    fn cfg(groups: usize, rounds: usize) -> TrainConfig {
        TrainConfig {
            workers: groups,
            batch: 16,
            eta: 0.02,
            rho: 0.3,
            mu: 0.9,
            iterations: rounds,
            seed: 101,
            comm_period: 1,
        }
    }

    #[test]
    fn amdahl_known_points() {
        assert!((amdahl_speedup(1, 0.05) - 1.0).abs() < 1e-12);
        // 68 cores, 5% serial → ≈ 15.7×.
        let s = amdahl_speedup(68, 0.05);
        assert!((15.0..17.0).contains(&s), "{s}");
        // Perfectly parallel work scales linearly.
        assert!((amdahl_speedup(8, 0.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn reaches_target_on_easy_task() {
        let (proto, train, test) = setup();
        let out = knl_partition_run(
            &proto,
            &train,
            &test,
            &cfg(4, 600),
            &KnlChip::cori_node(),
            0.5,
            0.7,
            10,
        );
        assert!(out.fits_fast_memory);
        assert_eq!(out.memory_penalty, 1.0);
        assert!(
            out.seconds_to_target.is_some(),
            "never reached 0.7 (final {})",
            out.final_accuracy
        );
    }

    #[test]
    fn more_partitions_reach_target_sooner() {
        // The Figure 12 shape: simulated time-to-accuracy drops with G.
        let (proto, train, test) = setup();
        let chip = KnlChip::cori_node();
        let t1 = knl_partition_run(&proto, &train, &test, &cfg(1, 2000), &chip, 0.5, 0.7, 5)
            .seconds_to_target
            .expect("G=1 never converged");
        let t4 = knl_partition_run(&proto, &train, &test, &cfg(4, 2000), &chip, 0.5, 0.7, 5)
            .seconds_to_target
            .expect("G=4 never converged");
        assert!(t4 < t1, "4 groups ({t4:.1}s) !< 1 group ({t1:.1}s)");
    }

    #[test]
    fn per_round_time_grows_sublinearly_with_groups() {
        // A group has fewer cores, but far better efficiency: 16 groups
        // must cost much less than 16× one group's round.
        let (proto, train, test) = setup();
        let chip = KnlChip::cori_node();
        let r1 =
            knl_partition_run(&proto, &train, &test, &cfg(1, 1), &chip, 1.0, 0.99, 1).round_seconds;
        let r16 = knl_partition_run(&proto, &train, &test, &cfg(16, 1), &chip, 1.0, 0.99, 1)
            .round_seconds;
        assert!(r16 < 16.0 * r1 * 0.5, "r1={r1:.3} r16={r16:.3}");
        // Throughput (samples per simulated second) strictly improves.
        assert!(16.0 / r16 > 1.0 / r1);
    }

    #[test]
    fn oversized_working_set_pays_ddr_penalty() {
        // G = 1 is gated like every other G: one copy that exceeds
        // MCDRAM spills too.
        let (proto, train, test) = setup();
        let mut chip = KnlChip::cori_node();
        chip.mcdram_bytes = 1024;
        for g in [1, 2] {
            let out = knl_partition_run(&proto, &train, &test, &cfg(g, 4), &chip, 1.0, 0.99, 2);
            assert!(!out.fits_fast_memory, "G={g}");
            assert_eq!(out.memory_penalty, chip.mcdram_bw / chip.ddr_bw, "G={g}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (proto, train, test) = setup();
        let chip = KnlChip::cori_node();
        let a = knl_partition_run(&proto, &train, &test, &cfg(4, 100), &chip, 0.5, 0.7, 10);
        let b = knl_partition_run(&proto, &train, &test, &cfg(4, 100), &chip, 0.5, 0.7, 10);
        assert_eq!(a.rounds_run, b.rounds_run);
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.seconds_to_target, b.seconds_to_target);
    }
}
