//! The lock-free algorithms: Hogwild SGD (§3.2) and Hogwild EASGD
//! (§5.1, contribution 1).
//!
//! Hogwild removes the master's update lock: workers apply their updates
//! to the shared vector concurrently, component-by-component, with no
//! cross-component atomicity. Hogwild EASGD applies the same idea to the
//! *center* weight `W̄`: multiple workers' Equation (2) pulls may
//! interleave freely. The paper observes this is what finally makes the
//! asynchronous family competitive with Sync EASGD (Figure 8); the
//! convergence proof is in the paper's appendix — the key safety property
//! (each component update is a convex pull, so the center stays in the
//! workers' hull) is exercised by `easgd-tensor`'s `AtomicBuffer` tests.
//!
//! Both trainers ride the engine's worker runtime; all that lives here is
//! the lock-free exchange against the [`AtomicBuffer`].

use crate::config::TrainConfig;
use crate::engine::{run_exchange_loop, run_worker_loop, ElasticRule, SALT_HOGWILD};
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;
use easgd_tensor::AtomicBuffer;

/// Hogwild SGD (§3.2): the shared weight vector is updated lock-free.
/// Workers snapshot `W`, compute a gradient at the snapshot, and apply
/// `W ← W − η·ΔW` with per-component atomic adds.
pub fn hogwild_sgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let shared = AtomicBuffer::from_slice(proto.params().as_slice());
    let run = run_worker_loop(proto, train, cfg, SALT_HOGWILD, |shard, local| {
        for _ in 0..cfg.iterations {
            // Snapshot-first: the gradient is computed *at* the shared
            // weight, not at a private local replica.
            shared.snapshot_into(local.snapshot_mut());
            local.load_snapshot_params();
            let batch = shard.next_batch(cfg.batch);
            local.forward_backward(&batch);
            shared.sgd_update(cfg.eta, local.grad());
        }
    });
    let final_w = shared.snapshot();
    run.finish("Hogwild SGD", proto, test, cfg.iterations, &final_w)
}

/// Hogwild EASGD (ours, §5.1): each worker keeps a private local weight
/// `Wᵢ`; the shared *center* `W̄` is updated lock-free with the
/// Equation (2) pull, and the worker applies Equation (1) against its
/// snapshot. “The master first receives multiple weights from different
/// workers … then processes these weights by the Hogwild (lock-free)
/// updating rule.”
pub fn hogwild_easgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let rule = ElasticRule::from_config(cfg);
    let shared = AtomicBuffer::from_slice(proto.params().as_slice());
    let run = run_exchange_loop(proto, train, cfg, SALT_HOGWILD, |_, step, local| {
        // Inside the communication period τ: a plain local SGD step.
        if !(step + 1).is_multiple_of(cfg.comm_period) {
            local.sgd_step(cfg.eta);
            return;
        }
        // The lock-free center pull (Eq 2), a snapshot, and the local
        // elastic step (Eq 1) against it.
        shared.elastic_center_update(cfg.eta, cfg.rho, local.params());
        shared.snapshot_into(local.snapshot_mut());
        local.elastic_step(&rule);
    });
    let final_w = shared.snapshot();
    run.finish("Hogwild EASGD", proto, test, cfg.iterations, &final_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(31);
        let (train, test) = task.train_test(600, 200, 32);
        (lenet_tiny(33), train, test)
    }

    fn quick_cfg(iters: usize) -> TrainConfig {
        TrainConfig {
            workers: 4,
            batch: 16,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations: iters,
            seed: 41,
            comm_period: 1,
        }
    }

    #[test]
    fn hogwild_sgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = hogwild_sgd(&proto, &train, &test, &quick_cfg(150));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn hogwild_easgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = hogwild_easgd(&proto, &train, &test, &quick_cfg(200));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn hogwild_easgd_center_stays_finite_under_contention() {
        // 8 workers hammering a small model: the lock-free interleavings
        // must not blow the center up.
        let (proto, train, test) = setup();
        let cfg = quick_cfg(60).with_workers(8);
        let r = hogwild_easgd(&proto, &train, &test, &cfg);
        assert!(r.final_loss.is_finite());
        assert!(r.accuracy >= 0.0);
    }

    #[test]
    fn method_names() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(5);
        assert_eq!(
            hogwild_sgd(&proto, &train, &test, &cfg).method,
            "Hogwild SGD"
        );
        assert_eq!(
            hogwild_easgd(&proto, &train, &test, &cfg).method,
            "Hogwild EASGD"
        );
    }
}
