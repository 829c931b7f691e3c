//! The shared-memory, wall-clock algorithm family (Figures 6 and 8).
//!
//! The paper's asynchronous methods differ only in *how workers
//! synchronize with the master's center weight*:
//!
//! | method            | ordering        | exchange                      |
//! |-------------------|-----------------|-------------------------------|
//! | Original EASGD    | round-robin     | `AsyncVariant::Easgd`         |
//! | Async SGD         | FCFS (lock)     | `AsyncVariant::Sgd`           |
//! | Async MSGD        | FCFS (lock)     | `AsyncVariant::Msgd`          |
//! | Async EASGD       | FCFS (lock)     | `AsyncVariant::Easgd`         |
//! | Async MEASGD      | FCFS (lock)     | `AsyncVariant::Measgd`        |
//! | Sync EASGD        | barrier (BSP)   | elastic, tree-reduced         |
//!
//! The first five are one locked server; [`crate::run_method`] names
//! each by its [`AsyncVariant`] and lock order. (The lock-free Hogwild
//! variants live in [`crate::hogwild`].) Everything but the lock, the
//! turn and the barrier comes from [`crate::engine`].

use crate::config::TrainConfig;
use crate::engine::{run_exchange_loop, run_worker_loop, AsyncVariant, ElasticRule, SALT_PHI};
use crate::lineage::MethodId;
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;
use std::sync::{Barrier, Condvar, Mutex, RwLock};

/// Why a lock of the locked server can be poisoned.
const POISONED: &str = "a worker panicked inside the exchange";

/// The order in which workers reach the centre's lock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum LockOrder {
    /// First come, first served: the Async family (§3.1, §5.1).
    Fcfs,
    /// Original EASGD's rank order (§3.3, Algorithm 1): worker `i+1`'s
    /// exchange waits for worker `i`'s. Gradients and the worker's own
    /// update overlap (Table 3's overlapped row).
    RoundRobin,
}

/// The locked parameter server: `variant`'s exchange under one mutex
/// around the centre (and MSGD's master velocity), reached in `order`,
/// with the result named after `method`.
pub(crate) fn locked_server(
    method: MethodId,
    variant: AsyncVariant,
    order: LockOrder,
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let rule = ElasticRule::from_config(cfg);
    let master = Mutex::new((proto.params().as_slice().to_vec(), Vec::new()));
    let (turn, turn_cv) = (Mutex::new(0usize), Condvar::new());
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |w, step, local| {
        if !variant.exchanges_at(step, cfg.comm_period) {
            variant.local_step(&rule, local);
            return;
        }
        // A round-robin worker holds its turn for the whole exchange.
        let held = (order == LockOrder::RoundRobin).then(|| {
            let t = turn.lock().expect(POISONED);
            turn_cv
                .wait_while(t, |t| *t % cfg.workers != w)
                .expect(POISONED)
        });
        {
            let mut m = master.lock().expect(POISONED);
            let (center, velocity) = &mut *m;
            variant.apply(&rule, center, velocity, variant.push(local));
            variant.receive(local, center);
        }
        if let Some(mut t) = held {
            *t += 1;
            turn_cv.notify_all();
        }
        variant.worker_update(&rule, local);
    });
    let (center, _) = master.into_inner().expect(POISONED);
    run.finish(method.name(), proto, test, cfg.iterations, &center)
}

/// Async MEASGD (ours, §5.1) on the locked server, i.e.
/// `run_method(MethodId::AsyncMeasgd, ..)`. The hosted benchmark
/// workloads (`benchmark/`) call it by this name and signature, so it
/// stays.
pub fn async_measgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    crate::run_method(MethodId::AsyncMeasgd, proto, train, test, cfg)
}

/// Sync EASGD (ours, §5.1), shared-memory realization: bulk-synchronous
/// rounds. Each round every worker computes a gradient, the local weights
/// are tree-reduced (here: a shared accumulator behind a barrier), the
/// master applies Equation (2) once with the full sum, workers apply
/// Equation (1). Deterministic given the seed.
pub fn sync_easgd_shared(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    cfg.refuse_comm_period("Sync EASGD (shared memory)");
    let rule = ElasticRule::from_config(cfg);
    let n = proto.num_params();
    let center = RwLock::new(proto.params().as_slice().to_vec());
    // One weight slot per worker; the master folds them in rank order so
    // the reduction — like the paper's fixed-shape tree — is
    // deterministic.
    let slots: Vec<Mutex<Vec<f32>>> = (0..cfg.workers)
        .map(|_| Mutex::new(vec![0.0f32; n]))
        .collect();
    // The master's reduction scratch, allocated once for the whole run.
    let sum = Mutex::new(vec![0.0f32; n]);
    let barrier = Barrier::new(cfg.workers);
    let run = run_worker_loop(proto, train, cfg, SALT_PHI, |shard, local| {
        let w = shard.worker();
        for _ in 0..cfg.iterations {
            // Steps (1)+(2): gradient + read of W̄_t (overlappable).
            local.snapshot_center(&center.read().unwrap());
            let batch = shard.next_batch(cfg.batch);
            local.forward_backward(&batch);
            // Steps (3)+(4) fused: publish the pre-update Wᵢ into this
            // worker's slot and apply Equation (1) against the pre-round
            // W̄_t in the same sweep (bit-identical to copy-then-update;
            // the master only ever reads the slots, never our params).
            local.elastic_exchange_step(&rule, &mut slots[w].lock().unwrap());
            barrier.wait();
            // Step (5): master folds Σ Wᵢ into W̄ once, in order.
            if w == 0 {
                let mut c = center.write().unwrap();
                let mut sum = sum.lock().unwrap();
                sum.fill(0.0);
                for slot in slots.iter() {
                    easgd_tensor::ops::fold_sum(&mut sum, &[slot.lock().unwrap().as_slice()]);
                }
                rule.center_dilution(&mut c, &sum, cfg.workers);
            }
            barrier.wait();
        }
    });
    let center_w = center.into_inner().unwrap();
    run.finish("Sync EASGD", proto, test, cfg.iterations, &center_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_method;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(11);
        let (train, test) = task.train_test(600, 200, 12);
        (lenet_tiny(13), train, test)
    }

    fn quick_cfg(iters: usize) -> TrainConfig {
        TrainConfig {
            workers: 4,
            batch: 16,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations: iters,
            seed: 21,
            comm_period: 1,
        }
    }

    fn learns(method: MethodId, cfg: &TrainConfig) -> RunResult {
        let (proto, train, test) = setup();
        let r = run_method(method, &proto, &train, &test, cfg);
        assert!(r.accuracy > 0.4, "{method} acc = {}", r.accuracy);
        assert_eq!(r.method, method.name());
        r
    }

    #[test]
    fn async_sgd_learns_above_chance() {
        let r = learns(MethodId::AsyncSgd, &quick_cfg(150));
        assert!(r.wall_seconds > 0.0);
    }

    #[test]
    fn async_msgd_learns_above_chance() {
        // Momentum amplifies the effective rate by ~1/(1−µ); use the
        // correspondingly smaller η (standard MSGD practice).
        let mut cfg = quick_cfg(150);
        cfg.eta = 0.01;
        learns(MethodId::AsyncMsgd, &cfg);
    }

    #[test]
    fn async_easgd_learns_above_chance() {
        learns(MethodId::AsyncEasgd, &quick_cfg(200));
    }

    #[test]
    fn async_measgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = async_measgd(&proto, &train, &test, &quick_cfg(150));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
        assert_eq!(r.method, "Async MEASGD");
    }

    #[test]
    fn original_easgd_learns_above_chance() {
        learns(MethodId::OriginalEasgd, &quick_cfg(200));
    }

    #[test]
    fn sync_easgd_learns_above_chance() {
        learns(MethodId::SyncEasgd, &quick_cfg(200));
    }

    #[test]
    fn sync_easgd_is_deterministic() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(30);
        let a = sync_easgd_shared(&proto, &train, &test, &cfg);
        let b = sync_easgd_shared(&proto, &train, &test, &cfg);
        // §8: "Sync EASGD … deterministic and reproducible."
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.final_loss, b.final_loss);
        assert_eq!(a.center_hash, b.center_hash);
    }

    #[test]
    fn comm_period_trades_exchanges_for_local_steps() {
        // τ = 4: the elastic methods still learn (local SGD between
        // exchanges is a valid EASGD configuration), and the center is
        // still pulled toward the workers — round-robin turns included.
        let cfg = quick_cfg(200).with_comm_period(4);
        for m in [
            MethodId::AsyncEasgd,
            MethodId::OriginalEasgd,
            MethodId::HogwildEasgd,
        ] {
            learns(m, &cfg);
        }
    }

    #[test]
    #[should_panic(expected = "Sync EASGD (shared memory) does not honour comm_period: τ = 4")]
    fn sync_easgd_refuses_a_comm_period() {
        let (proto, train, test) = setup();
        sync_easgd_shared(&proto, &train, &test, &quick_cfg(5).with_comm_period(4));
    }

    #[test]
    fn single_worker_degenerates_to_serial_sgd() {
        learns(MethodId::AsyncSgd, &quick_cfg(100).with_workers(1));
    }

    #[test]
    fn runs_populate_loss_trace_and_center_hash() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(10).with_workers(1);
        let r = run_method(MethodId::AsyncEasgd, &proto, &train, &test, &cfg);
        assert_eq!(r.loss_trace.len(), 10);
        assert_ne!(r.center_hash, 0);
    }
}
