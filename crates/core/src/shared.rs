//! The shared-memory, wall-clock algorithm family (Figures 6 and 8).
//!
//! The paper's asynchronous methods differ only in *how workers
//! synchronize with the master's center weight*:
//!
//! | method            | ordering        | exchange                      |
//! |-------------------|-----------------|-------------------------------|
//! | Original EASGD    | round-robin     | elastic (Eq 1 + 2)            |
//! | Async SGD         | FCFS (lock)     | gradient push, weight pull    |
//! | Async MSGD        | FCFS (lock)     | + momentum (Eq 3–4)           |
//! | Async EASGD       | FCFS (lock)     | elastic (Eq 1 + 2)            |
//! | Async MEASGD      | FCFS (lock)     | elastic + momentum (Eq 5–6)   |
//! | Sync EASGD        | barrier (BSP)   | elastic, tree-reduced         |
//!
//! (The lock-free Hogwild variants live in [`crate::hogwild`].) The
//! compute loop, sharding, seeding, and result assembly all come from
//! [`crate::engine`]; each function below is exactly its exchange
//! discipline — the lock, turn, or barrier protocol around the center.

use crate::config::TrainConfig;
use crate::engine::{run_exchange_loop, run_worker_loop, ElasticRule, SALT_PHI};
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;
use easgd_tensor::ops::{momentum_update, sgd_update};
use std::sync::{Barrier, Condvar, Mutex, RwLock};

/// Master state for the gradient-push methods (Async SGD / MSGD).
struct GradCenter {
    w: Vec<f32>,
    v: Vec<f32>,
}

/// Async SGD (§3.1): FCFS parameter server. The worker pushes its
/// sub-gradient; the master applies `W ← W − η·ΔWᵢ` under the lock and
/// returns the fresh weights.
pub fn async_sgd(proto: &Network, train: &Dataset, test: &Dataset, cfg: &TrainConfig) -> RunResult {
    let center = Mutex::new(GradCenter {
        w: proto.params().as_slice().to_vec(),
        v: vec![0.0; proto.num_params()],
    });
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |_, _, local| {
        let mut c = center.lock().unwrap();
        sgd_update(cfg.eta, &mut c.w, local.grad());
        local.set_params(&c.w);
    });
    let center_w = center.into_inner().unwrap().w;
    run.finish("Async SGD", proto, test, cfg.iterations, &center_w)
}

/// Async MSGD: Async SGD with the momentum update of Equations (3)–(4)
/// applied at the master.
pub fn async_msgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let center = Mutex::new(GradCenter {
        w: proto.params().as_slice().to_vec(),
        v: vec![0.0; proto.num_params()],
    });
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |_, _, local| {
        let mut c = center.lock().unwrap();
        let GradCenter { w, v } = &mut *c;
        momentum_update(cfg.eta, cfg.mu, w, v, local.grad());
        local.set_params(w);
    });
    let center_w = center.into_inner().unwrap().w;
    run.finish("Async MSGD", proto, test, cfg.iterations, &center_w)
}

/// Async EASGD (ours, §5.1): FCFS exchange of *weights*. Under the lock
/// the master performs the Equation (2) pull toward the worker; the
/// worker then applies Equation (1) locally against the snapshot it took.
pub fn async_easgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let rule = ElasticRule::from_config(cfg);
    let center = Mutex::new(proto.params().as_slice().to_vec());
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |_, step, local| {
        // Communication period τ: τ−1 local SGD steps between elastic
        // exchanges (τ = 1 ⇒ exchange every step, the paper's setting).
        if (step + 1) % cfg.comm_period != 0 {
            local.sgd_step(cfg.eta);
            return;
        }
        {
            let mut c = center.lock().unwrap();
            rule.center_pull(&mut c, local.params());
            local.snapshot_center(&c);
        }
        local.elastic_step(&rule);
    });
    let center_w = center.into_inner().unwrap();
    run.finish("Async EASGD", proto, test, cfg.iterations, &center_w)
}

/// Async MEASGD (ours, §5.1): Async EASGD with the worker update replaced
/// by the momentum-elastic Equations (5)–(6).
pub fn async_measgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let rule = ElasticRule::from_config(cfg);
    let center = Mutex::new(proto.params().as_slice().to_vec());
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |_, step, local| {
        if (step + 1) % cfg.comm_period != 0 {
            // Local momentum step between exchanges.
            local.momentum_step(cfg.eta, cfg.mu);
            return;
        }
        {
            let mut c = center.lock().unwrap();
            rule.center_pull(&mut c, local.params());
            local.snapshot_center(&c);
        }
        local.elastic_momentum_step(&rule);
    });
    let center_w = center.into_inner().unwrap();
    run.finish("Async MEASGD", proto, test, cfg.iterations, &center_w)
}

/// Original EASGD (§3.3, Algorithm 1): identical elastic exchange to
/// [`async_easgd`], but the master serves workers in strict *round-robin
/// rank order* — worker `i+1`'s exchange cannot begin before worker `i`'s
/// has finished. Gradient computation is pipelined outside the turn
/// (matching the overlapped Original EASGD row of Table 3); the ordering
/// constraint is what costs performance.
pub fn original_easgd_turns(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let rule = ElasticRule::from_config(cfg);
    let center = Mutex::new(proto.params().as_slice().to_vec());
    let turn = Mutex::new(0usize);
    let turn_cv = Condvar::new();
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |w, _, local| {
        // Wait for this worker's slot in the global order.
        {
            let mut t = turn.lock().unwrap();
            while *t % cfg.workers != w {
                t = turn_cv.wait(t).unwrap();
            }
            {
                let mut c = center.lock().unwrap();
                rule.center_pull(&mut c, local.params());
                local.snapshot_center(&c);
            }
            *t += 1;
            turn_cv.notify_all();
        }
        // Equation (1) happens outside the turn: only the *exchange* is
        // round-robin ordered, the local update overlaps freely.
        local.elastic_step(&rule);
    });
    let center_w = center.into_inner().unwrap();
    run.finish("Original EASGD", proto, test, cfg.iterations, &center_w)
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
                    easgd_tensor::ops::add_assign(&mut sum, &slot.lock().unwrap());
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

    #[test]
    fn async_sgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = async_sgd(&proto, &train, &test, &quick_cfg(150));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
        assert!(r.wall_seconds > 0.0);
    }

    #[test]
    fn async_msgd_learns_above_chance() {
        let (proto, train, test) = setup();
        // Momentum amplifies the effective rate by ~1/(1−µ); use the
        // correspondingly smaller η (standard MSGD practice).
        let mut cfg = quick_cfg(150);
        cfg.eta = 0.01;
        let r = async_msgd(&proto, &train, &test, &cfg);
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn async_easgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = async_easgd(&proto, &train, &test, &quick_cfg(200));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn async_measgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = async_measgd(&proto, &train, &test, &quick_cfg(150));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn original_easgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = original_easgd_turns(&proto, &train, &test, &quick_cfg(200));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn sync_easgd_learns_above_chance() {
        let (proto, train, test) = setup();
        let r = sync_easgd_shared(&proto, &train, &test, &quick_cfg(200));
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
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
    fn methods_report_their_names() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(5);
        assert_eq!(async_sgd(&proto, &train, &test, &cfg).method, "Async SGD");
        assert_eq!(
            original_easgd_turns(&proto, &train, &test, &cfg).method,
            "Original EASGD"
        );
        assert_eq!(
            sync_easgd_shared(&proto, &train, &test, &cfg).method,
            "Sync EASGD"
        );
    }

    #[test]
    fn comm_period_trades_exchanges_for_local_steps() {
        // τ = 4: the elastic methods still learn (local SGD between
        // exchanges is a valid EASGD configuration), and the center is
        // still pulled toward the workers.
        let (proto, train, test) = setup();
        let cfg = quick_cfg(200).with_comm_period(4);
        let r = async_easgd(&proto, &train, &test, &cfg);
        assert!(r.accuracy > 0.4, "tau=4 async easgd acc = {}", r.accuracy);
        let h = crate::hogwild::hogwild_easgd(&proto, &train, &test, &cfg);
        assert!(h.accuracy > 0.4, "tau=4 hogwild easgd acc = {}", h.accuracy);
    }

    #[test]
    fn single_worker_degenerates_to_serial_sgd() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(100).with_workers(1);
        let r = async_sgd(&proto, &train, &test, &cfg);
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn runs_populate_loss_trace_and_center_hash() {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(10).with_workers(1);
        let r = async_easgd(&proto, &train, &test, &cfg);
        assert_eq!(r.loss_trace.len(), 10);
        assert_ne!(r.center_hash, 0);
    }
}
