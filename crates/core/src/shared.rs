//! The shared-memory, wall-clock algorithm family (Figures 6 and 8).
//!
//! The paper's asynchronous methods differ only in *the order in which
//! workers reach the master's centre weight*:
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
//! The first five are one [`locked_server`], given a variant and a
//! [`LockOrder`]: FCFS, or a given order — round-robin is the cyclic
//! one. The server records the order it ran, so a threaded run replays
//! bit-exactly, and the simulated FCFS server ([`crate::async_sim`])
//! hands it the order its virtual cluster decided. (The lock-free
//! Hogwild variants live in [`crate::hogwild`].) Everything but the
//! lock, the turn and the barrier comes from [`crate::engine`].

use crate::config::TrainConfig;
use crate::engine::{run_exchange_loop, run_worker_loop, AsyncVariant, ElasticRule, SALT_PHI};
use crate::lineage::MethodId;
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;
use std::sync::{Barrier, Condvar, Mutex, RwLock};

/// Why a lock of the locked server can be poisoned.
const POISONED: &str = "a worker panicked inside the exchange";

/// The order in which workers reach the centre's lock: a run of the
/// locked server is a pure function of it, since every worker's batches
/// and kernels are seeded.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LockOrder<'a> {
    /// First come, first served: whoever the OS schedules first takes
    /// the lock — the Async family (§3.1, §5.1).
    Fcfs,
    /// Exchange `t` is worker `order[t]`'s: a worker waits for its turn
    /// and holds it through its exchange, while gradients and its own
    /// update overlap. Original EASGD (§3.3, Algorithm 1) is the cyclic
    /// order; a recorded or simulated FCFS order replays bit-exactly.
    Given(&'a [u16]),
}

/// Worker `w`'s entry in a lock order.
pub(crate) fn order_id(w: usize) -> u16 {
    u16::try_from(w).expect("a lock order names at most 65 536 workers")
}

/// Panics, naming the worker, unless `given` holds exactly `exchanges`
/// turns for each of `workers` workers and no other index: a bad order
/// is refused before any thread starts, never left to hang a turn.
fn check_order(given: &[u16], workers: usize, exchanges: usize) {
    let mut turns = vec![0usize; workers];
    for &w in given {
        let Some(n) = turns.get_mut(usize::from(w)) else {
            panic!("lock order names worker {w}, but the run has {workers} workers");
        };
        *n += 1;
    }
    for (w, &n) in turns.iter().enumerate() {
        assert_eq!(
            n, exchanges,
            "lock order gives worker {w} {n} turns, but it makes {exchanges} exchanges"
        );
    }
}

/// The locked parameter server: `variant`'s exchange under one mutex
/// around the centre (and MSGD's master velocity), reached in `order`,
/// with the result named `method`. Returns the result and the order the
/// run took, one worker index per exchange, recorded under the lock.
pub fn locked_server(
    method: &str,
    variant: AsyncVariant,
    order: LockOrder<'_>,
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> (RunResult, Vec<u16>) {
    let rule = ElasticRule::from_config(cfg);
    let exchanges = (0..cfg.iterations)
        .filter(|&step| variant.exchanges_at(step, cfg.comm_period))
        .count();
    if let LockOrder::Given(given) = order {
        check_order(given, cfg.workers, exchanges);
    }
    let log = Vec::with_capacity(cfg.workers * exchanges);
    let master = Mutex::new((proto.params().as_slice().to_vec(), Vec::new(), log));
    let (turn, turn_cv) = (Mutex::new(0usize), Condvar::new());
    let run = run_exchange_loop(proto, train, cfg, SALT_PHI, |w, step, local| {
        if !variant.exchanges_at(step, cfg.comm_period) {
            variant.local_step(&rule, local);
            return;
        }
        let me = order_id(w);
        let held = match order {
            LockOrder::Fcfs => None,
            LockOrder::Given(given) => {
                let t = turn.lock().expect(POISONED);
                Some(turn_cv.wait_while(t, |t| given[*t] != me).expect(POISONED))
            }
        };
        {
            let mut m = master.lock().expect(POISONED);
            let (center, velocity, log) = &mut *m;
            log.push(me);
            variant.apply(&rule, center, velocity, variant.push(local));
            variant.receive(local, center);
        }
        if let Some(mut t) = held {
            *t += 1;
            turn_cv.notify_all();
        }
        variant.worker_update(&rule, local);
    });
    let (center, _, log) = master.into_inner().expect(POISONED);
    let result = run.finish(method, proto, test, cfg.iterations, &center);
    (result, log)
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

    /// The locked server's result bits: centre and worker 0's losses.
    fn bits(r: &RunResult) -> (u64, Vec<u32>) {
        let losses = r.loss_trace.iter().map(|l| l.to_bits()).collect();
        (r.center_hash, losses)
    }

    #[test]
    fn a_live_fcfs_run_equals_its_own_replay() {
        let (proto, train, test) = setup();
        let mut seeds = easgd_tensor::Rng::new(0x5eed);
        let cases = [
            (AsyncVariant::Sgd, 1),
            (AsyncVariant::Msgd, 1),
            (AsyncVariant::Easgd, 1),
            (AsyncVariant::Measgd, 1),
            (AsyncVariant::Easgd, 4),
            (AsyncVariant::Measgd, 4),
        ];
        for workers in [2, 3, 4] {
            for (v, tau) in cases {
                let cfg = quick_cfg(16)
                    .with_workers(workers)
                    .with_eta(0.02)
                    .with_seed(seeds.next_u64())
                    .with_comm_period(tau);
                let server = |order| locked_server("m", v, order, &proto, &train, &test, &cfg);
                let (live, log) = server(LockOrder::Fcfs);
                let (replay, ran) = server(LockOrder::Given(&log));
                assert_eq!(ran, log, "{v:?} P = {workers} τ = {tau}");
                assert_eq!(bits(&live), bits(&replay), "{v:?} P = {workers} τ = {tau}");
            }
        }
    }

    #[test]
    fn every_order_of_three_workers_replays() {
        // All 6! / (2!·2!·2!) = 90 orders of three workers' two exchanges.
        let (proto, train, test) = setup();
        let cfg = quick_cfg(2).with_workers(3).with_eta(0.02);
        let orders: Vec<Vec<u16>> = (0..729u32)
            .map(|code| (0..6).map(|d| (code / 3u32.pow(d) % 3) as u16).collect())
            .filter(|o: &Vec<u16>| (0..3).all(|w| o.iter().filter(|&&x| x == w).count() == 2))
            .collect();
        assert_eq!(orders.len(), 90);
        for (i, order) in orders.iter().enumerate() {
            let v = AsyncVariant::ALL[i % 4];
            let run =
                || locked_server("m", v, LockOrder::Given(order), &proto, &train, &test, &cfg);
            let ((a, ran), (b, _)) = (run(), run());
            assert_eq!(&ran, order, "{v:?}");
            assert_eq!(bits(&a), bits(&b), "{v:?} {order:?}");
        }
    }

    /// Each exchange's age: the other workers' exchanges since this
    /// worker's previous one (a worker's first exchange has none).
    fn ages(order: &[u16]) -> Vec<usize> {
        let mut last = std::collections::HashMap::new();
        let age = |(t, w)| last.insert(w, t).map(|prev| t - prev - 1);
        order.iter().enumerate().filter_map(age).collect()
    }

    #[test]
    fn ages_are_zero_alone_and_p_minus_one_in_turn() {
        let (proto, train, test) = setup();
        let (_, alone) = locked_server(
            "m",
            AsyncVariant::Easgd,
            LockOrder::Fcfs,
            &proto,
            &train,
            &test,
            &quick_cfg(8).with_workers(1),
        );
        assert_eq!(ages(&alone), vec![0; 7]);
        let turns: Vec<u16> = (0..4 * 8).map(|t| t % 4).collect();
        let cfg = quick_cfg(8);
        let (_, ran) = locked_server(
            "m",
            AsyncVariant::Easgd,
            LockOrder::Given(&turns),
            &proto,
            &train,
            &test,
            &cfg,
        );
        assert_eq!(ages(&ran), vec![3; 4 * 7]);
    }

    fn refused(order: &[u16]) {
        let (proto, train, test) = setup();
        let cfg = quick_cfg(2).with_workers(2);
        let given = LockOrder::Given(order);
        locked_server("m", AsyncVariant::Sgd, given, &proto, &train, &test, &cfg);
    }

    #[test]
    #[should_panic(expected = "lock order gives worker 1 1 turns, but it makes 2 exchanges")]
    fn an_order_missing_a_turn_names_the_worker() {
        refused(&[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "lock order gives worker 1 3 turns, but it makes 2 exchanges")]
    fn an_order_with_an_extra_turn_names_the_worker() {
        refused(&[0, 1, 0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "lock order names worker 2, but the run has 2 workers")]
    fn an_order_naming_no_worker_is_refused() {
        refused(&[0, 1, 2, 0, 1]);
    }
}
