// xtask: allow(wall-clock) — the wall-clock worker runtime times real threads by design.
//! The wall-clock worker runtime: one scoped-thread pool under every
//! shared-memory trainer.
//!
//! [`run_worker_loop`] owns the mechanics every wall-clock method used
//! to duplicate — validate the config, shard the data, spawn one thread
//! per worker, time the run, join in rank order — and hands each worker
//! its [`WorkerShard`] and [`LocalStep`]. [`run_exchange_loop`] adds the
//! canonical per-step skeleton (sample → forward/backward → exchange)
//! under the locked server and Hogwild EASGD; trainers with a different
//! round structure (Hogwild SGD's snapshot-first read, Sync EASGD's
//! barriers) drive the loop themselves via [`run_worker_loop`].
//!
//! Exchange steps should prefer the fused kernels on [`LocalStep`]
//! (`elastic_exchange_step` / `elastic_exchange_against`): they publish
//! the pre-update weights and apply the Equation (1) pull in one sweep,
//! bit-identical to the copy-then-update pair but with one pass over the
//! parameter arena and no per-step allocation.

use crate::config::TrainConfig;
use crate::engine::local::LocalStep;
use crate::engine::shard::WorkerShard;
use crate::engine::trace::RunAssembler;
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;
use std::time::Instant;

/// What a wall-clock run produced, before result assembly.
pub struct WallRun {
    /// Real elapsed seconds across the whole pool.
    pub wall_seconds: f64,
    /// Each worker's last-step loss, in worker order.
    pub worker_losses: Vec<f32>,
    /// Worker 0's per-step loss trace (the canonical worker).
    pub loss_trace: Vec<f32>,
}

impl WallRun {
    /// From each worker's `(last loss, loss trace)` in worker order.
    pub(crate) fn from_workers(wall_seconds: f64, outs: Vec<(f32, Vec<f32>)>) -> Self {
        let (worker_losses, traces): (Vec<f32>, Vec<Vec<f32>>) = outs.into_iter().unzip();
        Self {
            wall_seconds,
            worker_losses,
            loss_trace: traces.into_iter().next().unwrap_or_default(),
        }
    }

    /// Assembles the run's [`RunResult`] under the name `method`:
    /// evaluates and fingerprints `center`, final loss = mean of the
    /// workers' last losses.
    pub fn finish(
        self,
        method: &str,
        proto: &Network,
        test: &Dataset,
        iterations: usize,
        center: &[f32],
    ) -> RunResult {
        RunAssembler::new(method, proto, test, iterations)
            .wall(self.wall_seconds)
            .worker_losses(self.worker_losses)
            .loss_trace(self.loss_trace)
            .finish(center)
    }
}

/// Runs `body` once per worker on its own thread, with a private
/// [`WorkerShard`] (seeded under `salt`) and [`LocalStep`]. Workers are
/// joined in rank order; a worker panic is propagated.
pub fn run_worker_loop<F>(
    proto: &Network,
    train: &Dataset,
    cfg: &TrainConfig,
    salt: u64,
    body: F,
) -> WallRun
where
    F: Fn(&mut WorkerShard, &mut LocalStep) + Sync,
{
    cfg.validate();
    let shards = WorkerShard::from_partition(train, cfg.workers, cfg.seed, salt);
    let start = Instant::now();
    // xtask: allow(thread-primitive) — the wall-clock engine measures
    // real parallel speedup; its workers are genuine OS threads, not
    // simulated ranks, so the cluster backend seam does not apply.
    let outs: Vec<(f32, Vec<f32>)> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                let body = &body;
                s.spawn(move || {
                    let mut local = LocalStep::new(proto);
                    body(&mut shard, &mut local);
                    (local.last_loss(), local.take_loss_trace())
                })
            })
            .collect();
        handles
            .into_iter()
            // xtask: allow(thread-primitive) — joining the real wall-clock
            // worker threads spawned above.
            .map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    WallRun::from_workers(start.elapsed().as_secs_f64(), outs)
}

/// The canonical per-step loop: for each of `cfg.iterations` steps,
/// sample a batch, run forward/backward, then call
/// `exchange(worker, step, local)` to perform the method's
/// synchronization. This is the skeleton of the locked server (Async
/// SGD/MSGD/EASGD/MEASGD and round-robin Original EASGD, one closure)
/// and of Hogwild EASGD.
pub fn run_exchange_loop<F>(
    proto: &Network,
    train: &Dataset,
    cfg: &TrainConfig,
    salt: u64,
    exchange: F,
) -> WallRun
where
    F: Fn(usize, usize, &mut LocalStep) + Sync,
{
    run_worker_loop(proto, train, cfg, salt, |shard, local| {
        for step in 0..cfg.iterations {
            let batch = shard.next_batch(cfg.batch);
            local.forward_backward(&batch);
            exchange(shard.worker(), step, local);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::shard::SALT_PHI;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;
    use std::sync::Mutex;

    fn setup() -> (Network, Dataset) {
        let task = SyntheticSpec::mnist_small().task(13);
        let (train, _) = task.train_test(128, 16, 14);
        (lenet_tiny(15), train)
    }

    fn cfg(workers: usize, iterations: usize) -> TrainConfig {
        TrainConfig {
            workers,
            batch: 8,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations,
            seed: 23,
            comm_period: 1,
        }
    }

    #[test]
    fn losses_come_back_in_worker_order() {
        let (proto, train) = setup();
        let seen = Mutex::new(Vec::new());
        let run = run_worker_loop(&proto, &train, &cfg(3, 1), SALT_PHI, |shard, local| {
            let batch = shard.next_batch(8);
            local.forward_backward(&batch);
            seen.lock().unwrap().push(shard.worker());
        });
        assert_eq!(run.worker_losses.len(), 3);
        assert!(run.worker_losses.iter().all(|l| l.is_finite()));
        let mut order = seen.into_inner().unwrap();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn exchange_loop_runs_iterations_times_per_worker() {
        let (proto, train) = setup();
        let count = Mutex::new(0usize);
        let run = run_exchange_loop(&proto, &train, &cfg(2, 5), SALT_PHI, |_, _, local| {
            *count.lock().unwrap() += 1;
            local.sgd_step(0.05);
        });
        assert_eq!(*count.lock().unwrap(), 10);
        assert_eq!(run.loss_trace.len(), 5, "worker 0 traces every step");
    }

    #[test]
    fn single_worker_run_is_deterministic() {
        let (proto, train) = setup();
        let go = || {
            run_exchange_loop(&proto, &train, &cfg(1, 6), SALT_PHI, |_, _, local| {
                local.sgd_step(0.05)
            })
        };
        let (a, b) = (go(), go());
        assert_eq!(a.worker_losses[0].to_bits(), b.worker_losses[0].to_bits());
        assert_eq!(a.loss_trace.len(), b.loss_trace.len());
        for (x, y) in a.loss_trace.iter().zip(&b.loss_trace) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let (proto, train) = setup();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_worker_loop(&proto, &train, &cfg(2, 1), SALT_PHI, |shard, _| {
                if shard.worker() == 1 {
                    panic!("worker 1 exploded");
                }
            })
        }));
        assert!(boom.is_err());
    }
}
