// xtask: allow(wall-clock) — partitioned trainers run real threads against a real clock by design.
//! §6.2 chip partitioning on real threads: the KNL divide-and-conquer
//! co-design executed, not modeled.
//!
//! [`crate::knl_partition`] prices the Figure 12 study with an Amdahl
//! model; this module *runs* it. A [`PartitionedPool`] splits the host's
//! cores into `P` NUMA-like groups — the thread-level analogue of
//! splitting a 68-core KNL chip into groups that each hold a data shard
//! and a weight replica in their own MCDRAM slice. Each group drives a
//! full local optimizer (its GEMMs and elastic updates fan out over the
//! group's *own* threads only, via the per-thread budget in
//! `easgd_tensor::par`), and groups meet exactly where the paper's
//! partitions meet: at the parameter combine.
//!
//! Two combine rules mirror the paper's §6.2 choices:
//!
//! * [`partitioned_sync_easgd`] — the bulk-synchronous rule. One round =
//!   every group steps once, then the contributions fold over a binomial
//!   tree *laid out across the groups in shared memory*, replicating the
//!   executable-tree schedule of the simulated cluster rank for rank:
//!   group `i` plays cluster rank `i+1`, group 0 holds the center (the
//!   Sync-EASGD2 center GPU), and the data server's batch stream is
//!   drawn from the same rank-0 RNG. The fold applies the same
//!   element-wise additions in the same order as
//!   `tree_reduce_sum_among`, so the run is **bit-identical** to
//!   [`crate::sync_easgd_sim_with`] under
//!   [`crate::SyncExchange::ExecutableTree`] — the golden-parity test
//!   pins it.
//! * [`partitioned_hogwild_easgd`] — the lock-free rule (§5.1 applied
//!   across partitions): groups pull the shared center through the
//!   `AtomicBuffer` exactly like Hogwild-EASGD workers, but each
//!   "worker" is now a whole multi-threaded partition.
//!
//! Why bit-identity matters here: it proves the partitioned execution is
//! the *same algorithm* at every `P` and every threads-per-group — the
//! scaling curve in `BENCH_kernels.json` measures the hardware, not a
//! numerically drifting variant.

use crate::config::TrainConfig;
use crate::engine::{
    additive_rng, ElasticRule, LocalStep, TraceRecorder, WallRun, WorkerShard, SALT_HOGWILD,
};
use crate::hogwild::hogwild_easgd_exchange;
use crate::metrics::RunResult;
use easgd_data::{Batch, Dataset};
use easgd_nn::Network;
use easgd_tensor::par::PartitionedPool;
use easgd_tensor::AtomicBuffer;
use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::Instant;

/// Recovers the guard from a poisoned lock: a panicking group must
/// surface through the pool's join, not deadlock its siblings.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// What one group hands back at the end of a partitioned run.
struct GroupOutcome {
    last_loss: f32,
    loss_trace: Vec<f32>,
    trace: Vec<crate::metrics::TracePoint>,
}

/// Bulk-synchronous EASGD across chip partitions (§6.2, Figure 12): one
/// group per Sync-EASGD2 worker, center held by group 0, contributions
/// combined over a shared-memory binomial tree.
///
/// Rank-for-rank replication of the simulated cluster run
/// ([`crate::sync_easgd_sim_with`] with [`crate::SyncVariant::Easgd2`]
/// and [`crate::SyncExchange::ExecutableTree`] on `P+1` ranks):
///
/// * the batch stream is drawn from `additive_rng(seed, 0)` in rank
///   order, exactly as the rank-0 data server does;
/// * each group runs the fused exchange
///   ([`LocalStep::elastic_exchange_against`]) against the center it
///   copied at the round's start;
/// * the combine folds group `i+mask` into group `i` level by level
///   (mask ascending), the exact element-wise addition sequence of the
///   cluster's `tree_reduce_sum_among` rooted at the center rank;
/// * group 0 applies the Equation (2) dilution and records the accuracy
///   trace, like the center GPU.
///
/// The result is therefore bit-identical to the cluster run for every
/// `P` and every threads-per-group — only the wall clock changes.
///
/// # Panics
/// Panics if `pool.groups() != cfg.workers` or the config is invalid.
pub fn partitioned_sync_easgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    pool: &PartitionedPool,
    trace_every: usize,
) -> RunResult {
    cfg.validate();
    let g = cfg.workers;
    assert_eq!(
        pool.groups(),
        g,
        "one partition group per Sync-EASGD worker required"
    );
    let rule = ElasticRule::from_config(cfg);
    let n = proto.num_params();
    let center = Mutex::new(proto.params().as_slice().to_vec());
    // The data server's stream: group 0 plays cluster rank 0's loop,
    // drawing one batch per group in rank order each round.
    let batches: Vec<Mutex<Option<Batch>>> = (0..g).map(|_| Mutex::new(None)).collect();
    let partials: Vec<Mutex<Vec<f32>>> = (0..g).map(|_| Mutex::new(vec![0.0f32; n])).collect();
    let round_gate = Barrier::new(g);
    let wall_start = Instant::now();

    let outs: Vec<GroupOutcome> = pool.run(|me| {
        let mut server_rng = additive_rng(cfg.seed, 0);
        let mut local = LocalStep::new(proto);
        let mut recorder = TraceRecorder::new(trace_every);
        let mut center_t = vec![0.0f32; n];
        let mut contribution = vec![0.0f32; n];
        for round in 0..cfg.iterations {
            // --- data path: group 0 replays the rank-0 server, drawing
            // every group's batch from the *same* RNG in rank order.
            if me == 0 {
                for (slot, batch) in batches.iter().zip(std::iter::repeat_with(|| {
                    train.sample_batch(&mut server_rng, cfg.batch)
                })) {
                    *lock(slot) = Some(batch);
                }
            }
            round_gate.wait();
            let batch = match lock(&batches[me]).take() {
                Some(b) => b,
                None => unreachable!("group 0 fills every batch slot before the gate"),
            };
            // --- compute + steps (2)-(3): forward/backward on the
            // group's threads, broadcast replaced by a center copy, and
            // the fused Equation (1) exchange publishing the pre-update
            // weights into this group's reduce partial.
            local.forward_backward(&batch);
            center_t.copy_from_slice(&lock(&center));
            local.elastic_exchange_against(&rule, &center_t, &mut contribution);
            lock(&partials[me]).copy_from_slice(&contribution);
            // --- step (4): binomial-tree fold across groups, mask
            // ascending with a barrier per level — the shared-memory
            // image of `tree_reduce_sum_among` rooted at group 0. Each
            // parent consumes a child partial that is fully folded for
            // all smaller masks, so the per-element addition chains are
            // exactly the cluster's.
            let mut mask = 1usize;
            while mask < g {
                round_gate.wait();
                if me & mask == 0 && me + mask < g {
                    let mut mine = lock(&partials[me]);
                    let other = lock(&partials[me + mask]);
                    for (d, s) in mine.iter_mut().zip(other.iter()) {
                        *d += *s;
                    }
                }
                mask <<= 1;
            }
            // --- step (5): the root group holds Σ Wᵢ and applies the
            // Equation (2) dilution; everyone else waits at the next
            // round's gate, which orders their center copy after it.
            if me == 0 {
                let mut c = lock(&center);
                rule.center_dilution(&mut c, &lock(&partials[0]), g);
                if recorder.due(round) {
                    let now = wall_start.elapsed().as_secs_f64();
                    recorder.record(round, now, proto, &c, test);
                }
            }
        }
        GroupOutcome {
            last_loss: local.last_loss(),
            loss_trace: local.take_loss_trace(),
            trace: recorder.into_points(),
        }
    });

    // Assembly follows `assemble_sim`'s conventions for the cluster run:
    // the center holder's loss trace is canonical (cluster rank 0 traces
    // nothing), and the final loss averages the *other* groups' last
    // losses (the center rank's own loss is deliberately not counted).
    let mut worker_losses = Vec::with_capacity(g.saturating_sub(1));
    let mut loss_trace = Vec::new();
    let mut trace = Vec::new();
    for (me, out) in outs.into_iter().enumerate() {
        if me == 0 {
            loss_trace = out.loss_trace;
            trace = out.trace;
        } else if out.last_loss.is_finite() {
            worker_losses.push(out.last_loss);
        }
    }
    let run = WallRun {
        wall_seconds: wall_start.elapsed().as_secs_f64(),
        worker_losses,
        loss_trace,
    };
    let method = "Partitioned Sync EASGD";
    let result = run.finish(method, proto, test, cfg.iterations, &lock(&center));
    RunResult { trace, ..result }
}

/// Lock-free EASGD across chip partitions: each group is one
/// Hogwild-EASGD worker (§5.1) scaled up to a multi-threaded partition.
/// Groups own a private data shard and weight replica and pull the
/// shared center through the `AtomicBuffer`'s component-wise lock-free
/// Equation (2) update — no barriers, no combine tree, the §6.2 layout
/// under the paper's most asynchronous rule.
///
/// The exchange is [`crate::hogwild_easgd`]'s own (one function, same
/// `comm_period` gating, same fused kernels); what changes is the
/// execution substrate: each worker's compute fans out over its
/// partition's threads.
///
/// # Panics
/// Panics if `pool.groups() != cfg.workers` or the config is invalid.
pub fn partitioned_hogwild_easgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    pool: &PartitionedPool,
) -> RunResult {
    cfg.validate();
    assert_eq!(
        pool.groups(),
        cfg.workers,
        "one partition group per Hogwild worker required"
    );
    let rule = ElasticRule::from_config(cfg);
    let shared = AtomicBuffer::from_slice(proto.params().as_slice());
    let shards: Vec<Mutex<Option<WorkerShard>>> =
        WorkerShard::from_partition(train, cfg.workers, cfg.seed, SALT_HOGWILD)
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
    let wall_start = Instant::now();

    let outs: Vec<(f32, Vec<f32>)> = pool.run(|me| {
        let mut shard = match lock(&shards[me]).take() {
            Some(s) => s,
            None => unreachable!("each group claims its own shard exactly once"),
        };
        let mut local = LocalStep::new(proto);
        for step in 0..cfg.iterations {
            let batch = shard.next_batch(cfg.batch);
            local.forward_backward(&batch);
            hogwild_easgd_exchange(cfg, &rule, &shared, step, &mut local);
        }
        (local.last_loss(), local.take_loss_trace())
    });

    let run = WallRun::from_workers(wall_start.elapsed().as_secs_f64(), outs);
    let method = "Partitioned Hogwild EASGD";
    run.finish(method, proto, test, cfg.iterations, &shared.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simcost::SimCosts;
    use crate::sync::{sync_easgd_sim_with, SyncExchange, SyncVariant};
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(51);
        let (train, test) = task.train_test(400, 160, 52);
        (lenet_tiny(53), train, test)
    }

    fn cfg(workers: usize, iterations: usize) -> TrainConfig {
        TrainConfig {
            workers,
            batch: 8,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations,
            seed: 57,
            comm_period: 1,
        }
    }

    #[test]
    fn golden_parity_with_executable_tree_cluster_run() {
        // The headline invariant: the partitioned trainer replays the
        // simulated Sync-EASGD2 cluster run bit for bit — same center
        // fingerprint, same accuracy, same per-step losses, same trace
        // points (modulo the clock, which is wall here and priced
        // there) — at every partition width.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        for p in [1usize, 2, 4] {
            let c = cfg(p, 10);
            let golden = sync_easgd_sim_with(
                &proto,
                &train,
                &test,
                &c,
                &costs,
                SyncVariant::Easgd2,
                5,
                SyncExchange::ExecutableTree,
            );
            let pool = PartitionedPool::with_group_threads(p, 1);
            let run = partitioned_sync_easgd(&proto, &train, &test, &c, &pool, 5);
            assert_eq!(run.center_hash, golden.center_hash, "P={p} center");
            assert_eq!(
                run.accuracy.to_bits(),
                golden.accuracy.to_bits(),
                "P={p} accuracy"
            );
            assert_eq!(
                run.final_loss.to_bits(),
                golden.final_loss.to_bits(),
                "P={p} final loss"
            );
            assert_eq!(run.loss_trace.len(), golden.loss_trace.len(), "P={p}");
            for (i, (a, b)) in run.loss_trace.iter().zip(&golden.loss_trace).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "P={p} loss step {i}");
            }
            assert_eq!(run.trace.len(), golden.trace.len(), "P={p} trace points");
            for (a, b) in run.trace.iter().zip(&golden.trace) {
                assert_eq!(a.iteration, b.iteration, "P={p}");
                assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "P={p}");
            }
        }
    }

    #[test]
    fn result_is_invariant_to_threads_per_group() {
        // Scaling the groups' thread counts must not move a single bit:
        // the curve in BENCH_kernels.json measures hardware, not a
        // numerically drifting variant.
        let (proto, train, test) = setup();
        let c = cfg(2, 8);
        let narrow = PartitionedPool::with_group_threads(2, 1);
        let wide = PartitionedPool::with_group_threads(2, 3);
        let a = partitioned_sync_easgd(&proto, &train, &test, &c, &narrow, 4);
        let b = partitioned_sync_easgd(&proto, &train, &test, &c, &wide, 4);
        assert_eq!(a.center_hash, b.center_hash);
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        for (x, y) in a.loss_trace.iter().zip(&b.loss_trace) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn partitioned_sync_is_deterministic() {
        let (proto, train, test) = setup();
        let c = cfg(3, 6);
        let go = || {
            let pool = PartitionedPool::with_group_threads(3, 1);
            partitioned_sync_easgd(&proto, &train, &test, &c, &pool, 0)
        };
        let (a, b) = (go(), go());
        assert_eq!(a.center_hash, b.center_hash);
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
    }

    #[test]
    fn partitioned_hogwild_learns_above_chance() {
        let (proto, train, test) = setup();
        let mut c = cfg(2, 150);
        c.batch = 16;
        let pool = PartitionedPool::with_group_threads(2, 1);
        let r = partitioned_hogwild_easgd(&proto, &train, &test, &c, &pool);
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
        assert!(r.final_loss.is_finite());
        assert_eq!(r.method, "Partitioned Hogwild EASGD");
        assert_eq!(r.loss_trace.len(), 150, "group 0 traces every step");
    }

    #[test]
    #[should_panic(expected = "one partition group per Sync-EASGD worker")]
    fn mismatched_partition_width_is_rejected() {
        let (proto, train, test) = setup();
        let pool = PartitionedPool::with_group_threads(2, 1);
        partitioned_sync_easgd(&proto, &train, &test, &cfg(3, 1), &pool, 0);
    }
}
