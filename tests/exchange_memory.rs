//! Memory of the Sync EASGD exchange on the executable tree is flat in
//! rounds.
//!
//! `sync_easgd_sim_with(Easgd2, …)` does not expose its cluster's pool,
//! so the rank program is re-hosted here from the public pieces the
//! trainer is made of (as `benchmark/` does), required to reproduce the
//! library call's `center_hash`, and observed through the centre rank's
//! `Comm::pool_stats` at the end of every round.
//!
//! The model's arena (24 810 floats) is larger than a `Comm`'s private
//! byte bound, so every parameter-sized buffer lives in the cluster-wide
//! pool. On the event backend the schedule repeats exactly, so the pool
//! is warm after the first rounds and never allocates again. On threads
//! the pool grows to what the *worst* interleaving of takes and recycles
//! needs, whenever that interleaving first happens — the claim there is
//! the bound on the total, the same for 10 rounds and for 40.
//!
//! A worker's own parameter-sized arrays are counted beside it
//! (`LocalStep::held_floats`): two arenas under Sync EASGD, three after
//! an Async EASGD exchange, four after a MEASGD one.

use knl_easgd::algorithms as alg;
use knl_easgd::cluster::{tags, BatchMsg, PoolStats};
use knl_easgd::prelude::*;

use alg::engine::{additive_rng, assemble_sim, RankOutcome};
use alg::sync::tree_exchange_round;
use alg::{sync_easgd_sim_with, ElasticRule, LocalStep, SyncExchange};
use std::sync::atomic::{AtomicBool, Ordering};

const WORKERS: usize = 4;

fn task() -> (Network, Dataset, Dataset) {
    let t = SyntheticSpec::mnist_small().task(7);
    let (train, test) = t.train_test(240, 80, 11);
    (mlp(144, &[160], 10, 23), train, test)
}

fn cfg(iterations: usize) -> TrainConfig {
    TrainConfig {
        workers: WORKERS,
        batch: 8,
        eta: 0.02,
        rho: 0.9 / (0.02 * WORKERS as f32),
        mu: 0.9,
        iterations,
        seed: 0x90_1d_e2,
        comm_period: 1,
    }
}

/// The Easgd2 rank program on the executable tree; returns the run and
/// the cluster-wide pool counters at the end of each of the centre's
/// rounds.
fn hosted(backend: ClusterBackend, rounds: usize) -> (alg::RunResult, Vec<PoolStats>) {
    let (proto, train, test) = task();
    let (cfg, costs) = (cfg(rounds), SimCosts::mnist_lenet_4gpu());
    let g = cfg.workers;
    let cluster = ClusterConfig::new(g + 1)
        .with_link(costs.gpu_gpu.clone())
        .with_backend(backend);
    let participants: Vec<usize> = (1..=g).collect();
    let rule = ElasticRule::from_config(&cfg);
    let center_rank = 1;
    // The data rank never blocks, so the event backend runs it to the
    // end before any worker starts: one fresh batch buffer per worker per
    // round. The workers wait for it on threads too, so both backends
    // allocate the same batch buffers and differ only in how the workers
    // interleave.
    let producer_done = AtomicBool::new(false);
    let outs = VirtualCluster::run(&cluster, |comm| {
        let me = comm.rank();
        // ordering: SeqCst flag, the only data published through it.
        while me != 0 && !producer_done.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let mut rng = additive_rng(cfg.seed, me as u64);
        let mut center = proto.params().as_slice().to_vec();
        let mut local = (me != 0).then(|| LocalStep::new(&proto));
        let mut center_t = Vec::new();
        let mut weight_sum = vec![0.0f32; center.len()];
        let mut payload = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let mut pool_rounds = Vec::new();
        for _round in 0..cfg.iterations {
            match local.as_mut() {
                None => {
                    for j in 1..=g {
                        let batch = train.sample_batch(&mut rng, cfg.batch);
                        let pixels = batch.images.as_slice();
                        let mut buf = comm.take_buffer(3 + batch.labels.len() + pixels.len());
                        BatchMsg::encode_into(pixels, &batch.labels, &mut buf);
                        let cost = if j == 1 { costs.data_time() } else { 0.0 };
                        let cat = TimeCategory::CpuGpuData;
                        comm.send_from_costed(j, tags::SYNC_DATA, buf, cost, cat);
                    }
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                    continue;
                }
                Some(local) => {
                    comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut payload);
                    let pixels = BatchMsg::decode_into(&payload, cfg.batch, &mut labels)
                        .expect("batch codec");
                    local.forward_backward_flat(cfg.batch, pixels, &labels);
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                }
            }
            let local = &mut local;
            tree_exchange_round(
                comm,
                &participants,
                center_rank,
                &center,
                &mut center_t,
                &mut weight_sum,
                TimeCategory::GpuGpuParam,
                |center_t, weight_sum| match local.as_mut() {
                    Some(local) => local.elastic_exchange_against(&rule, center_t, weight_sum),
                    None => unreachable!("every participant computes"),
                },
            );
            if me == center_rank {
                rule.center_dilution(&mut center, &weight_sum, g);
                comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
            }
            comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
            if me == center_rank {
                pool_rounds.push(comm.pool_stats());
            }
        }
        if me == 0 {
            // ordering: SeqCst flag, pairs with the workers' load above.
            producer_done.store(true, Ordering::SeqCst);
        }
        let (last_loss, loss_trace) = match local {
            Some(mut l) => {
                // A Sync EASGD worker never sized a velocity or a snapshot.
                assert_eq!(l.held_floats(), 2 * l.num_params(), "rank {me}");
                (l.last_loss(), l.take_loss_trace())
            }
            None => (f32::NAN, Vec::new()),
        };
        let outcome = if me == center_rank {
            RankOutcome::Center {
                center,
                report: comm.report(),
                trace: Vec::new(),
                loss_trace,
            }
        } else {
            RankOutcome::Worker {
                report: Some(comm.report()),
                last_loss,
                loss_trace,
            }
        };
        (outcome, pool_rounds)
    });
    let (outcomes, mut pools): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let result = assemble_sim("Sync EASGD2", &proto, &test, cfg.iterations, 0.0, outcomes);
    (result, pools.swap_remove(center_rank))
}

#[test]
fn executable_tree_memory_is_flat_in_rounds() {
    for backend in [ClusterBackend::Threads, ClusterBackend::Events] {
        for rounds in [10usize, 40] {
            let (result, pool) = hosted(backend, rounds);
            assert_eq!(pool.len(), rounds);
            let what = format!("{backend:?} R={rounds}");

            // The hosted program IS the trainer's round.
            let (proto, train, test) = task();
            let lib = backend.with_default(|| {
                sync_easgd_sim_with(
                    &proto,
                    &train,
                    &test,
                    &cfg(rounds),
                    &SimCosts::mnist_lenet_4gpu(),
                    SyncVariant::Easgd2,
                    0,
                    SyncExchange::ExecutableTree,
                )
            });
            assert_eq!(result.center_hash, lib.center_hash, "{what}");
            assert_eq!(result.sim_seconds, lib.sim_seconds, "{what}");

            // One arena copy per round (the root's payload), nothing else.
            let steady = pool[rounds - 1].since(&pool[2]);
            let arena_bytes = 4 * proto.num_params() as u64;
            assert_eq!(
                steady.bytes_copied,
                (rounds as u64 - 3) * arena_bytes,
                "{what}"
            );
            if backend == ClusterBackend::Events {
                assert_eq!(
                    steady.allocations(),
                    0,
                    "{what}: allocator touched between round 3 and the last: {steady:?}"
                );
            }

            // Every parameter-sized buffer the pool ever created is parked
            // in it when the run ends: each participant holds one as its
            // `weight_sum`, and the participants brought that many in.
            // The batch buffers are one per worker per round (see
            // `hosted`); the rest is independent of the round count.
            let arena_sized = pool[rounds - 1].allocations() as usize - WORKERS * rounds;
            assert!(
                arena_sized <= WORKERS + 2,
                "{what}: {arena_sized} arena-sized pooled buffers for {WORKERS} participants"
            );
        }
    }
}

#[test]
fn a_worker_holds_the_arenas_its_method_reads() {
    let (proto, train, _) = task();
    let (n, cfg) = (proto.num_params(), cfg(1));
    let rule = ElasticRule::from_config(&cfg);
    let mut center = proto.params().as_slice().to_vec();
    let mut rng = additive_rng(cfg.seed, 1);
    // `async_easgd`'s and `async_measgd`'s exchange, from their public pieces.
    for (momentum, arenas) in [(false, 3), (true, 4)] {
        let mut local = LocalStep::new(&proto);
        local.forward_backward(&train.sample_batch(&mut rng, cfg.batch));
        assert_eq!(local.held_floats(), 2 * n);
        rule.center_pull(&mut center, local.params());
        local.snapshot_center(&center);
        if momentum {
            local.elastic_momentum_step(&rule);
        } else {
            local.elastic_step(&rule);
        }
        assert_eq!(local.held_floats(), arenas * n, "momentum={momentum}");
    }
}
