// xtask: allow(wall-clock) — wall-clock trainer/driver: measures real elapsed time by design.
//! Asynchronous parameter server on the simulated cluster (Figure 5,
//! §3.1, §5.1) — the message-passing counterpart of the shared-memory
//! implementations in [`crate::shared`].
//!
//! The master (rank 0) serves workers **first-come-first-served**: it
//! receives whatever arrives next (`recv_any`), updates, and replies.
//! Contrast with Original EASGD's round-robin rule, which serves workers
//! in rank order no matter who is ready. With homogeneous workers the
//! two schedules cost the same — which is exactly the paper's
//! observation that “neither Async EASGD nor Async MEASGD were
//! significantly faster than Original EASGD” (§1). The FCFS advantage
//! appears when worker compute times vary (`compute_jitter` in
//! [`SimCosts`]): round-robin convoys behind the slow worker, FCFS
//! doesn't — the mechanism this module makes measurable.

use crate::config::TrainConfig;
use crate::engine::{
    assemble_sim, rank_rng, AsyncVariant, ElasticRule, LocalStep, RankOutcome, SALT_PHI,
};
use crate::metrics::RunResult;
use crate::simcost::SimCosts;
use easgd_cluster::{tags, ClusterConfig, Comm, TimeCategory, VirtualCluster};
use easgd_data::Dataset;
use easgd_nn::Network;
use std::time::Instant;

/// The result name of `variant` on the simulated server.
fn label(variant: AsyncVariant) -> &'static str {
    match variant {
        AsyncVariant::Sgd => "Async SGD [sim]",
        AsyncVariant::Msgd => "Async MSGD [sim]",
        AsyncVariant::Easgd => "Async EASGD [sim]",
        AsyncVariant::Measgd => "Async MEASGD [sim]",
    }
}

/// Runs the FCFS parameter server on a simulated `cfg.workers`-GPU node,
/// exchanging by `variant`'s rule. `cfg.iterations` steps per worker,
/// each ending in an exchange, so `τ` must be 1. Worker compute is
/// jittered per `costs.compute_jitter`.
pub fn async_server_sim(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    costs: &SimCosts,
    variant: AsyncVariant,
) -> RunResult {
    cfg.validate();
    cfg.refuse_comm_period("async_server_sim");
    let g = cfg.workers;
    let cluster = ClusterConfig::new(g + 1);
    let total = cfg.iterations * g;
    let xfer = costs.unpacked_weight_time();
    let shards = train.partition(g);
    let rule = ElasticRule::from_config(cfg);
    let wall_start = Instant::now();

    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        if comm.rank() == 0 {
            // ---- master: serve whoever arrives next, total times.
            let mut center = proto.params().as_slice().to_vec();
            let mut velocity = Vec::new();
            // Receive scratch, reused across requests.
            let mut payload = Vec::new();
            for _ in 0..total {
                let from = comm.recv_any_into(
                    tags::ASYNC_REQ,
                    TimeCategory::ForwardBackward,
                    &mut payload,
                );
                // The inbound transfer crosses the host link.
                comm.charge(TimeCategory::CpuGpuParam, xfer);
                variant.apply(&rule, &mut center, &mut velocity, &payload);
                comm.charge(TimeCategory::CpuUpdate, costs.cpu_update);
                comm.send_costed(
                    from,
                    tags::async_reply(from),
                    &center,
                    xfer,
                    TimeCategory::CpuGpuParam,
                );
            }
            RankOutcome::Center {
                center,
                report: comm.report(),
                trace: Vec::new(),
                loss_trace: Vec::new(),
            }
        } else {
            // ---- worker: compute, push, pull, update.
            let me = comm.rank();
            let shard = &shards[me - 1];
            let mut local = LocalStep::new(proto);
            let mut rng = rank_rng(cfg.seed, SALT_PHI, me);
            // Reply scratch, reused across rounds.
            let mut reply = Vec::new();
            for _ in 0..cfg.iterations {
                let batch = shard.sample_batch(&mut rng, cfg.batch);
                local.forward_backward(&batch);
                // Jittered compute: heterogeneity knob of the study.
                let jit = 1.0 + costs.compute_jitter * rng.uniform() as f64;
                comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd * jit);
                comm.send_costed(
                    0,
                    tags::ASYNC_REQ,
                    variant.push(&local),
                    0.0,
                    TimeCategory::Other,
                );
                comm.recv_into(0, tags::async_reply(me), TimeCategory::Other, &mut reply);
                variant.receive(&mut local, &reply);
                variant.worker_update(&rule, &mut local);
                if variant.is_elastic() {
                    // The elastic worker updates on its GPU.
                    comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
                }
            }
            RankOutcome::Worker {
                report: None,
                last_loss: local.last_loss(),
                loss_trace: local.take_loss_trace(),
            }
        }
    });

    let wall = wall_start.elapsed().as_secs_f64();
    assemble_sim(label(variant), proto, test, cfg.iterations, wall, outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::original::{original_easgd_sim, OriginalMode};
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(141);
        let (train, test) = task.train_test(600, 200, 142);
        (lenet_tiny(143), train, test)
    }

    fn cfg(iters: usize) -> TrainConfig {
        TrainConfig::figure6(iters).with_seed(151)
    }

    #[test]
    fn async_easgd_sim_learns() {
        let (net, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = async_server_sim(&net, &train, &test, &cfg(60), &costs, AsyncVariant::Easgd);
        assert!(r.accuracy > 0.3, "acc = {}", r.accuracy);
        assert!(r.sim_seconds.unwrap() > 0.0);
    }

    #[test]
    fn async_sgd_sim_learns() {
        let (net, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let mut c = cfg(60);
        c.eta = 0.05; // FCFS gradient pushes at η=0.2 are unstable
        let r = async_server_sim(&net, &train, &test, &c, &costs, AsyncVariant::Sgd);
        assert!(r.accuracy > 0.3, "acc = {}", r.accuracy);
    }

    /// Momentum amplifies the effective rate by ~1/(1−µ), so the momentum
    /// pair train at the smaller η of the wall-clock momentum methods.
    fn momentum_sim_learns(variant: AsyncVariant) {
        let (net, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(60).with_eta(0.02);
        let r = async_server_sim(&net, &train, &test, &c, &costs, variant);
        assert!(r.accuracy > 0.3, "{} acc = {}", r.method, r.accuracy);
    }

    #[test]
    fn async_msgd_sim_learns() {
        momentum_sim_learns(AsyncVariant::Msgd);
    }

    #[test]
    fn async_measgd_sim_learns() {
        momentum_sim_learns(AsyncVariant::Measgd);
    }

    #[test]
    #[should_panic(expected = "async_server_sim does not honour comm_period: τ = 4")]
    fn a_comm_period_is_refused_not_ignored() {
        let (net, train, test) = setup();
        let c = cfg(5).with_comm_period(4);
        let costs = SimCosts::mnist_lenet_4gpu();
        async_server_sim(&net, &train, &test, &c, &costs, AsyncVariant::Easgd);
    }

    #[test]
    fn homogeneous_async_matches_round_robin_cost() {
        // §1: without heterogeneity, FCFS ≈ round-robin — both serialize
        // through the master's link.
        let (net, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(25);
        let asy = async_server_sim(&net, &train, &test, &c, &costs, AsyncVariant::Easgd)
            .sim_seconds
            .unwrap();
        let orig = original_easgd_sim(&net, &train, &test, &c, &costs, OriginalMode::Pipelined)
            .sim_seconds
            .unwrap();
        let ratio = asy / orig;
        assert!(
            (0.7..1.4).contains(&ratio),
            "homogeneous async/original = {ratio:.2} (expected ≈ 1)"
        );
    }

    #[test]
    fn fcfs_beats_round_robin_under_heterogeneity() {
        // The FCFS mechanism: with ±2× jittered worker compute the
        // round-robin master convoys behind slow workers; FCFS keeps
        // serving whoever is ready.
        let (net, train, test) = setup();
        let mut costs = SimCosts::mnist_lenet_4gpu();
        costs.compute_jitter = 8.0; // slow workers up to 9× the fast ones
        costs.fwd_bwd = 20e-3; // compute-dominated regime
        let c = cfg(25);
        let asy = async_server_sim(&net, &train, &test, &c, &costs, AsyncVariant::Easgd)
            .sim_seconds
            .unwrap();
        let orig = original_easgd_sim(&net, &train, &test, &c, &costs, OriginalMode::Serialized)
            .sim_seconds
            .unwrap();
        assert!(
            asy < orig,
            "FCFS ({asy:.2}s) should beat ordered serving ({orig:.2}s) under jitter"
        );
    }
}
