//! Asynchronous parameter server on the simulated cluster (Figure 5,
//! §3.1, §5.1): a virtual cluster decides the order in which workers
//! reach the master and what that costs, and the wall-clock locked
//! server ([`crate::shared`]) replays the order and does every float.
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
//!
//! The cluster's rank closure is [`fcfs_rank`]. Its master's
//! `recv_any` is the one place in the library where the order messages
//! arrive in changes what a program does, so the xtask protocol checker
//! runs this same closure once per order the master can see, and checks
//! that every worker is served its exchanges and every request answered
//! (DESIGN.md §12).

use crate::config::TrainConfig;
use crate::engine::{rank_rng, AsyncVariant, SALT_JITTER};
use crate::metrics::RunResult;
use crate::shared::{locked_server, order_id, LockOrder};
use crate::simcost::SimCosts;
use easgd_cluster::{
    tags, ClusterBackend, ClusterConfig, Comm, RankReport, TimeCategory, VirtualCluster,
};
use easgd_data::Dataset;
use easgd_nn::Network;

/// The result name of `variant` on the simulated server.
fn label(variant: AsyncVariant) -> &'static str {
    match variant {
        AsyncVariant::Sgd => "Async SGD [sim]",
        AsyncVariant::Msgd => "Async MSGD [sim]",
        AsyncVariant::Easgd => "Async EASGD [sim]",
        AsyncVariant::Measgd => "Async MEASGD [sim]",
    }
}

/// The order in which `cfg.workers` simulated GPUs reach an FCFS master,
/// `cfg.iterations` exchanges each, and the master's report: its clock
/// and Table 3 breakdown. Worker compute is jittered per
/// `costs.compute_jitter`; the elastic `variant`s also pay a GPU update.
/// Hosted on the event backend, so the order is a pure function of the
/// seed and the costs.
pub fn fcfs_order(
    cfg: &TrainConfig,
    costs: &SimCosts,
    variant: AsyncVariant,
) -> (Vec<u16>, RankReport) {
    let cluster = ClusterConfig::new(cfg.workers + 1).with_backend(ClusterBackend::Events);
    let outs = VirtualCluster::run(&cluster, |comm| fcfs_rank(comm, cfg, costs, variant));
    match outs.into_iter().next() {
        Some(Some(master)) => master,
        _ => unreachable!("rank 0 is the master"),
    }
}

/// One rank of [`fcfs_order`]'s cluster: rank 0 is the master, which
/// returns the order it served and its report; every other rank is a
/// worker and returns `None`. The protocol checker runs this closure
/// under every order its `recv_any` can see.
pub fn fcfs_rank(
    comm: &mut Comm,
    cfg: &TrainConfig,
    costs: &SimCosts,
    variant: AsyncVariant,
) -> Option<(Vec<u16>, RankReport)> {
    let total = cfg.iterations * cfg.workers;
    let xfer = costs.unpacked_weight_time();
    // Requests and replies carry no floats: only their costs count.
    let mut empty = Vec::new();
    if comm.rank() == 0 {
        // ---- master: serve whoever arrives next, total times.
        let mut order = Vec::with_capacity(total);
        for _ in 0..total {
            let from =
                comm.recv_any_into(tags::ASYNC_REQ, TimeCategory::ForwardBackward, &mut empty);
            order.push(order_id(from - 1));
            // The inbound transfer crosses the host link.
            comm.charge(TimeCategory::CpuGpuParam, xfer);
            comm.charge(TimeCategory::CpuUpdate, costs.cpu_update);
            comm.send_costed(
                from,
                tags::ASYNC_REPLY,
                &[],
                xfer,
                TimeCategory::CpuGpuParam,
            );
        }
        Some((order, comm.report()))
    } else {
        // ---- worker: compute, push, pull, update.
        let mut rng = rank_rng(cfg.seed, SALT_JITTER, comm.rank());
        for _ in 0..cfg.iterations {
            // Jittered compute: heterogeneity knob of the study.
            let jit = 1.0 + costs.compute_jitter * rng.uniform() as f64;
            comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd * jit);
            comm.send_costed(0, tags::ASYNC_REQ, &[], 0.0, TimeCategory::Other);
            comm.recv_into(0, tags::ASYNC_REPLY, TimeCategory::Other, &mut empty);
            if variant.is_elastic() {
                // The elastic worker updates on its GPU.
                comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
            }
        }
        None
    }
}

/// Runs the FCFS parameter server on a simulated `cfg.workers`-GPU node,
/// exchanging by `variant`'s rule. `cfg.iterations` steps per worker,
/// each ending in an exchange, so `τ` must be 1. The cluster's
/// [`fcfs_order`] sets the clock; the locked server replays the order.
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
    let (order, master) = fcfs_order(cfg, costs, variant);
    let given = LockOrder::Given(&order);
    let (run, _) = locked_server(label(variant), variant, given, proto, train, test, cfg);
    RunResult {
        sim_seconds: Some(master.time),
        breakdown: Some(master.breakdown),
        ..run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::MethodId;
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
    fn a_lone_simulated_worker_trains_as_the_wall_clock_one() {
        // One worker has one order, so the simulated server's centre is
        // the wall-clock locked server's.
        let (net, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(20).with_workers(1).with_eta(0.02);
        for (v, m) in [
            (AsyncVariant::Sgd, MethodId::AsyncSgd),
            (AsyncVariant::Msgd, MethodId::AsyncMsgd),
            (AsyncVariant::Easgd, MethodId::AsyncEasgd),
            (AsyncVariant::Measgd, MethodId::AsyncMeasgd),
        ] {
            let sim = async_server_sim(&net, &train, &test, &c, &costs, v);
            let wall = crate::run_method(m, &net, &train, &test, &c);
            assert_eq!(sim.center_hash, wall.center_hash, "{v:?}");
        }
    }

    #[test]
    fn the_fcfs_order_is_a_function_of_the_seed() {
        // Compute-dominated and jittered, as in the heterogeneity test.
        let mut costs = SimCosts::mnist_lenet_4gpu();
        costs.compute_jitter = 8.0;
        costs.fwd_bwd = 20e-3;
        let c = cfg(30);
        let (order, master) = fcfs_order(&c, &costs, AsyncVariant::Easgd);
        assert_eq!((order.clone(), master.time), {
            let (o, m) = fcfs_order(&c, &costs, AsyncVariant::Easgd);
            (o, m.time)
        });
        for w in 0..4 {
            assert_eq!(order.iter().filter(|&&x| x == w).count(), 30, "worker {w}");
        }
        // Jittered workers do not arrive in turn.
        assert!(order.chunks(4).any(|round| round != [0, 1, 2, 3]));
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
