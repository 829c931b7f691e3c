// xtask: allow(wall-clock) — wall-clock trainer/driver: measures real elapsed time by design.
//! Original EASGD (Algorithm 1) on the simulated multi-GPU node.
//!
//! The baseline of the whole paper: the master (CPU) serves workers
//! (GPUs) strictly in rank order, one at a time. Two variants appear in
//! Table 3:
//!
//! * **Serialized** (`Original EASGD*`): the master dispatches worker
//!   `j`, waits for its forward/backward, collects the weight, updates —
//!   nothing overlaps. Only one GPU computes at any moment.
//! * **Pipelined** (`Original EASGD`): the master dispatches worker `j`
//!   and collects `j`'s *previous* result one sweep later, so worker
//!   compute hides behind the master's service loop. The master becomes
//!   purely communication-bound — Table 3's 87 % comm ratio.
//!
//! Both use the *unpacked* (per-layer) CPU↔GPU transfer path, because
//! packing (§5.2) is one of the optimizations the paper adds on the way
//! to Sync EASGD. Batches travel as [`BatchMsg`] frames; the elastic
//! math and result assembly come from [`crate::engine`].

use crate::config::TrainConfig;
use crate::engine::{assemble_sim, rank_rng, ElasticRule, LocalStep, RankOutcome, SALT_PHI};
use crate::metrics::RunResult;
use crate::simcost::SimCosts;
use easgd_cluster::{tags, BatchMsg, ClusterConfig, Comm, TimeCategory, VirtualCluster};
use easgd_data::Dataset;
use easgd_nn::Network;
use easgd_tensor::Rng;
use std::time::Instant;

/// Which Algorithm 1 schedule to simulate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OriginalMode {
    /// No overlap (Table 3 row "Original EASGD*").
    Serialized,
    /// Worker compute hidden under the master's round-robin service loop
    /// (Table 3 row "Original EASGD").
    Pipelined,
}

impl OriginalMode {
    fn label(&self) -> &'static str {
        match self {
            OriginalMode::Serialized => "Original EASGD*",
            OriginalMode::Pipelined => "Original EASGD",
        }
    }
}

/// Runs Original EASGD on a simulated `cfg.workers`-GPU node.
///
/// `cfg.iterations` is the per-worker step count; the master performs
/// `iterations × workers` round-robin interactions in total. Returns the
/// master's simulated-time breakdown (the Table 3 row).
pub fn original_easgd_sim(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    costs: &SimCosts,
    mode: OriginalMode,
) -> RunResult {
    cfg.validate();
    cfg.refuse_comm_period("original_easgd_sim");
    let g = cfg.workers;
    let total = cfg.iterations * g;
    let cluster = ClusterConfig::new(g + 1);
    let up = costs.unpacked_weight_time();
    let down = costs.unpacked_weight_time();
    let wall_start = Instant::now();

    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        if comm.rank() == 0 {
            master_loop(comm, proto, train, cfg, costs, mode, total, up, down)
        } else {
            worker_loop(comm, proto, cfg, costs, total)
        }
    });

    let wall = wall_start.elapsed().as_secs_f64();
    assemble_sim(mode.label(), proto, test, cfg.iterations, wall, outs)
}

#[allow(clippy::too_many_arguments)]
fn master_loop(
    comm: &mut Comm,
    proto: &Network,
    train: &Dataset,
    cfg: &TrainConfig,
    costs: &SimCosts,
    mode: OriginalMode,
    total: usize,
    up: f64,
    down: f64,
) -> RankOutcome {
    let g = cfg.workers;
    let rule = ElasticRule::from_config(cfg);
    let mut rng = Rng::new(cfg.seed);
    let mut center = proto.params().as_slice().to_vec();
    let mut inflight = vec![false; g + 1];
    // Receive scratch for the worker-weight collects, reused every round.
    let mut wbuf: Vec<f32> = Vec::new();

    let collect = |comm: &mut Comm, center: &mut [f32], wbuf: &mut Vec<f32>, j: usize| {
        // The wait (worker still computing) is attributed to
        // forward/backward, the transfer to CPU↔GPU parameter traffic —
        // Table 3's accounting.
        comm.recv_costed_into(
            j,
            tags::ORIG_WEIGHT,
            up,
            TimeCategory::ForwardBackward,
            TimeCategory::CpuGpuParam,
            wbuf,
        );
        rule.center_pull(center, wbuf);
        comm.charge(TimeCategory::CpuUpdate, costs.cpu_update);
    };

    for t in 0..total {
        let j = 1 + (t % g);
        if mode == OriginalMode::Pipelined && inflight[j] {
            collect(comm, &mut center, &mut wbuf, j);
        }
        let batch = train.sample_batch(&mut rng, cfg.batch);
        let pixels = batch.images.as_slice();
        let mut frame = comm.take_buffer(3 + batch.labels.len() + pixels.len());
        BatchMsg::encode_into(pixels, &batch.labels, &mut frame);
        comm.send_from_costed(
            j,
            tags::ORIG_DATA,
            frame,
            costs.data_time(),
            TimeCategory::CpuGpuData,
        );
        comm.send_costed(
            j,
            tags::ORIG_CENTER,
            &center,
            down,
            TimeCategory::CpuGpuParam,
        );
        inflight[j] = true;
        if mode == OriginalMode::Serialized {
            collect(comm, &mut center, &mut wbuf, j);
            inflight[j] = false;
        }
    }
    // Drain the pipeline.
    if mode == OriginalMode::Pipelined {
        for (j, flag) in inflight.iter_mut().enumerate().skip(1) {
            if std::mem::take(flag) {
                collect(comm, &mut center, &mut wbuf, j);
            }
        }
    }
    RankOutcome::Center {
        center,
        report: comm.report(),
        trace: Vec::new(),
        loss_trace: Vec::new(),
    }
}

fn worker_loop(
    comm: &mut Comm,
    proto: &Network,
    cfg: &TrainConfig,
    costs: &SimCosts,
    total: usize,
) -> RankOutcome {
    let g = cfg.workers;
    let me = comm.rank();
    let rounds = (0..total).filter(|t| 1 + (t % g) == me).count();
    let rule = ElasticRule::from_config(cfg);
    let mut local = LocalStep::new(proto);
    let mut jitter_rng = rank_rng(cfg.seed, SALT_PHI, me);
    // Receive scratch, reused across rounds (pool-recycled payloads).
    let mut payload: Vec<f32> = Vec::new();
    let mut center: Vec<f32> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for _ in 0..rounds {
        comm.recv_into(0, tags::ORIG_DATA, TimeCategory::Other, &mut payload);
        comm.recv_into(0, tags::ORIG_CENTER, TimeCategory::Other, &mut center);
        let pixels = match BatchMsg::decode_into(&payload, cfg.batch, &mut labels) {
            Ok(x) => x,
            Err(e) => panic!("batch codec (rank {me}): {e}"),
        };
        local.forward_backward_flat(cfg.batch, pixels, &labels);
        let jit = 1.0 + costs.compute_jitter * jitter_rng.uniform() as f64;
        comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd * jit);
        // Ship W_jt (pre-update, per Algorithm 1 lines 12–14); the master
        // pays the transfer on its own timeline.
        comm.send_costed(
            0,
            tags::ORIG_WEIGHT,
            local.params(),
            0.0,
            TimeCategory::Other,
        );
        local.elastic_step_against(&rule, &center);
        comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
    }
    RankOutcome::Worker {
        report: None,
        last_loss: local.last_loss(),
        loss_trace: local.take_loss_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(51);
        let (train, test) = task.train_test(600, 200, 52);
        (lenet_tiny(53), train, test)
    }

    fn cfg(iters: usize) -> TrainConfig {
        TrainConfig {
            workers: 4,
            batch: 16,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations: iters,
            seed: 61,
            comm_period: 1,
        }
    }

    #[test]
    fn pipelined_learns_and_reports_breakdown() {
        let (proto, train, test) = setup();
        let r = original_easgd_sim(
            &proto,
            &train,
            &test,
            &cfg(50),
            &SimCosts::mnist_lenet_4gpu(),
            OriginalMode::Pipelined,
        );
        assert!(r.accuracy > 0.3, "acc = {}", r.accuracy);
        assert!(r.sim_seconds.unwrap() > 0.0);
        let b = r.breakdown.unwrap();
        assert!(b.get(TimeCategory::CpuGpuParam) > 0.0);
        assert!(b.get(TimeCategory::CpuUpdate) > 0.0);
    }

    #[test]
    fn pipelined_is_comm_bound_serialized_is_not() {
        // The Table 3 contrast: pipelining hides compute under the
        // service loop, pushing the comm ratio way up (52% → 87% in the
        // paper) while *reducing* total time.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(25);
        let pip = original_easgd_sim(&proto, &train, &test, &c, &costs, OriginalMode::Pipelined);
        let ser = original_easgd_sim(&proto, &train, &test, &c, &costs, OriginalMode::Serialized);
        let pip_t = pip.sim_seconds.unwrap();
        let ser_t = ser.sim_seconds.unwrap();
        assert!(pip_t < ser_t, "pipelined {pip_t} !< serialized {ser_t}");
        let pip_ratio = pip.breakdown.as_ref().unwrap().comm_ratio();
        let ser_ratio = ser.breakdown.as_ref().unwrap().comm_ratio();
        assert!(
            pip_ratio > ser_ratio,
            "pipelined ratio {pip_ratio} !> serialized {ser_ratio}"
        );
        assert!(
            pip_ratio > 0.7,
            "expected comm-bound master, got {pip_ratio}"
        );
    }

    #[test]
    fn serialized_time_matches_phase_sum() {
        // Every serialized iteration is the exact sum of its phases.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(5);
        let r = original_easgd_sim(&proto, &train, &test, &c, &costs, OriginalMode::Serialized);
        let per_iter = costs.data_time()
            + 2.0 * costs.unpacked_weight_time()
            + costs.fwd_bwd
            + costs.cpu_update;
        let expect = per_iter * (c.iterations * c.workers) as f64;
        let got = r.sim_seconds.unwrap();
        assert!(
            (got - expect).abs() / expect < 0.05,
            "sim {got} vs expected {expect}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(10);
        let a = original_easgd_sim(&proto, &train, &test, &c, &costs, OriginalMode::Pipelined);
        let b = original_easgd_sim(&proto, &train, &test, &c, &costs, OriginalMode::Pipelined);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.center_hash, b.center_hash);
    }
}
