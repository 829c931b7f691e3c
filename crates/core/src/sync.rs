// xtask: allow(wall-clock) — wall-clock trainer/driver: measures real elapsed time by design.
//! The synchronous family on the simulated cluster: Sync EASGD1/2/3
//! (Algorithms 2–4, §6.1) and Sync SGD (the allreduce baseline used by
//! Figure 10 and the weak-scaling comparisons).
//!
//! The three-step optimization story of §6.1. Every step runs the same
//! executable binomial tree ([`easgd_cluster::collectives`]) and its
//! simulated time is what the executed messages cost on the step's link:
//!
//! 1. **Sync EASGD1** — replace the round-robin exchange with a tree
//!    broadcast + tree reduction rooted at the *CPU*; packed (§5.2)
//!    pinned transfers. `P(α+|W|β) → log P(α+|W|β)`. Time: the serial
//!    tree's messages over G+1 ranks on `cpu_gpu_packed`.
//! 2. **Sync EASGD2** — move the center weight to GPU1: parameter
//!    traffic becomes GPU↔GPU peer transfers; the CPU only ships batch
//!    data. Time: the serial tree's messages over the G GPUs on
//!    `gpu_gpu`.
//! 3. **Sync EASGD3** — overlap the exchange with the forward/backward
//!    critical path (steps 7–10 vs 11–12 of Algorithm 3). Time: the
//!    same tree cut into `EASGD3_SEGMENTS` segments whose traffic is
//!    in flight under the sliced compute window
//!    ([`tree_exchange_pipelined`]); what does not hide is what is left
//!    on the clock.
//!
//! [`sync_easgd_sim`] prices the trained proxy network's arena as the
//! paper's model ([`SimCosts::for_proxy`]); [`sync_easgd_sim_with`]
//! prices the bytes it is handed on the links it is handed.

use crate::config::TrainConfig;
use crate::engine::{
    additive_rng, assemble_sim, ElasticRule, LocalStep, RankOutcome, TraceRecorder,
};
use crate::metrics::RunResult;
use crate::simcost::SimCosts;
use easgd_cluster::collectives::{
    tree_allreduce_sum, tree_broadcast_shared_among, tree_reduce_sum_among, TreeRole,
};
use easgd_cluster::{
    tags, BatchMsg, ClusterConfig, Comm, Request, RequestCollection, TimeCategory, VirtualCluster,
};
use easgd_data::Dataset;
use easgd_hardware::net::AlphaBeta;
use easgd_nn::{CommSchedule, LayoutKind, Network};
use easgd_tensor::ops::fold_sum;
use std::time::Instant;

/// Which Sync EASGD implementation stage to run (§6.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncVariant {
    /// Tree collectives rooted at the CPU (Algorithm 2).
    Easgd1,
    /// Center weight on GPU1 (Algorithm 3).
    Easgd2,
    /// EASGD2 + communication/computation overlap ("Communication
    /// Efficient EASGD", Algorithm 4's schedule).
    Easgd3,
}

impl SyncVariant {
    fn label(&self) -> &'static str {
        match self {
            SyncVariant::Easgd1 => "Sync EASGD1",
            SyncVariant::Easgd2 => "Sync EASGD2",
            SyncVariant::Easgd3 => "Sync EASGD3",
        }
    }
}

/// How the Sync EASGD exchange step moves data (§6.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncExchange {
    /// Executable binomial-tree broadcast/reduce over the point-to-point
    /// layer ([`easgd_cluster::collectives`]): simulated time emerges
    /// from per-message α-β accounting, so the timeline and the running
    /// schedule are one tree.
    ExecutableTree,
    /// [`SyncExchange::ExecutableTree`] cut into `segments` arena
    /// segments and driven through the nonblocking request-handle API
    /// ([`tree_exchange_pipelined`]): the broadcast and reduce of
    /// segment `k` hide under the compute slice of segment `k+1`.
    /// Numerically bit-identical to the serial executable tree — only
    /// the simulated timeline changes.
    PipelinedTree {
        /// How many segments the parameter arena is cut into:
        /// `1..=min(arena length, 256)` — a segment holds at least one
        /// element and the segment tags span 256.
        segments: usize,
    },
}

/// Segment count [`sync_easgd_sim`] pipelines Sync EASGD3 with, read
/// from a sweep at Table 3's protocol (250 rounds, 4 GPUs, LeNet bytes,
/// 80 µs / 8 GB/s peer link; a test below reruns it): 1 → 1.73 s,
/// **2 → 1.65 s**, 3 → 1.66, 4 → 1.67, 8 → 1.75, 16 → 1.90. One segment
/// hides nothing of the broadcast; each further one pays α per tree edge.
const EASGD3_SEGMENTS: usize = 2;

/// One executable-tree exchange round — the exact comm structure the
/// Sync EASGD trainer runs per iteration under
/// [`SyncExchange::ExecutableTree`]: tree-broadcast the center from
/// `center_rank` as one shared payload (§5.2: the root's single copy,
/// forwarded by reference), let `contribute` read W̄_t in place and build
/// this rank's reduce input in `weight_sum`, then tree-reduce the sum
/// back to `center_rank` by moving the buffers up the tree. On return
/// only `center_rank`'s `weight_sum` holds Σ W_i; the others hold a
/// pooled buffer of the same length with unspecified contents.
///
/// `_center_t` is unused — W̄_t lives in the payload — and stays in the
/// signature for the hosted replays (`benchmark/`) that call it.
///
/// Extracted so the xtask protocol checker runs the *same* production
/// code path (DESIGN.md §12) instead of a hand-transcribed copy.
#[allow(clippy::too_many_arguments)]
pub fn tree_exchange_round<F>(
    comm: &mut Comm,
    participants: &[usize],
    center_rank: usize,
    center: &[f32],
    _center_t: &mut Vec<f32>,
    weight_sum: &mut Vec<f32>,
    category: TimeCategory,
    contribute: F,
) where
    F: FnOnce(&[f32], &mut Vec<f32>),
{
    let w_bar = tree_broadcast_shared_among(comm, participants, center_rank, center, category);
    contribute(w_bar.as_slice(), weight_sum);
    comm.release_payload(w_bar);
    tree_reduce_sum_among(comm, participants, center_rank, weight_sum, category);
}

/// Element range of segment `s` when `n` elements are cut into
/// `segments` nearly equal pieces (both exchange directions use this, so
/// the partition is identical on every rank).
fn seg_bounds(n: usize, segments: usize, s: usize) -> std::ops::Range<usize> {
    (n * s / segments)..(n * (s + 1) / segments)
}

/// The pipelined form of [`tree_exchange_round`] — the same binomial
/// tree ([`TreeRole`]) walked segment by segment through the
/// nonblocking request-handle API (DESIGN.md §13):
///
/// * the root injects every broadcast segment up front
///   (segment-major `isend`s, children in the serial fan-out order);
/// * every other participant pre-posts one pooled `irecv_into` per
///   segment;
/// * compute loop, per segment `s`: one compute slice is charged via
///   `compute_slice` (the §6.1 overlap window), the broadcast segment
///   is awaited, copied into `center_t`, and forwarded down the tree;
///   the local reduce contribution is built by `contribute_segment`;
///   leaves stream their partial straight up with an `isend`;
/// * reduce loop, per segment `s`: interior ranks fold their children's
///   partials in the serial (mask-ascending) order, in one [`fold_sum`]
///   sweep, and push the result to their parent. Folding *after* the
///   compute loop matters: a child's partial necessarily trails the
///   pipeline skew, and blocking on it between compute slices would
///   feed that skew back into the next broadcast forward, compounding
///   once per segment;
/// * the round ends with one `wait_all` over every posted send, which
///   settles the residual (non-hidden) NIC time.
///
/// Segment boundaries partition the arena and the per-element fold
/// order equals the serial round's, so the numeric result is
/// **bit-identical** to [`tree_exchange_round`] — only the simulated
/// timeline differs: traffic hides under the sliced compute instead of
/// following it. All scratch is pooled; steady-state rounds allocate
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn tree_exchange_pipelined<C, F>(
    comm: &mut Comm,
    participants: &[usize],
    center_rank: usize,
    center: &[f32],
    center_t: &mut [f32],
    weight_sum: &mut [f32],
    category: TimeCategory,
    segments: usize,
    mut compute_slice: C,
    mut contribute_segment: F,
) where
    C: FnMut(&mut Comm, usize),
    F: FnMut(std::ops::Range<usize>, &[f32], &mut [f32]),
{
    let n = center_t.len();
    assert_eq!(weight_sum.len(), n, "weight_sum/center_t length mismatch");
    assert!(
        (1..=n.min(256)).contains(&segments),
        "segment count {segments} outside 1..={} (arena {n}, tag range 256)",
        n.min(256)
    );
    let me = comm.rank();
    let role = TreeRole::compute(participants, center_rank, me);
    let mut sends = RequestCollection::new();

    // Post phase: the root injects the whole broadcast; everyone else
    // pre-posts the matching receives into pooled buffers.
    let mut bcast_reqs: Vec<Request> = Vec::with_capacity(segments);
    if me == center_rank {
        assert_eq!(center.len(), n, "center/center_t length mismatch");
        center_t.copy_from_slice(center);
        for s in 0..segments {
            let r = seg_bounds(n, segments, s);
            for &(child, mask) in &role.children {
                sends.push(comm.isend(
                    child,
                    tags::seg_tree(s, tags::SEG_PHASE_BCAST, mask),
                    &center_t[r.clone()],
                    category,
                ));
            }
        }
    } else if let Some((parent, mask)) = role.parent {
        for s in 0..segments {
            let r = seg_bounds(n, segments, s);
            let buf = comm.take_buffer(r.len());
            bcast_reqs.push(comm.irecv_into(
                parent,
                tags::seg_tree(s, tags::SEG_PHASE_BCAST, mask),
                category,
                buf,
            ));
        }
    } else {
        unreachable!("non-root participant has a tree parent");
    }

    // One slot per child, so a segment's partials fold in one sweep:
    // each `recv_into` moves the arrived buffer in and recycles the one
    // before it, so they start empty.
    let mut slots: Vec<Vec<f32>> = (role.children.iter())
        .map(|_| comm.take_buffer(0))
        .collect();
    for s in 0..segments {
        let r = seg_bounds(n, segments, s);
        // The overlap window: segment s's traffic is in flight while
        // this slice of forward/backward is on the clock.
        compute_slice(comm, s);
        if me != center_rank {
            let Some(req) = bcast_reqs.get_mut(s) else {
                unreachable!("one pre-posted irecv per segment");
            };
            let Some(buf) = comm.wait(req) else {
                unreachable!("waiting a posted irecv yields its buffer");
            };
            assert_eq!(buf.len(), r.len(), "broadcast segment length mismatch");
            center_t[r.clone()].copy_from_slice(&buf);
            comm.recycle_buffer(buf);
            for &(child, mask) in &role.children {
                sends.push(comm.isend(
                    child,
                    tags::seg_tree(s, tags::SEG_PHASE_BCAST, mask),
                    &center_t[r.clone()],
                    category,
                ));
            }
        }
        contribute_segment(r.clone(), &center_t[r.clone()], &mut weight_sum[r.clone()]);
        // A leaf's partial is just its contribution — stream it up
        // immediately so it rides under the remaining compute slices.
        if role.children.is_empty() {
            if let Some((parent, mask)) = role.parent {
                sends.push(comm.isend(
                    parent,
                    tags::seg_tree(s, tags::SEG_PHASE_REDUCE, mask),
                    &weight_sum[r.clone()],
                    category,
                ));
            }
        }
    }
    // Reduce loop (interior ranks): fold children in the serial
    // (mask-ascending) order — the reverse of the broadcast fan-out
    // list — and climb.
    if !slots.is_empty() {
        for s in 0..segments {
            let r = seg_bounds(n, segments, s);
            let tagged = |&(child, mask): &(usize, usize)| {
                (child, tags::seg_tree(s, tags::SEG_PHASE_REDUCE, mask))
            };
            let partials = || role.children.iter().rev().map(tagged);
            comm.await_all(partials());
            for ((child, tag), slot) in partials().zip(slots.iter_mut()) {
                comm.recv_into(child, tag, category, slot);
                assert_eq!(slot.len(), r.len(), "reduce segment length mismatch");
            }
            fold_sum(&mut weight_sum[r.clone()], &slots);
            if let Some((parent, mask)) = role.parent {
                sends.push(comm.isend(
                    parent,
                    tags::seg_tree(s, tags::SEG_PHASE_REDUCE, mask),
                    &weight_sum[r.clone()],
                    category,
                ));
            }
        }
    }
    slots.into_iter().for_each(|slot| comm.recycle_buffer(slot));
    comm.wait_all(&mut sends);
}

/// Runs Sync EASGD (variant per `variant`) on a simulated
/// `cfg.workers`-GPU node. `cfg.iterations` bulk-synchronous rounds; in
/// each round every GPU computes one batch gradient. When
/// `trace_every > 0`, test accuracy is recorded on the simulated
/// timeline every that many rounds (evaluation itself is off-clock).
///
/// `proto` stands for the model `costs` was calibrated for: its arena
/// is priced as `costs.weight_bytes` ([`SimCosts::for_proxy`]). EASGD1/2
/// run the serial executable tree, EASGD3 the pipelined one.
pub fn sync_easgd_sim(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    costs: &SimCosts,
    variant: SyncVariant,
    trace_every: usize,
) -> RunResult {
    let exchange = match variant {
        SyncVariant::Easgd3 => SyncExchange::PipelinedTree {
            segments: EASGD3_SEGMENTS,
        },
        _ => SyncExchange::ExecutableTree,
    };
    sync_easgd_sim_with(
        proto,
        train,
        test,
        cfg,
        &costs.for_proxy(proto.size_bytes()),
        variant,
        trace_every,
        exchange,
    )
}

/// [`sync_easgd_sim`] with an explicit exchange implementation.
#[allow(clippy::too_many_arguments)]
pub fn sync_easgd_sim_with(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    costs: &SimCosts,
    variant: SyncVariant,
    trace_every: usize,
    exchange: SyncExchange,
) -> RunResult {
    cfg.validate();
    cfg.refuse_comm_period("sync_easgd_sim_with");
    let g = cfg.workers;
    // Under the pipelined exchange, participants charge their
    // forward/backward window in per-segment slices inside the exchange
    // (the §6.1 overlap); everyone else charges it at the serial
    // program point.
    let pipelined_segments = match exchange {
        SyncExchange::PipelinedTree { segments } => Some(segments),
        SyncExchange::ExecutableTree => None,
    };
    if let Some(segments) = pipelined_segments {
        let n = proto.params().len();
        assert!(
            (1..=n.min(256)).contains(&segments),
            "PipelinedTree segments = {segments} outside 1..={} (arena of {n} elements, 256 segment tags)",
            n.min(256)
        );
    }
    // The tree's messages traverse the variant's dominant link:
    // host↔device packed transfers for EASGD1 (CPU-rooted), GPU peer
    // links otherwise.
    let cluster = ClusterConfig::new(g + 1).with_link(match variant {
        SyncVariant::Easgd1 => costs.cpu_gpu_packed.clone(),
        _ => costs.gpu_gpu.clone(),
    });
    // Collective participants for the executable tree: EASGD1 roots the
    // tree at the CPU (which contributes zeros to the reduce); EASGD2/3
    // keep parameter traffic entirely on the GPU set.
    let participants: Vec<usize> = match variant {
        SyncVariant::Easgd1 => (0..=g).collect(),
        _ => (1..=g).collect(),
    };
    let rule = ElasticRule::from_config(cfg);
    let center_rank = match variant {
        SyncVariant::Easgd1 => 0,
        _ => 1,
    };
    let coll_cat = match variant {
        SyncVariant::Easgd1 => TimeCategory::CpuGpuParam,
        _ => TimeCategory::GpuGpuParam,
    };
    let wall_start = Instant::now();

    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        let me = comm.rank();
        let mut rng = additive_rng(cfg.seed, me as u64);
        // Rank 0 is the data-feeding CPU; GPUs carry a network replica.
        let mut local = (me != 0).then(|| LocalStep::new(proto));
        let mut recorder = TraceRecorder::new(trace_every);
        let is_participant = participants.contains(&me);
        // Each rank holds only the arena-sized arrays its role reads:
        // the centre rank the center, the participants their reduce
        // input, and the pipelined tree's participants W̄_t. Allocated
        // once: the exchange step itself is zero-allocation in steady
        // state.
        let arena = |holds: bool| {
            let n = if holds { proto.params().len() } else { 0 };
            vec![0.0f32; n]
        };
        let mut center = if me == center_rank {
            proto.params().as_slice().to_vec()
        } else {
            Vec::new()
        };
        let mut center_t = arena(is_participant && pipelined_segments.is_some());
        let mut weight_sum = arena(is_participant);
        let mut payload = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let (update_cat, update_cost) = match variant {
            SyncVariant::Easgd1 => (TimeCategory::CpuUpdate, costs.cpu_update),
            _ => (TimeCategory::GpuUpdate, costs.gpu_update),
        };
        for round in 0..cfg.iterations {
            // --- data path: CPU ships one batch per GPU; the copies are
            // issued asynchronously and overlap, so one is charged.
            match local.as_mut() {
                None => {
                    for j in 1..=g {
                        let batch = train.sample_batch(&mut rng, cfg.batch);
                        let pixels = batch.images.as_slice();
                        let mut buf = comm.take_buffer(3 + batch.labels.len() + pixels.len());
                        BatchMsg::encode_into(pixels, &batch.labels, &mut buf);
                        let cost = if j == 1 { costs.data_time() } else { 0.0 };
                        comm.send_from_costed(
                            j,
                            tags::SYNC_DATA,
                            buf,
                            cost,
                            TimeCategory::CpuGpuData,
                        );
                    }
                    // The CPU waits out the GPUs' compute phase (Table 3
                    // attributes that window to for/backward); a
                    // pipelined participant charges it in slices below.
                    if !(is_participant && pipelined_segments.is_some()) {
                        comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                    }
                }
                Some(local) => {
                    comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut payload);
                    let pixels = match BatchMsg::decode_into(&payload, cfg.batch, &mut labels) {
                        Ok(x) => x,
                        Err(e) => panic!("batch codec (rank {me}): {e}"),
                    };
                    local.forward_backward_flat(cfg.batch, pixels, &labels);
                    if pipelined_segments.is_none() {
                        comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                    }
                }
            }
            if is_participant {
                let local = &mut local;
                match exchange {
                    // --- steps (2)-(4): executable tree broadcast of
                    // W̄_t, then the reduce input built in place by the
                    // contribute closure (the EASGD1 CPU contributes
                    // zeros) and tree-reduced back to the root.
                    SyncExchange::ExecutableTree => tree_exchange_round(
                        comm,
                        &participants,
                        center_rank,
                        &center,
                        &mut center_t,
                        &mut weight_sum,
                        coll_cat,
                        |center_t, weight_sum| match local.as_mut() {
                            Some(local) => {
                                local.elastic_exchange_against(&rule, center_t, weight_sum)
                            }
                            None => weight_sum.fill(0.0),
                        },
                    ),
                    // The same tree round, segment-pipelined: each
                    // compute slice hides the in-flight segment traffic
                    // (the §6.1 overlap, emerging from the executable
                    // schedule).
                    SyncExchange::PipelinedTree { segments } => {
                        let slice_cost = costs.fwd_bwd / segments as f64;
                        tree_exchange_pipelined(
                            comm,
                            &participants,
                            center_rank,
                            &center,
                            &mut center_t,
                            &mut weight_sum,
                            coll_cat,
                            segments,
                            |comm: &mut Comm, _s| {
                                comm.charge(TimeCategory::ForwardBackward, slice_cost)
                            },
                            |range, center_seg, sum_seg| match local.as_mut() {
                                Some(local) => local
                                    .elastic_exchange_segment(&rule, range, center_seg, sum_seg),
                                None => sum_seg.fill(0.0),
                            },
                        );
                    }
                }
                // --- step (5): only the tree root holds Σ W_i; the
                // others receive next round's W̄ by broadcast.
                if me == center_rank {
                    rule.center_dilution(&mut center, &weight_sum, g);
                    comm.charge(update_cat, update_cost);
                }
                if local.is_some() {
                    comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
                }
            }
            if me == center_rank && recorder.due(round) {
                let now = comm.now();
                recorder.record(round, now, proto, &center, test);
            }
        }
        let (last_loss, loss_trace) = match local {
            Some(mut l) => (l.last_loss(), l.take_loss_trace()),
            None => (f32::NAN, Vec::new()),
        };
        if me == center_rank {
            RankOutcome::Center {
                center,
                report: comm.report(),
                trace: recorder.into_points(),
                loss_trace,
            }
        } else {
            RankOutcome::Worker {
                report: Some(comm.report()),
                last_loss,
                loss_trace,
            }
        }
    });

    assemble_sim(
        variant.label(),
        proto,
        test,
        cfg.iterations,
        wall_start.elapsed().as_secs_f64(),
        outs,
    )
}

/// Sync SGD: plain data-parallel SGD with a summed-gradient exchange —
/// the Figure 10 workhorse and the "well-tuned framework" stand-in for
/// the Intel Caffe baseline. Runs directly on cluster ranks over `link`
/// (each worker owns a shard). Every round allreduces the gradient with
/// the executable tree ([`tree_allreduce_sum`]) once per message of the
/// §5.2 layout's [`CommSchedule`]: once over the whole arena when packed,
/// once per layer when per-layer, so the per-layer latency penalty is
/// paid by executed messages. Each element is folded in the same tree
/// order either way, so both layouts apply bit-identical updates.
///
/// `shards.len()` must equal `cfg.workers`. With `trace_every > 0` the
/// rank-0 worker records test accuracy on the simulated timeline.
#[allow(clippy::too_many_arguments)]
pub fn sync_sgd_sim(
    proto: &Network,
    shards: &[Dataset],
    test: &Dataset,
    cfg: &TrainConfig,
    link: &AlphaBeta,
    layout: LayoutKind,
    fwd_bwd_cost: f64,
    trace_every: usize,
) -> RunResult {
    cfg.validate();
    assert_eq!(shards.len(), cfg.workers, "one shard per worker required");
    let g = cfg.workers;
    let cluster = ClusterConfig::new(g).with_link(link.clone());
    let schedule = CommSchedule::from_network(proto, layout);
    let update_cost = 3.0 * proto.size_bytes() as f64 / 200.0e9;
    let wall_start = Instant::now();

    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        let me = comm.rank();
        let shard = &shards[me];
        let mut rng = additive_rng(cfg.seed, 1 + me as u64);
        let mut local = LocalStep::new(proto);
        let scale = cfg.eta / g as f32;
        let mut recorder = TraceRecorder::new(trace_every);
        let mut grad_sum = comm.take_buffer(local.num_params());
        for round in 0..cfg.iterations {
            let batch = shard.sample_batch(&mut rng, cfg.batch);
            local.forward_backward(&batch);
            comm.charge(TimeCategory::ForwardBackward, fwd_bwd_cost);
            // The schedule's messages, divided by 4, partition the arena
            // in order: one tree allreduce per message.
            let mut start = 0;
            for &bytes in &schedule.messages {
                let range = start..start + bytes / 4;
                start = range.end;
                grad_sum.clear();
                grad_sum.extend_from_slice(&local.grad()[range.clone()]);
                tree_allreduce_sum(comm, &mut grad_sum, TimeCategory::GpuGpuParam);
                easgd_tensor::ops::axpy(-scale, &grad_sum, &mut local.params_mut()[range]);
            }
            comm.charge(TimeCategory::GpuUpdate, update_cost);
            if me == 0 && recorder.due(round) {
                let now = comm.now();
                recorder.record(round, now, proto, local.params(), test);
            }
        }
        comm.recycle_buffer(grad_sum);
        let last_loss = local.last_loss();
        let loss_trace = local.take_loss_trace();
        if me == 0 {
            RankOutcome::Center {
                center: local.params().to_vec(),
                report: comm.report(),
                trace: recorder.into_points(),
                loss_trace,
            }
        } else {
            RankOutcome::Worker {
                report: Some(comm.report()),
                last_loss,
                loss_trace,
            }
        }
    });

    let label = match layout {
        LayoutKind::Packed => "Sync SGD (packed)",
        LayoutKind::PerLayer => "Sync SGD (per-layer)",
    };
    assemble_sim(
        label,
        proto,
        test,
        cfg.iterations,
        wall_start.elapsed().as_secs_f64(),
        outs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(71);
        let (train, test) = task.train_test(600, 200, 72);
        (lenet_tiny(73), train, test)
    }

    fn cfg(iters: usize) -> TrainConfig {
        TrainConfig {
            workers: 4,
            batch: 16,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations: iters,
            seed: 81,
            comm_period: 1,
        }
    }

    #[test]
    fn easgd1_learns_and_breaks_down_time() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = sync_easgd_sim(
            &proto,
            &train,
            &test,
            &cfg(60),
            &costs,
            SyncVariant::Easgd1,
            0,
        );
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
        let b = r.breakdown.unwrap();
        assert!(b.get(TimeCategory::CpuGpuParam) > 0.0);
        assert!(b.get(TimeCategory::CpuUpdate) > 0.0);
        assert_eq!(b.get(TimeCategory::GpuGpuParam), 0.0);
    }

    #[test]
    fn easgd2_moves_traffic_to_gpu_links() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = sync_easgd_sim(
            &proto,
            &train,
            &test,
            &cfg(20),
            &costs,
            SyncVariant::Easgd2,
            0,
        );
        let b = r.breakdown.unwrap();
        assert_eq!(b.get(TimeCategory::CpuGpuParam), 0.0);
        assert!(b.get(TimeCategory::GpuGpuParam) > 0.0);
        assert_eq!(b.get(TimeCategory::CpuUpdate), 0.0);
    }

    #[test]
    fn optimization_chain_strictly_improves() {
        // §6.1: EASGD1 → EASGD2 → EASGD3 each step is faster.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(20);
        let t1 = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd1, 0)
            .sim_seconds
            .unwrap();
        let t2 = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd2, 0)
            .sim_seconds
            .unwrap();
        let t3 = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd3, 0)
            .sim_seconds
            .unwrap();
        assert!(t1 > t2, "EASGD1 {t1} !> EASGD2 {t2}");
        assert!(t2 > t3, "EASGD2 {t2} !> EASGD3 {t3}");
    }

    #[test]
    fn easgd3_comm_ratio_is_low() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = sync_easgd_sim(
            &proto,
            &train,
            &test,
            &cfg(20),
            &costs,
            SyncVariant::Easgd3,
            0,
        );
        let ratio = r.breakdown.unwrap().comm_ratio();
        // Paper: 14%. Anything clearly compute-bound passes.
        assert!(ratio < 0.3, "comm ratio = {ratio}");
    }

    #[test]
    fn trace_records_on_simulated_timeline() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = sync_easgd_sim(
            &proto,
            &train,
            &test,
            &cfg(30),
            &costs,
            SyncVariant::Easgd3,
            10,
        );
        assert_eq!(r.trace.len(), 3);
        assert!(r.trace[0].seconds < r.trace[2].seconds);
        assert_eq!(r.trace[2].iteration, 30);
    }

    #[test]
    fn sync_sgd_packed_beats_per_layer_in_time_same_accuracy_per_iteration() {
        // Figure 10: identical heights (same updates), different time axis.
        let (proto, train, test) = setup();
        let c = cfg(40);
        let shards = train.partition(c.workers);
        let link = AlphaBeta::qdr_infiniband();
        let packed = sync_sgd_sim(
            &proto,
            &shards,
            &test,
            &c,
            &link,
            LayoutKind::Packed,
            1e-3,
            0,
        );
        let unpacked = sync_sgd_sim(
            &proto,
            &shards,
            &test,
            &c,
            &link,
            LayoutKind::PerLayer,
            1e-3,
            0,
        );
        // Same gradients, same final weights → identical accuracy.
        assert_eq!(packed.accuracy, unpacked.accuracy);
        assert!(packed.sim_seconds.unwrap() < unpacked.sim_seconds.unwrap());
    }

    #[test]
    fn executed_sync_sgd_exchange_time_matches_the_closed_form() {
        // Each round runs one tree allreduce (a reduce then a broadcast,
        // ⌈log₂P⌉ hops each) per schedule message, so a rank's exchange
        // time is at most rounds · 2⌈log₂P⌉ · Σ(α + β·bytes), and exactly
        // that at a power of two, where every hop of the critical path
        // is a full one. Checked for rank 0 (the reported breakdown) and
        // for the slowest rank (the simulated time less the compute
        // every rank charges alike).
        let (proto, train, test) = setup();
        let link = AlphaBeta::qdr_infiniband();
        let rounds = 3;
        for layout in [LayoutKind::Packed, LayoutKind::PerLayer] {
            let schedule = CommSchedule::from_network(&proto, layout);
            let per_tree = schedule.time_alpha_beta(link.alpha_s, link.beta_s_per_byte);
            for p in [2usize, 3, 4, 8] {
                let c = TrainConfig {
                    workers: p,
                    ..cfg(rounds)
                };
                let shards = train.partition(p);
                let r = sync_sgd_sim(&proto, &shards, &test, &c, &link, layout, 1e-3, 0);
                let b = r.breakdown.unwrap();
                let rank0 = b.get(TimeCategory::GpuGpuParam);
                let slowest = r.sim_seconds.unwrap() - (b.total() - rank0);
                let bound = rounds as f64 * 2.0 * p.next_power_of_two().ilog2() as f64 * per_tree;
                println!(
                    "{layout:?} P={p}: rank 0 {:.4}, slowest {:.4} of the closed form",
                    rank0 / bound,
                    slowest / bound
                );
                for (who, t) in [("rank 0", rank0), ("slowest rank", slowest)] {
                    if p.is_power_of_two() {
                        assert!(
                            (t / bound - 1.0).abs() < 0.01,
                            "{layout:?} P={p} {who}: {t} s vs closed form {bound} s"
                        );
                    } else {
                        assert!(
                            t <= bound * 1.01,
                            "{layout:?} P={p} {who}: {t} s over closed form {bound} s"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sync_sgd_learns() {
        let (proto, train, test) = setup();
        let c = cfg(80);
        let shards = train.partition(c.workers);
        let link = AlphaBeta::fdr_infiniband();
        let r = sync_sgd_sim(
            &proto,
            &shards,
            &test,
            &c,
            &link,
            LayoutKind::Packed,
            1e-3,
            0,
        );
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
    }

    #[test]
    fn executable_tree_exchange_learns() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let r = sync_easgd_sim_with(
            &proto,
            &train,
            &test,
            &cfg(60),
            &costs,
            SyncVariant::Easgd2,
            0,
            SyncExchange::ExecutableTree,
        );
        assert!(r.accuracy > 0.4, "acc = {}", r.accuracy);
        let b = r.breakdown.unwrap();
        assert!(b.get(TimeCategory::GpuGpuParam) > 0.0);
        assert_eq!(b.get(TimeCategory::CpuGpuParam), 0.0);
    }

    #[test]
    fn executed_easgd2_exchange_time_matches_the_tree_closed_form() {
        // The closed form stays as a check beside the execution: at
        // paper-scale bytes the centre's parameter-traffic seconds are
        // the binomial-tree formulas that remain in `hardware`. On a
        // power of two the running schedule is exactly ⌈log₂ g⌉ full
        // hops each way; on other counts it finishes under that bound.
        use easgd_hardware::collective::{broadcast_tree, reduce_tree};
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let rounds = 6;
        for g in [2usize, 3, 4, 5, 8] {
            let c = TrainConfig {
                workers: g,
                ..cfg(rounds)
            };
            let r = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd2, 0);
            let got = r.breakdown.unwrap().get(TimeCategory::GpuGpuParam);
            let want = rounds as f64
                * (broadcast_tree(&costs.gpu_gpu, g, costs.weight_bytes)
                    + reduce_tree(&costs.gpu_gpu, g, costs.weight_bytes));
            println!("g = {g}: executed / closed form = {:.4}", got / want);
            if g.is_power_of_two() {
                assert!((got / want - 1.0).abs() < 0.01, "g={g}: {got} vs {want}");
            } else {
                assert!(got > 0.0 && got <= want, "g={g}: {got} !<= {want}");
            }
        }
    }

    #[test]
    fn easgd3_segment_sweep_has_its_minimum_at_the_constant() {
        // Table 3's protocol (4 GPUs, 250 rounds) at paper-scale bytes:
        // the simulated seconds depend on the schedule, not on the
        // trained values, so this is the sweep EXPERIMENTS.md records
        // (`-- --nocapture` prints it).
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu().for_proxy(proto.size_bytes());
        let c = cfg(250);
        let seconds = |segments: usize| {
            sync_easgd_sim_with(
                &proto,
                &train,
                &test,
                &c,
                &costs,
                SyncVariant::Easgd3,
                0,
                SyncExchange::PipelinedTree { segments },
            )
            .sim_seconds
            .unwrap()
        };
        let sweep = [1usize, 2, 3, 4, 8, 16].map(|segments| (segments, seconds(segments)));
        for (segments, t) in sweep {
            println!("segments {segments:>2}: {t:.3} s");
        }
        let best = sweep.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(best.0, EASGD3_SEGMENTS, "{sweep:?}");
    }

    #[test]
    #[should_panic(expected = "PipelinedTree segments = 300 outside 1..=256")]
    fn bad_segment_count_fails_before_any_rank_starts() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        sync_easgd_sim_with(
            &proto,
            &train,
            &test,
            &cfg(1),
            &costs,
            SyncVariant::Easgd3,
            0,
            SyncExchange::PipelinedTree { segments: 300 },
        );
    }

    #[test]
    fn executable_easgd1_pays_the_extra_tree_hop() {
        // EASGD1's tree spans G+1 ranks (CPU root) while EASGD2's spans G
        // over an identically-priced link, so the executable EASGD1
        // exchange cannot be faster.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(15);
        let t1 = sync_easgd_sim_with(
            &proto,
            &train,
            &test,
            &c,
            &costs,
            SyncVariant::Easgd1,
            0,
            SyncExchange::ExecutableTree,
        )
        .sim_seconds
        .unwrap();
        let t2 = sync_easgd_sim_with(
            &proto,
            &train,
            &test,
            &c,
            &costs,
            SyncVariant::Easgd2,
            0,
            SyncExchange::ExecutableTree,
        )
        .sim_seconds
        .unwrap();
        assert!(t1 > t2, "EASGD1 {t1} !> EASGD2 {t2} (executable)");
    }

    #[test]
    fn pipelined_tree_is_bit_identical_to_serial_executable_tree() {
        // The pipelined exchange reorders the timeline, not the math:
        // center hash, loss trace, and accuracy must match the serial
        // executable tree bit for bit, for a segment count that divides
        // the arena unevenly.
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(40);
        for variant in [SyncVariant::Easgd3, SyncVariant::Easgd1] {
            let serial = sync_easgd_sim_with(
                &proto,
                &train,
                &test,
                &c,
                &costs,
                variant,
                0,
                SyncExchange::ExecutableTree,
            );
            let pipe = sync_easgd_sim_with(
                &proto,
                &train,
                &test,
                &c,
                &costs,
                variant,
                0,
                SyncExchange::PipelinedTree { segments: 7 },
            );
            assert_eq!(serial.center_hash, pipe.center_hash, "{variant:?}");
            assert_eq!(serial.accuracy, pipe.accuracy, "{variant:?}");
            assert_eq!(serial.loss_trace.len(), pipe.loss_trace.len());
            for (a, b) in serial.loss_trace.iter().zip(&pipe.loss_trace) {
                assert_eq!(a.to_bits(), b.to_bits(), "{variant:?}");
            }
        }
    }

    #[test]
    fn pipelined_tree_hides_exchange_time() {
        // Same schedule, same math — on a bandwidth-dominated arena the
        // pipelined round's simulated time must come in under the serial
        // executable tree's, because segment traffic hides beneath the
        // sliced compute window. (At toy-model sizes the per-segment α
        // overhead wins instead, which is why the bench runs VGG-sized.)
        let p = 8;
        let n = 1_000_000; // 4 MB: β-dominated on the GPU peer link.
        let segments = 8;
        let link = SimCosts::mnist_lenet_4gpu().gpu_gpu.clone();
        let participants: Vec<usize> = (0..p).collect();
        // A compute window comparable to the serial exchange itself.
        let compute = 6.0 * link.time(n * 4);
        let run = |pipelined: bool| {
            let cluster = ClusterConfig::new(p).with_link(link.clone());
            let times = VirtualCluster::run(&cluster, |comm: &mut Comm| {
                let center = vec![1.0f32; n];
                let mut center_t = vec![0.0f32; n];
                let mut weight_sum = vec![0.0f32; n];
                for _round in 0..2 {
                    if pipelined {
                        tree_exchange_pipelined(
                            comm,
                            &participants,
                            0,
                            &center,
                            &mut center_t,
                            &mut weight_sum,
                            TimeCategory::GpuGpuParam,
                            segments,
                            |comm: &mut Comm, _s| {
                                comm.charge(
                                    TimeCategory::ForwardBackward,
                                    compute / segments as f64,
                                )
                            },
                            |_range, center_seg, sum_seg: &mut [f32]| {
                                sum_seg.copy_from_slice(center_seg)
                            },
                        );
                    } else {
                        comm.charge(TimeCategory::ForwardBackward, compute);
                        tree_exchange_round(
                            comm,
                            &participants,
                            0,
                            &center,
                            &mut center_t,
                            &mut weight_sum,
                            TimeCategory::GpuGpuParam,
                            |center_t, weight_sum| {
                                weight_sum.resize(center_t.len(), 0.0);
                                weight_sum.copy_from_slice(center_t);
                            },
                        );
                    }
                }
                comm.now()
            });
            times.iter().cloned().fold(0.0f64, f64::max)
        };
        let serial = run(false);
        let pipe = run(true);
        assert!(pipe < serial, "pipelined {pipe} !< serial {serial}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (proto, train, test) = setup();
        let costs = SimCosts::mnist_lenet_4gpu();
        let c = cfg(15);
        let a = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd3, 0);
        let b = sync_easgd_sim(&proto, &train, &test, &c, &costs, SyncVariant::Easgd3, 0);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.center_hash, b.center_hash);
    }
}
