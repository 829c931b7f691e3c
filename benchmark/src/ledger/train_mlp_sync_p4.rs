// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Traced pass of `train_mlp_sync_p4`: the rank program of
//! `sync_easgd_sim_with(Easgd2, ExecutableTree)` re-hosted under
//! `VirtualCluster::run` from the public pieces the trainer uses —
//! `Dataset::sample_batch`, `BatchMsg::encode_into`/`decode_into`,
//! `LocalStep::forward_backward_flat`, `tree_exchange_round` with
//! `LocalStep::elastic_exchange_against` as the contribute closure,
//! `ElasticRule::center_dilution`, `assemble_sim` — and required to
//! reproduce the library call's `center_hash` and simulated seconds bit
//! for bit.
//!
//! The event backend runs one rank at a time, so a rank's compute spans
//! are disjoint across ranks while its communication spans also cover
//! the time it sat parked; see [`super::timeline`] for how the two are
//! told apart.

use super::timeline::{overlap_ns, union_minus_ns, Interval};
use super::{overhead_gate, probes, write_trace, ROUND_CLOSURE_GATE};
use crate::report::Outcome;
use crate::trace::{Lane, Trace};
use crate::workloads::train_mlp_sync_p4::{
    call, check_call, costs, setup, State, BATCH, ROUNDS, WORKERS,
};
use crate::workloads::Ctx;
use easgd::engine::{additive_rng, assemble_sim, RankOutcome};
use easgd::sync::tree_exchange_round;
use easgd::{ElasticRule, LocalStep, RunResult};
use easgd_cluster::{
    tags, BatchMsg, ClusterBackend, ClusterConfig, PoolStats, TimeCategory, TraceOp, VirtualCluster,
};
use std::time::Instant;

/// Spans that never block: while one is open its rank holds the token.
const COMPUTE: [&str; 7] = [
    "core.replica_new",
    "data.sample_batch",
    "cluster.codec.encode",
    "cluster.codec.decode",
    "core.local_step",
    "tensor.elastic_exchange",
    "core.update",
];
/// Calls into the communicator; they may park the rank.
const COMM: [&str; 3] = ["cluster.send", "cluster.recv", "cluster.tree_exchange"];

struct RankLog {
    lane: Lane,
    /// Cluster-wide pool counters at the end of each round (centre rank).
    pool_rounds: Vec<PoolStats>,
    /// Messages this rank posted (`Comm` trace shim).
    sends: usize,
}

struct Replayed {
    result: RunResult,
    logs: Vec<RankLog>,
    wall_s: f64,
}

/// One hosted trainer call.
fn replay(s: &State, epoch: Instant, call_no: u64) -> Replayed {
    let cfg = &s.cfg;
    let (proto, train, costs) = (&s.proto, &s.train, &costs());
    let g = cfg.workers;
    let cluster = ClusterConfig::new(g + 1)
        .with_link(costs.gpu_gpu.clone())
        .with_backend(ClusterBackend::Events);
    let participants: Vec<usize> = (1..=g).collect();
    let rule = ElasticRule::from_config(cfg);
    let center_rank = 1;
    let wall_start = Instant::now();
    let outs = VirtualCluster::run(&cluster, |comm| {
        let me = comm.rank();
        let mut lane = Lane::new(format!("call{call_no}.rank{me}"), epoch, 16 * ROUNDS + 16);
        comm.trace_start();
        let id = lane.enter("core.replica_new", call_no);
        let mut rng = additive_rng(cfg.seed, me as u64);
        let mut center = proto.params().as_slice().to_vec();
        let n = center.len();
        let mut local = (me != 0).then(|| LocalStep::new(proto));
        let mut center_t = vec![0.0f32; n];
        let mut weight_sum = vec![0.0f32; n];
        let mut payload = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        lane.exit(id);
        let is_participant = participants.contains(&me);
        let mut pool_rounds = Vec::new();
        for round in 0..cfg.iterations {
            let op = call_no * ROUNDS as u64 + round as u64;
            match local.as_mut() {
                None => {
                    for j in 1..=g {
                        let batch = lane.span("data.sample_batch", op, || {
                            train.sample_batch(&mut rng, cfg.batch)
                        });
                        let pixels = batch.images.as_slice();
                        let id = lane.enter("cluster.codec.encode", op);
                        let mut buf = comm.take_buffer(3 + batch.labels.len() + pixels.len());
                        BatchMsg::encode_into(pixels, &batch.labels, &mut buf);
                        lane.exit(id);
                        let cost = if j == 1 { costs.data_time() } else { 0.0 };
                        let id = lane.enter("cluster.send", op);
                        comm.send_from_costed(
                            j,
                            tags::SYNC_DATA,
                            buf,
                            cost,
                            TimeCategory::CpuGpuData,
                        );
                        lane.exit(id);
                    }
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                }
                Some(local) => {
                    let id = lane.enter("cluster.recv", op);
                    comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut payload);
                    lane.exit(id);
                    let id = lane.enter("cluster.codec.decode", op);
                    let pixels = match BatchMsg::decode_into(&payload, cfg.batch, &mut labels) {
                        Ok(x) => x,
                        Err(e) => panic!("batch codec (rank {me}): {e}"),
                    };
                    lane.exit(id);
                    lane.span("core.local_step", op, || {
                        local.forward_backward_flat(cfg.batch, pixels, &labels)
                    });
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                }
            }
            if is_participant {
                let id = lane.enter("cluster.tree_exchange", op);
                let local = &mut local;
                let lane_ref = &mut lane;
                tree_exchange_round(
                    comm,
                    &participants,
                    center_rank,
                    &center,
                    &mut center_t,
                    &mut weight_sum,
                    TimeCategory::GpuGpuParam,
                    |center_t, weight_sum| match local.as_mut() {
                        Some(local) => lane_ref.span("tensor.elastic_exchange", op, || {
                            local.elastic_exchange_against(&rule, center_t, weight_sum)
                        }),
                        None => weight_sum.fill(0.0),
                    },
                );
                lane.exit(id);
                if me == center_rank {
                    lane.span("core.update", op, || {
                        rule.center_dilution(&mut center, &weight_sum, g)
                    });
                    comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
                }
                if local.is_some() {
                    comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
                }
                if me == center_rank {
                    pool_rounds.push(comm.pool_stats());
                }
            }
        }
        let sends = comm
            .trace_take()
            .iter()
            .filter(|op| matches!(op, TraceOp::Send { .. } | TraceOp::Isend { .. }))
            .count();
        let (last_loss, loss_trace) = match local {
            Some(mut l) => (l.last_loss(), l.take_loss_trace()),
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
        (
            outcome,
            RankLog {
                lane,
                pool_rounds,
                sends,
            },
        )
    });
    let (outcomes, mut logs): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    // The caller's thread is idle while the ranks run, so its one span
    // goes on rank 0's lane after the fact.
    let id = logs[0].lane.enter("core.assemble", call_no);
    let result = assemble_sim(
        "Sync EASGD2",
        proto,
        &s.test,
        cfg.iterations,
        wall_start.elapsed().as_secs_f64(),
        outcomes,
    );
    logs[0].lane.exit(id);
    Replayed {
        result,
        logs,
        wall_s: wall_start.elapsed().as_secs_f64(),
    }
}

fn intervals(trace: &Trace, names: &[&str]) -> Vec<Interval> {
    trace
        .lanes
        .iter()
        .flat_map(|l| l.spans())
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start_ns, s.end_ns))
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let s = setup(ctx.seed);
    crate::host::print_header("train_mlp_sync_p4", ctx.seed, true, s.input_digest);
    let mut out = Outcome::default();
    let n = s.proto.num_params();
    let kernels = probes::update_kernels(n);
    out.set("tensor.gemm_mlp_gflops", probes::gemm_mlp_gflops(BATCH));
    out.set(
        "tensor.elastic_exchange_melem_per_s",
        kernels.elastic_exchange,
    );
    out.set(
        "tensor.center_dilution_melem_per_s",
        kernels.center_dilution,
    );
    out.set("data.generate_s", s.generate_s);

    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut first = None;
    let mut last: Option<(RunResult, Vec<PoolStats>)> = None;
    let mut sends = 0usize;
    // The whole traced run, probes included, fits the window.
    while pairs.len() < 2 || ctx.start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let lib = call(&s, &s.cfg);
        let lib_s = t.elapsed().as_secs_f64();
        check_call(&mut out, &mut first, &lib);

        let r = replay(&s, epoch, pairs.len() as u64);
        pairs.push((lib_s, r.wall_s));
        let same = r.result.center_hash == lib.center_hash
            && r.result.sim_seconds.map(f64::to_bits) == lib.sim_seconds.map(f64::to_bits);
        if !same {
            out.fail(format!(
                "replay diverged from sync_easgd_sim_with: center_hash {:016x} vs {:016x}, sim_seconds {:?} vs {:?}",
                r.result.center_hash, lib.center_hash, r.result.sim_seconds, lib.sim_seconds
            ));
        }
        let mut pool_rounds = Vec::new();
        for log in r.logs {
            sends += log.sends;
            if !log.pool_rounds.is_empty() {
                pool_rounds = log.pool_rounds;
            }
            trace.push(log.lane);
        }
        last = Some((r.result, pool_rounds));
    }
    let Some((result, pool_rounds)) = last else {
        unreachable!("at least two calls ran");
    };

    let calls = pairs.len();
    let rounds = (calls * ROUNDS) as f64;
    let per_round_ms = |ns: f64| ns / rounds / 1e6;
    let compute = intervals(&trace, &COMPUTE);
    let comm = intervals(&trace, &COMM);
    let overlap = overlap_ns(&compute);
    if overlap > 0 {
        out.fail(format!(
            "compute spans of different ranks overlap by {overlap} ns: more than one rank ran at a time"
        ));
    }
    // Host time inside the communicator with no kernel running.
    let comm_ms = per_round_ms(union_minus_ns(&comm, &compute) as f64);
    let local_step_ms = per_round_ms(trace.total_ns("core.local_step"));
    let update_ms = per_round_ms(trace.total_ns("core.update"));
    let kernel_ms = per_round_ms(trace.total_ns("tensor.elastic_exchange"));
    let codec_ns = trace.total_ns("cluster.codec.encode") + trace.total_ns("cluster.codec.decode");
    let data_ms = per_round_ms(trace.total_ns("data.sample_batch"));
    let setup_ms =
        per_round_ms(trace.total_ns("core.replica_new") + trace.total_ns("core.assemble"));
    // The exchange path: the fused Eq 1/2 kernel, the tree's messages and
    // pool traffic, and the batch codec.
    let exchange_ms = kernel_ms + comm_ms + per_round_ms(codec_ns);
    let round_ms = pairs.iter().map(|p| p.1).sum::<f64>() * 1e3 / rounds;
    let parts = local_step_ms + exchange_ms + update_ms + data_ms + setup_ms;
    let closure = (parts - round_ms).abs() / round_ms;
    // Share of the round proper: replicas are built and the centre is
    // evaluated once per call, outside any round.
    let exchange_share = (exchange_ms + update_ms) / (parts - setup_ms);
    println!(
        "round {round_ms:.3} ms = local_step {local_step_ms:.3} + exchange {exchange_ms:.3} (kernel {kernel_ms:.3}, comm {comm_ms:.3}, codec {:.3}) + update {update_ms:.3} + batches {data_ms:.3} + per-call replicas and evaluation {setup_ms:.3}; uncovered {:.3}",
        per_round_ms(codec_ns),
        round_ms - parts
    );
    out.set("core.local_step_ms", local_step_ms);
    out.set("core.exchange_ms", exchange_ms);
    out.set("core.update_ms", update_ms);
    out.set("core.exchange_share", exchange_share);
    out.set("core.round_closure_err", closure);
    out.set("cluster.comm_ms", comm_ms);
    out.set(
        "data.batch_us",
        trace.total_ns("data.sample_batch") / trace.count("data.sample_batch") as f64 / 1e3,
    );
    out.set("data.wait_share", data_ms / round_ms);
    // Each batch message crosses the codec twice: 3 header floats, the
    // labels and the pixels, 4 bytes each.
    let msg_bytes = 4 * (3 + BATCH + BATCH * 784);
    out.set(
        "cluster.codec_mb_per_s",
        (2 * msg_bytes * WORKERS) as f64 * rounds / (codec_ns / 1e9) / 1e6,
    );
    out.set("cluster.collective_calls_per_round", sends as f64 / rounds);
    if pool_rounds.len() >= 3 {
        let steady = pool_rounds[pool_rounds.len() - 1].since(&pool_rounds[1]);
        let span = (pool_rounds.len() - 2) as f64;
        let takes = steady.fresh + steady.grown + steady.reused;
        out.set(
            "cluster.bytes_copied_per_round",
            steady.bytes_copied as f64 / span,
        );
        // Fresh buffers plus regrown ones: a recycled batch buffer grown
        // to hold a parameter message is a new allocation of that size,
        // and is where the executable tree's memory growth shows.
        out.set(
            "cluster.pool_fresh_per_round",
            steady.allocations() as f64 / span,
        );
        out.set(
            "cluster.pool_reuse_share",
            if takes == 0 {
                1.0
            } else {
                steady.reused as f64 / takes as f64
            },
        );
    }
    let sim_s = result.sim_seconds.unwrap_or(f64::NAN);
    out.set("core.sim_s_per_round", sim_s / ROUNDS as f64);
    out.set(
        "core.sim_comm_ratio",
        result.breakdown.as_ref().map_or(0.0, |b| b.comm_ratio()),
    );
    out.set("core.final_accuracy", f64::from(result.accuracy));
    out.set("core.final_loss", f64::from(result.final_loss));
    out.set(
        "core.center_hash48",
        (result.center_hash & 0xFFFF_FFFF_FFFF) as f64,
    );
    if closure > ROUND_CLOSURE_GATE {
        out.fail(format!(
            "core.round_closure_err {closure:.4} above {ROUND_CLOSURE_GATE}"
        ));
    }
    overhead_gate(&mut out, &pairs);
    write_trace(&mut out, &trace, "train_mlp_sync_p4");
    out
}
