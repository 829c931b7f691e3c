// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Traced pass of `sim_p1024`. The rank program is the workload's own
//! closure, so the trace adds one span per rank-round; the per-layer
//! numbers come from differencing whole calls at R rounds and at none,
//! which separates the per-rank spawn cost from the per rank-round
//! hand-off cost without looking inside the library. (Differencing R
//! against 2R, and 256 against 1024 ranks, was tried first: on a host
//! whose thread wake-up latency moves by a factor between minutes, the
//! doubled noise of those differences drowned the spawn cost, and the
//! hand-off cost is not the same at 256 ranks as at 1024.)

use super::{overhead_gate, write_trace};
use crate::report::Outcome;
use crate::stats::{linear_fit, median};
use crate::trace::{Lane, Trace};
use crate::workloads::sim_p1024::{
    check_run, cluster_config, setup, simulate, SimRun, State, PAYLOAD, RANKS, ROUNDS,
};
use crate::workloads::Ctx;
use easgd_cluster::collectives::tree_allreduce_sum;
use easgd_cluster::{tags, ClusterBackend, ClusterConfig, TimeCategory, VirtualCluster};
use std::cell::Cell;
use std::time::Instant;

const SMALL_RANKS: usize = 256;
/// Rounds of the short calls that alternate untraced and traced: long
/// enough that spawn does not dominate, short enough for several pairs.
const PAIR_ROUNDS: usize = 8;
/// Seconds the fixed part of this pass takes on the sizing host; the
/// rest of the window goes to untraced/traced pairs.
const FIXED_PART_S: f64 = 3.0;

/// What a rank of the traced program adds to [`simulate`]'s.
enum Extra {
    /// One `cluster.tree_allreduce` span per round.
    Spans(Instant, u64),
    /// The rank's voluntary context switches, read once at its end (a
    /// `/proc` read costs about one rank-round, so it gets a call of
    /// its own, outside the overhead pairs).
    Switches,
}

/// [`simulate`] at `RANKS` × `rounds` with `extra` on every rank.
fn simulate_with(s: &State, rounds: usize, extra: &Extra) -> (SimRun, Vec<Lane>, u64) {
    let want = (RANKS * (RANKS - 1) / 2) as f32;
    let outs = VirtualCluster::run(&cluster_config(RANKS), |comm| {
        let mut lane = match extra {
            Extra::Spans(epoch, call) => Some((
                Lane::new(format!("call{call}.rank{}", comm.rank()), *epoch, rounds),
                call * rounds as u64,
            )),
            Extra::Switches => None,
        };
        let mut data = Vec::with_capacity(PAYLOAD);
        let mut wrong = 0usize;
        for (round, &compute) in s.compute_s[..rounds].iter().enumerate() {
            comm.charge(TimeCategory::ForwardBackward, compute);
            data.clear();
            data.resize(PAYLOAD, comm.rank() as f32);
            match lane.as_mut() {
                Some((lane, op0)) => {
                    lane.span("cluster.tree_allreduce", *op0 + round as u64, || {
                        tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam)
                    })
                }
                None => tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam),
            }
            wrong += usize::from(data.iter().any(|&v| v != want));
        }
        let switches = match extra {
            Extra::Switches => crate::host::thread_voluntary_switches().unwrap_or(0),
            Extra::Spans(..) => 0,
        };
        (comm.now(), wrong, lane.map(|l| l.0), switches)
    });
    let run = SimRun {
        sim_s: outs.iter().fold(0.0f64, |a, o| a.max(o.0)),
        wrong: outs.iter().map(|o| o.1).sum(),
    };
    let switches = outs.iter().map(|o| o.3).sum();
    (
        run,
        outs.into_iter().filter_map(|o| o.2).collect(),
        switches,
    )
}

/// Wall microseconds of one 256-float round trip between two ranks on
/// the thread backend.
fn pingpong_us() -> f64 {
    const TRIPS: usize = 2000;
    let cfg = ClusterConfig::new(2).with_backend(ClusterBackend::Threads);
    let per_trip = VirtualCluster::run(&cfg, |comm| {
        let data = vec![1.0f32; PAYLOAD];
        let mut back = Vec::new();
        let peer = 1 - comm.rank();
        let t = Instant::now();
        for _ in 0..TRIPS {
            if comm.rank() == 0 {
                comm.send(peer, tags::SYNC_DATA, &data, TimeCategory::Other);
                comm.recv_into(peer, tags::SYNC_DATA, TimeCategory::Other, &mut back);
            } else {
                comm.recv_into(peer, tags::SYNC_DATA, TimeCategory::Other, &mut back);
                comm.send(peer, tags::SYNC_DATA, &data, TimeCategory::Other);
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / TRIPS as f64
    });
    per_trip[0]
}

pub fn run(ctx: &Ctx) -> Outcome {
    let _awake = crate::host::KeepAwake::start();
    let s = setup(ctx.seed);
    crate::host::print_header("sim_p1024", ctx.seed, true, s.input_digest);
    let mut out = Outcome::default();
    // Largest relative gap between simulated time and the closed form.
    let max_rel = Cell::new(0.0f64);
    let checked = |out: &mut Outcome, ranks: usize, rounds: usize, r: &SimRun| {
        max_rel.set(max_rel.get().max(check_run(out, &s, ranks, rounds, r)));
    };
    let timed = |out: &mut Outcome, ranks: usize, rounds: usize| {
        let t = Instant::now();
        let r = simulate(&s, ranks, rounds);
        let wall = t.elapsed().as_secs_f64();
        // A call of no rounds simulates nothing to check.
        if rounds > 0 {
            checked(out, ranks, rounds, &r);
        }
        (wall, r)
    };

    // Accuracy guard: one allreduce at P = 2 … 1024 must cost a + b·log₂P.
    let (mut log2p, mut allreduce_s) = (Vec::new(), Vec::new());
    for k in 1..=10 {
        let (_, r) = timed(&mut out, 1 << k, 1);
        log2p.push(k as f64);
        allreduce_s.push(r.sim_s - s.compute_s[0]);
    }
    out.set("hardware.tree_fit_r2", linear_fit(&log2p, &allreduce_s).2);
    out.set("cluster.pingpong_us", pingpong_us());

    // wall(P, R) = spawn·P + hand_off·P·R: a call of no rounds is the
    // spawn and join of P ranks and nothing else.
    let spawn_of =
        |out: &mut Outcome, ranks: usize| median(&[0, 1, 2].map(|_| timed(out, ranks, 0).0));
    let small_spawn = spawn_of(&mut out, SMALL_RANKS);
    let (small_r, _) = timed(&mut out, SMALL_RANKS, ROUNDS);
    let big_spawn = spawn_of(&mut out, RANKS);
    let (big_a, run) = timed(&mut out, RANKS, ROUNDS);
    let (big_b, _) = timed(&mut out, RANKS, ROUNDS);
    let big_r = median(&[big_a, big_b]);
    let per_rank_round_us =
        |wall: f64, spawn: f64, p: usize| (wall - spawn) * 1e6 / (p * ROUNDS) as f64;
    println!(
        "P{RANKS}: spawn {big_spawn:.4} s, R{ROUNDS} {big_r:.4} s; P{SMALL_RANKS}: spawn {small_spawn:.4} s, R{ROUNDS} {small_r:.4} s -> {:.2} us per rank-round, {:.1} us per rank spawned",
        per_rank_round_us(small_r, small_spawn, SMALL_RANKS),
        small_spawn * 1e6 / SMALL_RANKS as f64
    );
    out.set(
        "cluster.host_us_per_rank_round",
        per_rank_round_us(big_r, big_spawn, RANKS),
    );
    out.set("cluster.spawn_us_per_rank", big_spawn * 1e6 / RANKS as f64);
    out.set("cluster.sim_s_per_round", run.sim_s / ROUNDS as f64);
    out.set(
        "cluster.sim_efficiency",
        s.compute_s[..ROUNDS].iter().sum::<f64>() / run.sim_s,
    );

    let (r, _, switches) = simulate_with(&s, PAIR_ROUNDS, &Extra::Switches);
    checked(&mut out, RANKS, PAIR_ROUNDS, &r);
    out.set(
        "cluster.ctx_switches_per_rank_round",
        switches as f64 / (RANKS * PAIR_ROUNDS) as f64,
    );

    // Untraced and traced short calls alternate for the overhead.
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut pairs = Vec::new();
    while pairs.len() < 3 || epoch.elapsed().as_secs_f64() < ctx.seconds - FIXED_PART_S {
        let (untraced_s, _) = timed(&mut out, RANKS, PAIR_ROUNDS);
        let t = Instant::now();
        let (r, lanes, _) =
            simulate_with(&s, PAIR_ROUNDS, &Extra::Spans(epoch, pairs.len() as u64));
        pairs.push((untraced_s, t.elapsed().as_secs_f64()));
        checked(&mut out, RANKS, PAIR_ROUNDS, &r);
        // Keep the spans of the last traced call only: 8192 per call.
        trace = Trace::default();
        for lane in lanes {
            trace.push(lane);
        }
    }
    out.set("hardware.model_max_rel_delta", max_rel.get());
    overhead_gate(&mut out, &pairs);
    write_trace(&mut out, &trace, "sim_p1024");
    out
}
