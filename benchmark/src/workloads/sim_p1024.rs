// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! `sim_p1024` — simulator throughput: 1024 ranks on the event backend,
//! each round one `charge(ForwardBackward)` and one executable
//! `tree_allreduce_sum` over 256 floats on the calibrated KNL link.
//! Rank spawn, park/signal hand-offs and the `(time, rank)` run queue do
//! all the work; `nn` and `tensor` do none.
//!
//! Simulated seconds are what the modelled cluster would take; every
//! rate here is per second of *host* time.

use super::{call_metrics, host_metrics, repeat_setup, timed_calls, CallShape, Ctx};
use crate::gen::{sub_seed, Digest, Prng};
use crate::report::Outcome;
use easgd::weak_scaling::knl_mpi_effective_link;
use easgd_cluster::collectives::tree_allreduce_sum;
use easgd_cluster::{ClusterBackend, ClusterConfig, TimeCategory, VirtualCluster};
use easgd_hardware::collective::{broadcast_tree, reduce_tree};

pub const RANKS: usize = 1024;
pub const ROUNDS: usize = 32;
/// Floats each rank contributes to the allreduce.
pub const PAYLOAD: usize = 256;
/// Ranks only charge clocks and run one shallow collective; a slim
/// stack keeps a thousand fibers cheap to map (as `bench --bin cluster`).
const STACK_BYTES: usize = 512 * 1024;
/// The warm-up is one round at full width: it maps the thousand fiber
/// stacks the measured calls reuse, and it makes set-up long enough
/// (tens of ms) that `setup_s` is not the noise of a few thread spawns.
const WARMUP_ROUNDS: usize = 1;

pub struct State {
    /// Seeded compute seconds charged in each round (same on every
    /// rank, so the α-β closed form below is exact).
    pub compute_s: Vec<f64>,
    pub input_digest: u64,
}

pub fn setup(seed: u64) -> State {
    let mut rng = Prng::new(sub_seed(seed, 7));
    let compute_s: Vec<f64> = (0..2 * ROUNDS)
        .map(|_| 0.05 + 0.1 * rng.uniform())
        .collect();
    let mut digest = Digest::default();
    digest.f64s(&compute_s);
    let s = State {
        compute_s,
        input_digest: digest.finish(),
    };
    let _ = simulate(&s, RANKS, WARMUP_ROUNDS);
    s
}

/// What one `VirtualCluster::run` produced.
pub struct SimRun {
    /// Simulated seconds (the slowest rank's clock).
    pub sim_s: f64,
    /// Rank-rounds whose allreduce did not equal P(P−1)/2.
    pub wrong: usize,
}

/// `ranks` event-hosted ranks on the calibrated KNL link.
pub fn cluster_config(ranks: usize) -> ClusterConfig {
    ClusterConfig::new(ranks)
        .with_link(knl_mpi_effective_link())
        .with_backend(ClusterBackend::Events)
        .with_event_stack(STACK_BYTES)
}

/// One simulator call: `ranks` ranks, `rounds` rounds.
pub fn simulate(s: &State, ranks: usize, rounds: usize) -> SimRun {
    let want = (ranks * (ranks - 1) / 2) as f32;
    let outs = VirtualCluster::run(&cluster_config(ranks), |comm| {
        let mut data = Vec::with_capacity(PAYLOAD);
        let mut wrong = 0usize;
        for &compute in &s.compute_s[..rounds] {
            comm.charge(TimeCategory::ForwardBackward, compute);
            data.clear();
            data.resize(PAYLOAD, comm.rank() as f32);
            tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam);
            wrong += usize::from(data.iter().any(|&v| v != want));
        }
        (comm.now(), wrong)
    });
    SimRun {
        sim_s: outs.iter().fold(0.0f64, |a, o| a.max(o.0)),
        wrong: outs.iter().map(|o| o.1).sum(),
    }
}

/// The `hardware` crate's α-β closed form for the same schedule: each
/// round is its compute charge plus one tree reduce and one tree
/// broadcast of the payload.
pub fn closed_form_s(s: &State, ranks: usize, rounds: usize) -> f64 {
    let link = knl_mpi_effective_link();
    let bytes = PAYLOAD * 4;
    let allreduce = reduce_tree(&link, ranks, bytes) + broadcast_tree(&link, ranks, bytes);
    s.compute_s[..rounds].iter().map(|c| c + allreduce).sum()
}

/// Checks one call: every rank's sum right every round, and simulated
/// time equal to the closed form within 1e-9 relative.
pub fn check_run(out: &mut Outcome, s: &State, ranks: usize, rounds: usize, r: &SimRun) -> f64 {
    let model = closed_form_s(s, ranks, rounds);
    let rel = ((r.sim_s - model) / model).abs();
    out.check(if r.wrong > 0 {
        Some(format!(
            "{} rank-rounds with a wrong allreduce sum",
            r.wrong
        ))
    } else if rel > 1e-9 {
        Some(format!(
            "simulated {} s vs closed form {model} s (relative {rel:e})",
            r.sim_s
        ))
    } else {
        None
    });
    rel
}

pub fn run(ctx: &Ctx) -> Outcome {
    let _awake = crate::host::KeepAwake::start();
    let (s, setup_s) = repeat_setup(ctx, || setup(ctx.seed));
    crate::host::print_header("sim_p1024", ctx.seed, false, s.input_digest);
    let mut out = Outcome::default();
    // A smoke run only has to reach every check, not the full length.
    let rounds = if ctx.smoke { ROUNDS / 8 } else { ROUNDS };
    let mut sim_s = 0.0;
    let walls = timed_calls(ctx, || {
        let r = simulate(&s, RANKS, rounds);
        check_run(&mut out, &s, RANKS, rounds, &r);
        sim_s = r.sim_s;
    });
    println!("exact-repeat: sim_seconds {sim_s}");
    call_metrics(
        &mut out,
        &CallShape {
            lanes: RANKS,
            iters: rounds,
            batch: 1,
        },
        &walls,
    );
    host_metrics(&mut out, setup_s);
    out
}
