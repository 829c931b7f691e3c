// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! The five workloads and what they share: repeated set-up, timed
//! calls, and the end-to-end metric definitions of the call-based
//! workloads.

pub mod serve_lenet;
pub mod sim_p1024;
pub mod train_mlp_measgd_t2;
pub mod train_mlp_sync_p4;
pub mod train_vgg_p1;

use crate::gen::{task_data, Digest};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use easgd_data::{Dataset, SyntheticSpec};
use easgd_nn::Network;
use std::time::Instant;

/// What the command line fixed for this run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// When the process started: `setup_s` counts from here.
    pub start: Instant,
    /// `--smoke`: one set-up, one call, checks only.
    pub smoke: bool,
}

/// What a training workload sets up: generated data, the model every
/// call starts from, and the trainer's configuration.
pub struct TrainState<C> {
    pub proto: Network,
    pub train: Dataset,
    pub test: Dataset,
    pub cfg: C,
    /// Digest of the data and the initial parameters.
    pub input_digest: u64,
    /// Seconds `easgd-data` took to generate the two sets.
    pub generate_s: f64,
}

impl<C> TrainState<C> {
    /// Generates `n_train` + `n_test` samples of `spec` from `seed`.
    pub fn generate(
        spec: SyntheticSpec,
        seed: u64,
        (n_train, n_test): (usize, usize),
        proto: Network,
        cfg: C,
    ) -> Self {
        let t = Instant::now();
        let (train, test) = task_data(spec, seed, n_train, n_test);
        let generate_s = t.elapsed().as_secs_f64();
        let mut digest = Digest::default();
        digest.dataset(&train);
        digest.dataset(&test);
        digest.f32s(proto.params().as_slice());
        Self {
            proto,
            train,
            test,
            cfg,
            input_digest: digest.finish(),
            generate_s,
        }
    }
}

/// How often a run sets up. The first set-up is timed from process
/// start (it also pays the thread-pool spawn and first-touch page
/// faults); `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Sets up [`SETUP_REPS`] times, dropping each state before building the
/// next so the peak resident set holds one copy, and returns the last
/// state with the median set-up time in seconds.
pub fn repeat_setup<S>(ctx: &Ctx, mut setup: impl FnMut() -> S) -> (S, f64) {
    let reps = if ctx.smoke { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for rep in 0..reps {
        drop(state.take());
        let from = if rep == 0 { ctx.start } else { Instant::now() };
        state = Some(setup());
        times.push(from.elapsed().as_secs_f64());
    }
    println!("setup_s {} s", Summary::of(&times));
    let Some(state) = state else {
        unreachable!("SETUP_REPS > 0");
    };
    (state, median(&times))
}

/// Calls `call()` back to back until `ctx.seconds` have passed (at
/// least twice; once under `--smoke`), and returns each call's wall
/// seconds.
pub fn timed_calls(ctx: &Ctx, mut call: impl FnMut()) -> Vec<f64> {
    let window = Instant::now();
    let min_calls = if ctx.smoke { 1 } else { 2 };
    let mut walls = Vec::new();
    while walls.len() < min_calls || window.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        call();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// The shape of one call of a call-based workload: `lanes` workers (or
/// simulated ranks) each doing `iters` iterations (steps, rounds) that
/// each consume `batch` work items (samples; one contribution per rank
/// for the simulator).
pub struct CallShape {
    pub lanes: usize,
    pub iters: usize,
    pub batch: usize,
}

/// End-to-end metrics of a call-based workload from its per-call wall
/// times. Every one is a function of the *median* call (a mean would
/// let one stalled call move the number): work per second of the median
/// call, and the median call divided by its iterations.
///
/// `BENCHMARK.json` makes every workload print every end-to-end metric,
/// so the latency names — native to `serve_lenet` — report the median
/// time of one iteration here, and `saturated_rps` the iterations per
/// second (a trainer call runs flat out by construction). README.md has
/// the full table.
pub fn call_metrics(out: &mut Outcome, shape: &CallShape, walls: &[f64]) {
    let per_iter_ms: Vec<f64> = walls.iter().map(|w| w * 1e3 / shape.iters as f64).collect();
    println!("call_s {}", Summary::of(walls));
    println!("round_ms {}", Summary::of(&per_iter_ms));
    let call_s = median(walls);
    let round_ms = median(&per_iter_ms);
    out.set(
        "samples_per_s",
        (shape.lanes * shape.iters * shape.batch) as f64 / call_s,
    );
    out.set("round_ms_p50", round_ms);
    out.set(
        "rank_rounds_per_s",
        (shape.lanes * shape.iters) as f64 / call_s,
    );
    out.set("latency_p50_us", round_ms * 1e3);
    out.set("latency_p99_us", round_ms * 1e3);
    out.set("idle_latency_p50_us", round_ms * 1e3);
    out.set("saturated_rps", shape.iters as f64 / call_s);
}

/// Set-up time and peak memory, common to every workload.
pub fn host_metrics(out: &mut Outcome, setup_s: f64) {
    out.set("setup_s", setup_s);
    // `check_build` refused to start if `/proc` could not be read.
    out.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb().expect("VmHWM was readable when the run started"),
    );
}
