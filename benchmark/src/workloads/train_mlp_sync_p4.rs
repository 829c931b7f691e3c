// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! `train_mlp_sync_p4` — exchange-bound training: Sync EASGD2 over the
//! executable tree, four workers plus the data rank, hosted on the event
//! backend (one rank runs at a time, so P > cores measures the program
//! and not the OS scheduler). The fused Eq 1/2 kernel, centre dilution,
//! tree broadcast/reduce, buffer-pool traffic and the `BatchMsg` codec
//! dominate; the local step is the minority.

use super::{call_metrics, host_metrics, repeat_setup, timed_calls, CallShape, Ctx, TrainState};
use crate::gen::sub_seed;
use crate::report::Outcome;
use easgd::{sync_easgd_sim_with, RunResult, SimCosts, SyncExchange, SyncVariant, TrainConfig};
use easgd_cluster::ClusterBackend;
use easgd_data::SyntheticSpec;
use easgd_nn::models::mlp;
use easgd_nn::Network;

pub const WORKERS: usize = 4;
/// Lowered from 8 to make the exchange the larger part of a round; the
/// local step is memory-bound below this and shrinks no further
/// (README.md records the traced `core.exchange_share`).
pub const BATCH: usize = 2;
/// Rounds per trainer call — part of the workload: memory grows per
/// round on the executable tree today, so the count must not drift.
pub const ROUNDS: usize = 20;
const WARMUP_ROUNDS: usize = 2;
const N_TRAIN: usize = 2000;
const N_TEST: usize = 200;
pub const MIN_ACCURACY: f32 = 0.8;

/// `mlp(784, [1024, 1024], 10)`: 1 863 690 parameters.
pub fn model(seed: u64) -> Network {
    mlp(784, &[1024, 1024], 10, sub_seed(seed, 5))
}

pub fn config(seed: u64, workers: usize, batch: usize, iterations: usize) -> TrainConfig {
    let eta = 0.05;
    TrainConfig {
        workers,
        batch,
        eta,
        // The EASGD rule ρ = β/(η·P) with β = 0.9: the centre tracks the
        // workers closely enough to clear the accuracy check in 20 rounds.
        rho: 0.9 / (eta * workers as f32),
        mu: 0.9,
        iterations,
        seed: sub_seed(seed, 6),
        comm_period: 1,
    }
}

pub type State = TrainState<TrainConfig>;

/// The Table 3 calibration the library's own tests and benches price
/// this trainer with; it only prices simulated time.
pub fn costs() -> SimCosts {
    SimCosts::mnist_lenet_4gpu()
}

pub fn setup(seed: u64) -> State {
    let s = State::generate(
        SyntheticSpec::mnist(),
        seed,
        (N_TRAIN, N_TEST),
        model(seed),
        config(seed, WORKERS, BATCH, ROUNDS),
    );
    let warm = TrainConfig {
        iterations: WARMUP_ROUNDS,
        ..s.cfg.clone()
    };
    let _ = call(&s, &warm);
    s
}

/// One library trainer call on the event backend.
pub fn call(s: &State, cfg: &TrainConfig) -> RunResult {
    ClusterBackend::Events.with_default(|| {
        sync_easgd_sim_with(
            &s.proto,
            &s.train,
            &s.test,
            cfg,
            &costs(),
            SyncVariant::Easgd2,
            0,
            SyncExchange::ExecutableTree,
        )
    })
}

/// Checks one call: accuracy, and bit-identical `center_hash` and
/// simulated seconds against the first call of the run.
pub fn check_call(out: &mut Outcome, first: &mut Option<(u64, f64)>, r: &RunResult) {
    let sim = r.sim_seconds.unwrap_or(f64::NAN);
    let (hash0, sim0) = *first.get_or_insert((r.center_hash, sim));
    let problem = if r.accuracy < MIN_ACCURACY {
        Some(format!("accuracy {} below {MIN_ACCURACY}", r.accuracy))
    } else if r.center_hash != hash0 || sim.to_bits() != sim0.to_bits() {
        Some(format!(
            "same-seed calls differ: center_hash {:016x} vs {hash0:016x}, sim_seconds {sim} vs {sim0}",
            r.center_hash
        ))
    } else {
        None
    };
    out.check(problem);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (s, setup_s) = repeat_setup(ctx, || setup(ctx.seed));
    crate::host::print_header("train_mlp_sync_p4", ctx.seed, false, s.input_digest);
    let mut out = Outcome::default();
    let mut first = None;
    let mut last = None;
    let walls = timed_calls(ctx, || {
        let r = call(&s, &s.cfg);
        check_call(&mut out, &mut first, &r);
        last = Some(r);
    });
    if let Some(r) = last {
        println!(
            "exact-repeat: center_hash {:016x} sim_seconds {} final_loss {} test_accuracy {}",
            r.center_hash,
            r.sim_seconds.unwrap_or(f64::NAN),
            r.final_loss,
            r.accuracy
        );
    }
    call_metrics(
        &mut out,
        &CallShape {
            lanes: WORKERS,
            iters: ROUNDS,
            batch: BATCH,
        },
        &walls,
    );
    host_metrics(&mut out, setup_s);
    out
}
