// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! `train_mlp_measgd_t2` — the same MLP and data as `train_mlp_sync_p4`
//! used differently: `async_measgd` on two real OS threads, the
//! momentum-elastic Eq 5/6 kernel instead of the fused exchange, a
//! mutex-held centre instead of tree collectives. A gain for the sync
//! workload that costs this one shows here.

use super::train_mlp_sync_p4::{config, model, MIN_ACCURACY};
use super::{call_metrics, host_metrics, repeat_setup, timed_calls, CallShape, Ctx, TrainState};
use crate::report::Outcome;
use easgd::{async_measgd, RunResult, TrainConfig};
use easgd_data::SyntheticSpec;

pub const THREADS: usize = 2;
pub const BATCH: usize = 8;
/// Iterations per worker per trainer call.
pub const ITERS: usize = 40;
const WARMUP_ITERS: usize = 4;
const N_TRAIN: usize = 2000;
const N_TEST: usize = 200;

pub type State = TrainState<TrainConfig>;

pub fn setup(seed: u64) -> State {
    let s = State::generate(
        SyntheticSpec::mnist(),
        seed,
        (N_TRAIN, N_TEST),
        model(seed),
        config(seed, THREADS, BATCH, ITERS),
    );
    let warm = TrainConfig {
        iterations: WARMUP_ITERS,
        ..s.cfg.clone()
    };
    let _ = async_measgd(&s.proto, &s.train, &s.test, &warm);
    s
}

/// Two threads race for the centre, so nothing repeats bit for bit; the
/// check is that training works: finite loss, accuracy above the bar.
pub fn check_call(out: &mut Outcome, r: &RunResult) {
    out.check(
        (!(r.final_loss.is_finite() && r.accuracy >= MIN_ACCURACY)).then(|| {
            format!(
                "async_measgd: loss {} accuracy {} (need finite, >= {MIN_ACCURACY})",
                r.final_loss, r.accuracy
            )
        }),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (s, setup_s) = repeat_setup(ctx, || setup(ctx.seed));
    crate::host::print_header("train_mlp_measgd_t2", ctx.seed, false, s.input_digest);
    let mut out = Outcome::default();
    let mut accuracies = Vec::new();
    let walls = timed_calls(ctx, || {
        let r = async_measgd(&s.proto, &s.train, &s.test, &s.cfg);
        check_call(&mut out, &r);
        accuracies.push(f64::from(r.accuracy));
    });
    println!("test_accuracy {}", crate::stats::Summary::of(&accuracies));
    call_metrics(
        &mut out,
        &CallShape {
            lanes: THREADS,
            iters: ITERS,
            batch: BATCH,
        },
        &walls,
    );
    host_metrics(&mut out, setup_s);
    out
}
