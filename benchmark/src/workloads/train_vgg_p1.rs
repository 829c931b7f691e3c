// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! `train_vgg_p1` — the plain single-worker baseline: `serial_sgd` on the
//! VGG-shaped CIFAR network. `nn` conv/dense layers and `tensor`
//! GEMM/im2col do nearly all the work; `core` exchange, `cluster` and
//! `serve` do none.

use super::{call_metrics, host_metrics, repeat_setup, timed_calls, CallShape, Ctx, TrainState};
use crate::gen::sub_seed;
use crate::ledger::chain::{build_network, VGG_SHAPED};
use crate::report::Outcome;
use easgd::{serial_sgd, RunResult, SerialConfig};
use easgd_data::SyntheticSpec;

pub const BATCH: usize = 8;
/// Steps per trainer call. 30 steps keep a call near one second, so a
/// run holds a dozen calls and `round_ms_p50` is a median of a dozen.
pub const STEPS: usize = 30;
const WARMUP_STEPS: usize = 4;
const ETA: f32 = 0.02;
const N_TRAIN: usize = 512;
const N_TEST: usize = 64;

pub const INPUT: [usize; 3] = [3, 32, 32];

pub type State = TrainState<SerialConfig>;

/// Generates the data, builds the model and makes one short discarded
/// trainer call (pool spawn, scratch warm-up, first-touch faults).
pub fn setup(seed: u64) -> State {
    let s = State::generate(
        SyntheticSpec::cifar(),
        seed,
        (N_TRAIN, N_TEST),
        // The stack `crates/bench/src/bin/train` calls VGG-shaped.
        build_network(INPUT, &VGG_SHAPED, sub_seed(seed, 5)),
        SerialConfig::constant(ETA, BATCH, STEPS, sub_seed(seed, 6)),
    );
    let warm = SerialConfig {
        iterations: WARMUP_STEPS,
        ..s.cfg.clone()
    };
    let _ = serial_sgd(&s.proto, &s.train, &s.test, &warm);
    s
}

/// Mean loss of the last five steps: one batch of eight is too noisy a
/// reading of where training stands (over 24 seeds the last step alone
/// came within 0.1 of the first; this mean stays 0.15 below it).
pub fn closing_loss(r: &RunResult) -> f32 {
    let tail = &r.loss_trace[r.loss_trace.len().saturating_sub(5)..];
    tail.iter().sum::<f32>() / tail.len() as f32
}

/// One checked trainer call: the loss must be finite and training must
/// have lowered it — the closing loss below the first step's.
pub fn checked_call(s: &State, out: &mut Outcome) -> RunResult {
    let r = serial_sgd(&s.proto, &s.train, &s.test, &s.cfg);
    let first = r.loss_trace.first().copied().unwrap_or(f32::NAN);
    let closing = closing_loss(&r);
    out.check((!(r.final_loss.is_finite() && closing < first)).then(|| {
        format!(
            "serial_sgd: final loss {}, closing loss {closing} not below first-step loss {first}",
            r.final_loss
        )
    }));
    r
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (s, setup_s) = repeat_setup(ctx, || setup(ctx.seed));
    crate::host::print_header("train_vgg_p1", ctx.seed, false, s.input_digest);
    let mut out = Outcome::default();
    let mut last = None;
    let walls = timed_calls(ctx, || last = Some(checked_call(&s, &mut out)));
    if let Some(r) = last {
        println!(
            "exact-repeat: center_hash {:016x} first_loss {} closing_loss {} final_loss {} test_accuracy {}",
            r.center_hash,
            r.loss_trace.first().copied().unwrap_or(f32::NAN),
            closing_loss(&r),
            r.final_loss,
            r.accuracy
        );
    }
    call_metrics(
        &mut out,
        &CallShape {
            lanes: 1,
            iters: STEPS,
            batch: BATCH,
        },
        &walls,
    );
    host_metrics(&mut out, setup_s);
    out
}
