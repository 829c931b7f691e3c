// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Traced pass of `train_vgg_p1`: `serial_sgd` re-hosted from its public
//! pieces — `Dataset::sample_batch`, the traced layer [`Chain`],
//! `ops::sgd_update`, `evaluate_center` — alternating with the library
//! call it must reproduce bit for bit.

use super::chain::{Chain, VGG_SHAPED};
use super::{overhead_gate, probes, write_trace, NN_CLOSURE_GATE};
use crate::report::Outcome;
use crate::trace::{Lane, Trace};
use crate::workloads::train_vgg_p1::{checked_call, setup, State, BATCH, INPUT, STEPS};
use crate::workloads::Ctx;
use easgd::engine::{center_fingerprint, evaluate_center};
use easgd_tensor::{ops, Rng};
use std::time::Instant;

struct Replayed {
    final_loss: f32,
    center_hash: u64,
    accuracy: f32,
    /// Scratch allocations per step over the steady-state steps (all
    /// but the first, which sizes the buffers).
    allocs_per_step: f64,
    flops_per_step: f64,
}

/// One hosted `serial_sgd` call, spans on `lane`.
fn replay(s: &State, lane: &mut Lane, call: u64) -> Replayed {
    let whole = lane.enter("core.call", call);
    // As `LocalStep::new(proto)`: a fresh replica and gradient buffer.
    let id = lane.enter("core.replica_new", call);
    let mut chain = Chain::new(INPUT, &VGG_SHAPED, &s.proto);
    let mut grad = vec![0.0f32; chain.params.len()];
    lane.exit(id);
    let mut rng = Rng::new(s.cfg.seed);
    let eta = s.cfg.schedule.at(0);
    let mut final_loss = f32::NAN;
    let mut warm = chain.scratch_stats();
    for t in 0..STEPS {
        let op = call * STEPS as u64 + t as u64;
        let batch = lane.span("data.sample_batch", op, || {
            s.train.sample_batch(&mut rng, BATCH)
        });
        final_loss = chain.step(&batch.images, &batch.labels, lane, op);
        lane.span("core.capture_grad", op, || {
            grad.copy_from_slice(chain.grads.as_slice())
        });
        lane.span("core.update", op, || {
            ops::sgd_update(eta, chain.params.as_mut_slice(), &grad)
        });
        if t == 0 {
            warm = chain.scratch_stats();
        }
    }
    let allocs = chain.scratch_stats().since(&warm).allocations();
    let (accuracy, center_hash) = lane.span("core.assemble", call, || {
        let w = chain.params.as_slice();
        (evaluate_center(&s.proto, w, &s.test), center_fingerprint(w))
    });
    lane.exit(whole);
    Replayed {
        final_loss,
        center_hash,
        accuracy,
        allocs_per_step: allocs as f64 / (STEPS - 1) as f64,
        flops_per_step: chain.flops_per_step(BATCH),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let s = setup(ctx.seed);
    crate::host::print_header("train_vgg_p1", ctx.seed, true, s.input_digest);
    let mut out = Outcome::default();

    let peak = probes::gemm_peak_gflops();
    let (stream, stream_bytes) = probes::stream_gb_per_s();
    println!(
        "stream probe: two {} MiB arrays, reported LLC {} KiB",
        stream_bytes >> 20,
        crate::host::llc_bytes().map_or(0, |b| b >> 10)
    );
    let (im2col, col2im) = probes::im2col_col2im_melem_per_s();
    out.set("tensor.gemm_peak_gflops", peak);
    out.set("tensor.stream_gb_per_s", stream);
    out.set("tensor.gemm_conv_gflops", probes::gemm_conv_gflops());
    out.set("tensor.im2col_melem_per_s", im2col);
    out.set("tensor.col2im_melem_per_s", col2im);
    out.set(
        "tensor.sgd_update_melem_per_s",
        probes::update_kernels(s.proto.num_params()).sgd_update,
    );
    out.set("data.generate_s", s.generate_s);

    // Library call and hosted replay alternate, so drift hits both.
    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut pairs = Vec::new();
    let mut last = None;
    // The whole traced run, probes included, fits the window.
    while pairs.len() < 2 || ctx.start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let lib = checked_call(&s, &mut out);
        let lib_s = t.elapsed().as_secs_f64();

        let call = pairs.len() as u64;
        let mut lane = Lane::new(format!("call{call}"), epoch, 64 * STEPS + 16);
        let t = Instant::now();
        let r = replay(&s, &mut lane, call);
        pairs.push((lib_s, t.elapsed().as_secs_f64()));
        trace.push(lane);

        if r.final_loss.to_bits() != lib.final_loss.to_bits() || r.center_hash != lib.center_hash {
            out.fail(format!(
                "replay diverged from serial_sgd: loss {} vs {}, center_hash {:016x} vs {:016x}",
                r.final_loss, lib.final_loss, r.center_hash, lib.center_hash
            ));
        }
        last = Some(r);
    }
    let Some(r) = last else {
        unreachable!("at least two calls ran");
    };

    let steps = (pairs.len() * STEPS) as f64;
    let per_step_ms = |name: &str| trace.total_ns(name) / steps / 1e6;
    let step_ms = per_step_ms("nn.step");
    let fwd: f64 = [
        "nn.conv.fwd",
        "nn.act.fwd",
        "nn.pool.fwd",
        "nn.flatten.fwd",
        "nn.dense.fwd",
    ]
    .iter()
    .map(|n| per_step_ms(n))
    .sum();
    let bwd: f64 = [
        "nn.conv.bwd",
        "nn.act.bwd",
        "nn.pool.bwd",
        "nn.flatten.bwd",
        "nn.dense.bwd",
        "nn.zero_grads",
    ]
    .iter()
    .map(|n| per_step_ms(n))
    .sum();
    let loss = per_step_ms("nn.loss.fwd") + per_step_ms("nn.loss.bwd");
    // What the layer spans leave uncovered of the whole step.
    let closure = trace.self_ns("nn.step") / trace.total_ns("nn.step");
    let call_ms = trace.total_ns("core.call") / steps / 1e6;
    let gflops = r.flops_per_step / (step_ms * 1e6);
    out.set("nn.step_ms", step_ms);
    out.set("nn.fwd_ms", fwd);
    out.set("nn.loss_ms", loss);
    out.set("nn.bwd_ms", bwd);
    out.set("nn.conv_fwd_ms", per_step_ms("nn.conv.fwd"));
    out.set("nn.conv_bwd_ms", per_step_ms("nn.conv.bwd"));
    out.set("nn.dense_fwd_ms", per_step_ms("nn.dense.fwd"));
    out.set("nn.dense_bwd_ms", per_step_ms("nn.dense.bwd"));
    out.set(
        "nn.pool_ms",
        per_step_ms("nn.pool.fwd") + per_step_ms("nn.pool.bwd"),
    );
    out.set(
        "nn.act_ms",
        per_step_ms("nn.act.fwd") + per_step_ms("nn.act.bwd"),
    );
    out.set("nn.flops_per_step", r.flops_per_step);
    out.set("nn.step_gflops", gflops);
    out.set("nn.peak_fraction", gflops / peak);
    out.set("nn.closure_err", closure);
    out.set("nn.scratch_allocs_per_step", r.allocs_per_step);
    out.set(
        "data.batch_us",
        trace.total_ns("data.sample_batch") / steps / 1e3,
    );
    out.set(
        "data.wait_share",
        per_step_ms("data.sample_batch") / call_ms,
    );
    out.set(
        "core.local_step_ms",
        step_ms + per_step_ms("core.capture_grad"),
    );
    out.set("core.update_ms", per_step_ms("core.update"));
    out.set("core.final_accuracy", f64::from(r.accuracy));
    out.set("core.final_loss", f64::from(r.final_loss));
    out.set(
        "core.center_hash48",
        (r.center_hash & 0xFFFF_FFFF_FFFF) as f64,
    );
    println!(
        "nn spans are {:.3} of a hosted step ({call_ms:.3} ms incl. batch, update, per-call replica and evaluation)",
        step_ms / call_ms
    );
    if closure > NN_CLOSURE_GATE {
        out.fail(format!(
            "nn.closure_err {closure:.4} above {NN_CLOSURE_GATE}"
        ));
    }
    if r.allocs_per_step != 0.0 {
        out.fail(format!(
            "nn.scratch_allocs_per_step {} (steady-state steps must not allocate)",
            r.allocs_per_step
        ));
    }
    overhead_gate(&mut out, &pairs);
    write_trace(&mut out, &trace, "train_vgg_p1");
    out
}
