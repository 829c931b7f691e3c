// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Traced pass of `serve_lenet`. The benchmark's `Backend` wrapper
//! already stamps every `run_batch`; the traced drive adds one
//! `serve.submit` span per request and one `serve.run_batch` span per
//! batch. Every other slice of the flat phase runs untraced, and the
//! flat-out time per request of adjacent slices gives the overhead.

use super::{overhead_gate, probes, write_trace};
use crate::report::Outcome;
use crate::stats::{linear_fit, median, percentile};
use crate::trace::{Lane, Trace};
use crate::workloads::serve_lenet::{
    batcher_config, check_and_collect, drive, pinned_model, setup, State, BATCH_CAP, SAMPLE_LEN,
    SHARDS, SLO_US,
};
use crate::workloads::Ctx;
use easgd_nn::models::lenet;
use easgd_serve::{InferSession, NullBackend, ServeEngine};
use std::hint::black_box;
use std::time::Instant;

/// Median microseconds of `InferSession::infer` at batch `b`.
fn infer_us(session: &mut InferSession, pool: &[f32], b: usize) -> f64 {
    let px = &pool[..b * SAMPLE_LEN];
    let _ = session.infer(b, px);
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            black_box(session.infer(b, black_box(px)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Batcher and dispatch alone: nanoseconds per request of an engine
/// whose backend runs nothing, submitting flat out with full payloads.
fn engine_ns_per_req(pool: &[f32]) -> f64 {
    const WARM: usize = 4096;
    const N: usize = 200_000;
    let mut engine = ServeEngine::new(batcher_config(), pinned_model(), NullBackend);
    engine.reserve(WARM + N + 8);
    let mut go = |from: usize, to: usize| {
        for k in from..to {
            let img = &pool[(k % 64) * SAMPLE_LEN..][..SAMPLE_LEN];
            let _ = engine.submit(k as u64, k % SHARDS, &mut |px| px.copy_from_slice(img));
        }
    };
    go(0, WARM);
    let t = Instant::now();
    go(WARM, WARM + N);
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    engine.drain();
    ns
}

/// The busy schedule replayed on logical time under the pinned service
/// model: a behaviour guard that moves only when the batcher's close or
/// dispatch rules move.
fn logical_p99_us(s: &State) -> f64 {
    let mut engine = ServeEngine::new(batcher_config(), pinned_model(), NullBackend);
    engine.reserve(s.busy_due.len() + 8);
    for (k, &due) in s.busy_due.iter().enumerate() {
        let _ = engine.submit(due, k % SHARDS, &mut |_| {});
    }
    engine.drain();
    let lat: Vec<f64> = engine
        .completions()
        .iter()
        .map(|c| c.latency_us())
        .collect();
    percentile(&lat, 99.0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut s = setup(ctx.seed, ctx.seconds);
    crate::host::print_header("serve_lenet", ctx.seed, true, s.input_digest);
    out.set(
        "tensor.gemm_skinny_gflops",
        probes::gemm_skinny_gflops(BATCH_CAP),
    );
    out.set("tensor.gemm_m1_gflops", probes::gemm_skinny_gflops(1));
    let mut session = InferSession::new(lenet(1));
    out.set("nn.infer_us_b1", infer_us(&mut session, &s.pool, 1));
    out.set("nn.infer_us_b8", infer_us(&mut session, &s.pool, BATCH_CAP));
    out.set("data.generate_s", s.generate_s);
    out.set("serve.engine_ns_per_req", engine_ns_per_req(&s.pool));
    out.set("serve.logical_p99_us", logical_p99_us(&s));

    let requests = s.choices.len();
    *s.tracer.borrow_mut() = Some(Lane::new("driver", Instant::now(), 2 * requests + 16));
    let allocs_before = s.engine.pool_stats();
    let d = drive(&mut s);
    let allocs = s.engine.pool_stats().since(&allocs_before).allocations();
    let served = check_and_collect(&s, &d, &mut out);
    let mut trace = Trace::default();
    if let Some(lane) = s.tracer.borrow_mut().take() {
        trace.push(lane);
    }

    let b = s.engine.backend();
    let busy = d.phases[1];
    let in_busy = |t: u64| (busy.start_ns..busy.end_ns).contains(&t);
    let busy_batches: Vec<_> = b.batches.iter().filter(|x| in_busy(x.start_ns)).collect();
    let service_us: Vec<f64> = busy_batches
        .iter()
        .map(|x| (x.end_ns - x.start_ns) as f64 / 1e3)
        .collect();
    let queue_wait_us: Vec<f64> = (busy.first_id..busy.end_id)
        .filter(|&k| b.start_ns[s.warm_ids + k] != u64::MAX)
        .map(|k| b.start_ns[s.warm_ids + k].saturating_sub(d.due_ns[k]) as f64 / 1e3)
        .collect();
    let sizes: f64 = busy_batches.iter().map(|x| x.size as f64).sum();
    let full = busy_batches.iter().filter(|x| x.size == BATCH_CAP).count();
    out.set("serve.queue_wait_us_p50", median(&queue_wait_us));
    out.set("serve.queue_wait_us_p99", percentile(&queue_wait_us, 99.0));
    out.set("serve.service_us_p50", median(&service_us));
    out.set("serve.service_us_p99", percentile(&service_us, 99.0));
    out.set("serve.batch_size_mean", sizes / busy_batches.len() as f64);
    out.set(
        "serve.batch_full_share",
        full as f64 / busy_batches.len() as f64,
    );
    out.set(
        "serve.busy_share",
        service_us.iter().sum::<f64>() / 1e6 / busy.wall_s(),
    );
    out.set("serve.generator_late_us_p99", percentile(&d.late_us, 99.0));
    // Failures count as misses: everything submitted in the phase that
    // did not complete inside the limit.
    let met = served.busy.iter().filter(|&&l| l <= SLO_US).count();
    out.set(
        "serve.slo_miss_share",
        1.0 - met as f64 / busy.requests() as f64,
    );
    out.set(
        "serve.pool_allocs_per_req",
        allocs as f64 / d.due_ns.len() as f64,
    );
    if allocs != 0 {
        out.fail(format!(
            "{allocs} pooled allocations on the warmed-up request path"
        ));
    }

    // step(B) = α + β·B over the executed batch sizes (the §5.2 α-β
    // method turned on ourselves), one point per size: its median.
    let mut by_size: Vec<Vec<f64>> = vec![Vec::new(); BATCH_CAP + 1];
    for x in b.batches.iter().filter(|x| x.head >= s.warm_ids as u64) {
        by_size[x.size].push((x.end_ns - x.start_ns) as f64 / 1e3);
    }
    let points: Vec<(f64, f64)> = by_size
        .iter()
        .enumerate()
        .filter(|(_, v)| v.len() >= 10)
        .map(|(size, v)| (size as f64, median(v)))
        .collect();
    if points.len() >= 2 {
        let (xs, ys): (Vec<f64>, Vec<f64>) = points.iter().copied().unzip();
        let (alpha, beta, r2) = linear_fit(&xs, &ys);
        let pinned = pinned_model();
        println!(
            "fitted step(B) = {alpha:.1} + {beta:.1}·B µs over B in {xs:?} (r² {r2:.4}); pinned {} + {}·B",
            pinned.fixed_us, pinned.per_sample_us
        );
        out.set("serve.fit_fixed_us", alpha);
        out.set("serve.fit_per_sample_us", beta);
        out.set("serve.fit_r2", r2);
    } else {
        out.fail("fewer than two batch sizes executed ten times: no service fit".into());
    }

    // Adjacent flat slices, traced then untraced: seconds per request.
    let pairs: Vec<(f64, f64)> = served
        .flat_rps
        .chunks_exact(2)
        .zip(d.flat_slices.chunks_exact(2))
        .filter(|(_, kinds)| kinds[0].2 && !kinds[1].2)
        .map(|(rps, _)| (1.0 / rps[1], 1.0 / rps[0]))
        .collect();
    overhead_gate(&mut out, &pairs);
    write_trace(&mut out, &trace, "serve_lenet");
    out
}
