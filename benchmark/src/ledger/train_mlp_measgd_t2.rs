// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Traced pass of `train_mlp_measgd_t2`: `async_measgd` re-hosted on the
//! wall-clock worker runtime (`engine::wall::run_worker_loop`, the loop
//! `run_exchange_loop` wraps, written out so that the batch draw and the
//! local step get their own spans) with a benchmark-owned centre mutex.
//! Two real threads race for the centre, so nothing here repeats bit
//! for bit; the replay is held to the same accuracy check as the
//! library call, and to the closure and overhead gates.

use super::{overhead_gate, probes, write_trace, ROUND_CLOSURE_GATE};
use crate::report::Outcome;
use crate::trace::{Lane, Trace};
use crate::workloads::train_mlp_measgd_t2::{check_call, setup, State, BATCH, ITERS, THREADS};
use crate::workloads::Ctx;
use easgd::engine::{run_worker_loop, RunAssembler, SALT_PHI};
use easgd::{async_measgd, ElasticRule, RunResult};
use std::sync::Mutex;
use std::time::Instant;

struct Replayed {
    result: RunResult,
    lanes: Vec<Lane>,
    wall_s: f64,
}

/// One hosted trainer call.
fn replay(s: &State, epoch: Instant, call_no: u64) -> Replayed {
    let cfg = &s.cfg;
    assert_eq!(cfg.comm_period, 1, "the workload fixes τ = 1");
    let start = Instant::now();
    let rule = ElasticRule::from_config(cfg);
    let center = Mutex::new(s.proto.params().as_slice().to_vec());
    // One lane per worker thread, handed out by worker index.
    let lanes: Vec<Mutex<Option<Lane>>> = (0..cfg.workers)
        .map(|w| {
            Mutex::new(Some(Lane::new(
                format!("call{call_no}.worker{w}"),
                epoch,
                8 * ITERS + 8,
            )))
        })
        .collect();
    let run = run_worker_loop(&s.proto, &s.train, cfg, SALT_PHI, |shard, local| {
        let slot = &lanes[shard.worker()];
        let taken = slot
            .lock()
            .expect("lane mutex is never held across a panic")
            .take();
        let Some(mut lane) = taken else {
            unreachable!("each worker index runs once");
        };
        for step in 0..cfg.iterations {
            let op =
                (call_no * ITERS as u64 + step as u64) * THREADS as u64 + shard.worker() as u64;
            let iteration = lane.enter("core.iteration", op);
            let batch = lane.span("data.sample_batch", op, || shard.next_batch(cfg.batch));
            lane.span("core.local_step", op, || local.forward_backward(&batch));
            let id = lane.enter("core.lock_wait", op);
            let mut c = center.lock().expect("a worker panicked holding the centre");
            lane.exit(id);
            // Equation (2) and the snapshot under the lock, then the
            // momentum-elastic Equations (5)-(6) on the local replica.
            let id = lane.enter("core.update", op);
            rule.center_pull(&mut c, local.params());
            local.snapshot_center(&c);
            drop(c);
            local.elastic_momentum_step(&rule);
            lane.exit(id);
            lane.exit(iteration);
        }
        *slot
            .lock()
            .expect("lane mutex is never held across a panic") = Some(lane);
    });
    let center_w = center
        .into_inner()
        .expect("a worker panicked holding the centre");
    let mut lanes: Vec<Lane> = lanes
        .into_iter()
        .filter_map(|m| {
            m.into_inner()
                .expect("lane mutex is never held across a panic")
        })
        .collect();
    let id = lanes[0].enter("core.assemble", call_no);
    let result = RunAssembler::new("Async MEASGD", &s.proto, &s.test, cfg.iterations)
        .wall(run.wall_seconds)
        .worker_losses(run.worker_losses)
        .loss_trace(run.loss_trace)
        .finish(&center_w);
    lanes[0].exit(id);
    Replayed {
        result,
        lanes,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let s = setup(ctx.seed);
    crate::host::print_header("train_mlp_measgd_t2", ctx.seed, true, s.input_digest);
    let mut out = Outcome::default();
    let kernels = probes::update_kernels(s.proto.num_params());
    out.set("tensor.gemm_mlp_gflops", probes::gemm_mlp_gflops(BATCH));
    out.set(
        "tensor.elastic_momentum_melem_per_s",
        kernels.elastic_momentum,
    );
    out.set("tensor.sgd_update_melem_per_s", kernels.sgd_update);
    out.set("data.generate_s", s.generate_s);

    let epoch = Instant::now();
    let mut trace = Trace::default();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut last = None;
    // The whole traced run, probes included, fits the window.
    while pairs.len() < 2 || ctx.start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let lib = async_measgd(&s.proto, &s.train, &s.test, &s.cfg);
        let lib_s = t.elapsed().as_secs_f64();
        check_call(&mut out, &lib);

        let r = replay(&s, epoch, pairs.len() as u64);
        pairs.push((lib_s, r.wall_s));
        check_call(&mut out, &r.result);
        for lane in r.lanes {
            trace.push(lane);
        }
        last = Some(r.result);
    }
    let Some(result) = last else {
        unreachable!("at least two calls ran");
    };

    // Per worker iteration: the threads run side by side, so these are
    // means over every iteration of every worker.
    let iterations = trace.count("core.iteration") as f64;
    let per_iter_ms = |name: &str| trace.total_ns(name) / iterations / 1e6;
    let iteration_ms = per_iter_ms("core.iteration");
    let (batch_ms, local_step_ms) = (
        per_iter_ms("data.sample_batch"),
        per_iter_ms("core.local_step"),
    );
    let (lock_wait_ms, update_ms) = (per_iter_ms("core.lock_wait"), per_iter_ms("core.update"));
    let parts = batch_ms + local_step_ms + lock_wait_ms + update_ms;
    let closure = (parts - iteration_ms).abs() / iteration_ms;
    println!(
        "iteration {iteration_ms:.3} ms = batch {batch_ms:.3} + local_step {local_step_ms:.3} + lock_wait {lock_wait_ms:.3} + update {update_ms:.3}; uncovered {:.4}",
        iteration_ms - parts
    );
    out.set("core.local_step_ms", local_step_ms);
    out.set("core.lock_wait_ms", lock_wait_ms);
    out.set("core.update_ms", update_ms);
    // The exchange of this method is the locked centre update.
    out.set("core.exchange_ms", lock_wait_ms + update_ms);
    out.set(
        "core.exchange_share",
        (lock_wait_ms + update_ms) / iteration_ms,
    );
    out.set("core.round_closure_err", closure);
    out.set("core.final_accuracy", f64::from(result.accuracy));
    out.set("core.final_loss", f64::from(result.final_loss));
    out.set("data.batch_us", batch_ms * 1e3);
    out.set("data.wait_share", batch_ms / iteration_ms);
    if closure > ROUND_CLOSURE_GATE {
        out.fail(format!(
            "core.round_closure_err {closure:.4} above {ROUND_CLOSURE_GATE}"
        ));
    }
    overhead_gate(&mut out, &pairs);
    write_trace(&mut out, &trace, "train_mlp_measgd_t2");
    out
}
