// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! `serve_lenet` — `ServeEngine<ReplicaSet>` with two LeNet shards,
//! driven in *wall* microseconds by one thread in three phases:
//!
//! * `idle` — open loop, Poisson, 500 req/s: batches close on the
//!   deadline at size ≈ 1–2, so latency ≈ deadline + one small forward;
//! * `busy` — open loop, Poisson, 2500 req/s: batches close at ≈ 3–4,
//!   the backend is a bit over half busy, queues form;
//! * `flat` — closed loop: submit as fast as the engine accepts.
//!
//! Open-loop requests are independent users: each is timed from the
//! instant it was *due*, so a stall is charged to every request it
//! delays, and how late the generator ran is reported. The rates are
//! constants, never derived from the host at run time. Forward-only
//! skinny GEMMs (m ≤ 8, `gemm_rowstable`), the batcher's close rules and
//! the dispatch order do the work; `core` and `cluster` do none.

use super::{host_metrics, repeat_setup, Ctx};
use crate::gen::{payload_choices, poisson_schedule, sub_seed, task_data, Digest};
use crate::report::Outcome;
use crate::stats::{
    highest_supported_percentile, median, median_of_window_percentiles, percentile, Summary,
};
use crate::trace::Lane;
use easgd_data::SyntheticSpec;
use easgd_nn::models::lenet;
use easgd_serve::{Backend, Batch, BatcherConfig, ReplicaSet, ServeEngine, ServiceModel};
use easgd_tensor::{ScratchStats, Tensor};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

pub const SHARDS: usize = 2;
pub const BATCH_CAP: usize = 8;
pub const DEADLINE_US: u64 = 2000;
pub const IDLE_RPS: f64 = 500.0;
pub const BUSY_RPS: f64 = 2500.0;
/// Shares of `--seconds` given to the idle, busy and flat phases.
const PHASE_SHARES: [f64; 3] = [0.25, 0.55, 0.20];
/// Equal windows the busy phase is cut into for the latency medians.
pub const BUSY_WINDOWS: usize = 5;
/// Slices the flat phase is cut into: `saturated_rps` is the median of
/// their rates, and the traced pass traces every other one.
pub const FLAT_SLICES: usize = 10;
/// A busy-phase request slower than this misses its limit.
pub const SLO_US: f64 = 10_000.0;
/// Distinct request payloads; a request carries one of them.
const POOL_IMAGES: usize = 256;
pub const SAMPLE_LEN: usize = 28 * 28;
const CLASSES: usize = 10;
/// Requests the warm-up puts in flight at one instant: a 100 ms stall of
/// the `busy` phase queues 250.
const WARM_BURST: usize = 512;
/// Upper bound on the closed-loop rate, to preallocate the logs.
const FLAT_RPS_CAP: f64 = 40_000.0;
/// The pinned model of `bench --bin serve` (80 µs + 1.456 µs/sample):
/// it only prices the engine's logical clocks here, never a reported
/// wall-clock number.
pub fn pinned_model() -> ServiceModel {
    ServiceModel::new(80.0, 1.456)
}

pub fn batcher_config() -> BatcherConfig {
    BatcherConfig {
        shards: SHARDS,
        batch_cap: BATCH_CAP,
        deadline_us: DEADLINE_US,
        sample_len: SAMPLE_LEN,
    }
}

/// The wall clock the driver and the backend share, in nanoseconds
/// (the engine is fed whole microseconds). It starts where warm-up's
/// logical time ended, so the engine never sees time run backwards.
pub struct Clock {
    epoch: Cell<Instant>,
    base_ns: Cell<u64>,
}

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.base_ns.get() + self.epoch.get().elapsed().as_nanos() as u64
    }

    fn start_at(&self, base_us: u64) {
        self.base_ns.set(base_us * 1000);
        self.epoch.set(Instant::now());
    }
}

/// The traced pass's span lane, shared like the clock; `None` untraced.
pub type Tracer = Rc<RefCell<Option<Lane>>>;

fn enter(tracer: &Tracer, name: &'static str, op_id: u64) -> Option<u32> {
    tracer.borrow_mut().as_mut().map(|l| l.enter(name, op_id))
}

fn exit(tracer: &Tracer, span: Option<u32>) {
    if let (Some(l), Some(id)) = (tracer.borrow_mut().as_mut(), span) {
        l.exit(id);
    }
}

/// One executed batch, stamped in wall nanoseconds.
#[derive(Clone, Copy)]
pub struct BatchStamp {
    pub start_ns: u64,
    pub end_ns: u64,
    pub size: usize,
    /// Id of the batch's oldest request.
    pub head: u64,
}

/// The benchmark's `Backend`: runs the batch on the real replicas and
/// stamps it from outside — start, end, each request's completion time
/// and logits. All logs are preallocated; the stamps cost two clock
/// reads and an 80-float copy per batch.
pub struct StampedReplicas {
    inner: ReplicaSet,
    clock: Rc<Clock>,
    /// When the batch of each request id started and completed
    /// (`u64::MAX` = never dispatched).
    pub start_ns: Vec<u64>,
    pub done_ns: Vec<u64>,
    /// Logits per request id, `CLASSES` floats each.
    pub logits: Vec<f32>,
    pub batches: Vec<BatchStamp>,
    /// Traced pass: one `serve.run_batch` span per batch.
    tracer: Tracer,
}

impl Backend for StampedReplicas {
    fn run_batch(&mut self, shard: usize, batch: &Batch, pixels: &[f32]) {
        let head = batch.reqs().first().map_or(0, |r| r.id());
        let span = enter(&self.tracer, "serve.run_batch", head);
        let start_ns = self.clock.now_ns();
        self.inner.run_batch(shard, batch, pixels);
        let end_ns = self.clock.now_ns();
        exit(&self.tracer, span);
        let rows = self.inner.session(shard).logits();
        for (row, req) in rows.chunks_exact(CLASSES).zip(batch.reqs()) {
            let id = req.id() as usize;
            if id < self.done_ns.len() {
                self.start_ns[id] = start_ns;
                self.done_ns[id] = end_ns;
                self.logits[id * CLASSES..(id + 1) * CLASSES].copy_from_slice(row);
            }
        }
        if self.batches.len() < self.batches.capacity() {
            self.batches.push(BatchStamp {
                start_ns,
                end_ns,
                size: batch.len(),
                head,
            });
        }
    }

    fn stats(&self) -> ScratchStats {
        self.inner.stats()
    }
}

/// One phase's request ids and wall bounds.
#[derive(Clone, Copy, Default)]
pub struct Phase {
    pub first_id: usize,
    pub end_id: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Phase {
    pub fn requests(&self) -> usize {
        self.end_id - self.first_id
    }
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct State {
    pub engine: ServeEngine<StampedReplicas>,
    pub clock: Rc<Clock>,
    pub tracer: Tracer,
    /// Logical time at which warm-up ended.
    warm_end_us: u64,
    /// `POOL_IMAGES` request payloads, `SAMPLE_LEN` floats each.
    pub pool: Vec<f32>,
    /// `Network::forward(pool, false)`: the logits every request
    /// carrying pool image `j` must get, bit for bit.
    pub reference: Vec<f32>,
    pub idle_due: Vec<u64>,
    pub busy_due: Vec<u64>,
    /// Pool image of request `k` (counted from the first measured one).
    pub choices: Vec<u32>,
    /// Requests submitted during warm-up; measured ids start here.
    pub warm_ids: usize,
    pub flat_us: u64,
    pub input_digest: u64,
    pub generate_s: f64,
}

/// Phase lengths in microseconds for a `seconds`-long window.
fn phase_us(seconds: f64) -> [u64; 3] {
    PHASE_SHARES.map(|s| (s * seconds * 1e6) as u64)
}

pub fn setup(seed: u64, seconds: f64) -> State {
    let t = Instant::now();
    let (images, _) = task_data(SyntheticSpec::mnist(), seed, POOL_IMAGES, 1);
    let generate_s = t.elapsed().as_secs_f64();
    let mut pool = Vec::with_capacity(POOL_IMAGES * SAMPLE_LEN);
    for i in 0..POOL_IMAGES {
        pool.extend_from_slice(images.image(i));
    }
    let [idle_us, busy_us, flat_us] = phase_us(seconds);
    let idle_due = poisson_schedule(sub_seed(seed, 3), IDLE_RPS, idle_us);
    let busy_due = poisson_schedule(sub_seed(seed, 4), BUSY_RPS, busy_us);
    // The logs are sized from the rates, not from this seed's schedule,
    // so every seed allocates the same sizes and peak RSS does not
    // depend on how the allocator happened to fit them.
    let open_cap = |rps: f64, us: u64| (rps * us as f64 / 1e6 * 1.1) as usize + 64;
    let measured_cap = open_cap(IDLE_RPS, idle_us)
        + open_cap(BUSY_RPS, busy_us)
        + (FLAT_RPS_CAP * flat_us as f64 / 1e6) as usize;
    assert!(
        idle_due.len() + busy_due.len() < measured_cap,
        "Poisson schedule 10 % over its rate"
    );
    let choices = payload_choices(sub_seed(seed, 8), measured_cap, POOL_IMAGES);

    let model_seed = sub_seed(seed, 5);
    let mut reference_net = lenet(model_seed);
    let x = Tensor::from_vec([POOL_IMAGES, 1, 28, 28], pool.clone());
    let reference = reference_net.forward(&x, false).into_vec();

    let mut digest = Digest::default();
    digest.f32s(&pool);
    digest.u64s(&idle_due);
    digest.u64s(&busy_due);
    digest.u32s(&choices);
    digest.f32s(reference_net.params().as_slice());

    // Warm-up on logical time before the wall clock starts: one batch of
    // every size on every shard, then a burst that puts far more requests
    // in flight than a measured phase ever holds, so the pools reach
    // their steady-state size and the measured phases allocate nothing.
    let warm_ids: usize = SHARDS * (1..=BATCH_CAP).sum::<usize>() + WARM_BURST;
    let total = warm_ids + measured_cap;
    let clock = Rc::new(Clock {
        epoch: Cell::new(Instant::now()),
        base_ns: Cell::new(0),
    });
    let tracer: Tracer = Rc::new(RefCell::new(None));
    let backend = StampedReplicas {
        inner: ReplicaSet::new(vec![lenet(model_seed), lenet(model_seed)]),
        clock: Rc::clone(&clock),
        start_ns: vec![u64::MAX; total],
        done_ns: vec![u64::MAX; total],
        logits: vec![0.0; total * CLASSES],
        batches: Vec::with_capacity(total),
        tracer: Rc::clone(&tracer),
    };
    let mut engine = ServeEngine::new(batcher_config(), pinned_model(), backend);
    engine.reserve(total + 8);
    let mut now = 0u64;
    for size in 1..=BATCH_CAP {
        for shard in 0..SHARDS {
            for k in 0..size {
                let img = &pool[k * SAMPLE_LEN..(k + 1) * SAMPLE_LEN];
                let _ = engine.submit(now, shard, &mut |px| px.copy_from_slice(img));
            }
        }
        now += DEADLINE_US + 1;
        engine.advance(now);
    }
    // Same-instant arrivals are staged, not dispatched, until time moves.
    for k in 0..WARM_BURST {
        let img = &pool[(k % POOL_IMAGES) * SAMPLE_LEN..][..SAMPLE_LEN];
        let _ = engine.submit(now, k % SHARDS, &mut |px| px.copy_from_slice(img));
    }
    now += DEADLINE_US + 1;
    engine.advance(now);
    assert_eq!(
        engine.completions().len(),
        warm_ids,
        "warm-up did not drain"
    );
    State {
        engine,
        clock,
        tracer,
        warm_end_us: now,
        pool,
        reference,
        idle_due,
        busy_due,
        choices,
        warm_ids,
        flat_us,
        input_digest: digest.finish(),
        generate_s,
    }
}

/// What the driver recorded while the phases ran.
pub struct Drive {
    pub phases: [Phase; 3],
    /// Due time per measured request (its submit time in `flat`).
    pub due_ns: Vec<u64>,
    /// How late the generator submitted each open-loop request.
    pub late_us: Vec<f64>,
    /// Wall bounds of each flat slice, and whether it ran traced.
    pub flat_slices: Vec<(u64, u64, bool)>,
}

/// Runs the three phases on the wall clock. When `s.tracer` holds a
/// lane every `submit` is one `serve.submit` span — except in the odd
/// slices of the flat phase, which run untraced so that adjacent slices
/// give the tracing overhead.
pub fn drive(s: &mut State) -> Drive {
    s.clock.start_at(s.warm_end_us);
    let clock = Rc::clone(&s.clock);
    let now_ns = || clock.now_ns();
    let tracer = Rc::clone(&s.tracer);
    let mut due_ns = Vec::with_capacity(s.choices.len());
    let mut late_us = Vec::with_capacity(s.idle_due.len() + s.busy_due.len());
    let mut phases = [Phase::default(); 3];
    let pool = &s.pool;
    let choices = &s.choices;
    let engine = &mut s.engine;
    let warm_ids = s.warm_ids;
    let submit = |engine: &mut ServeEngine<StampedReplicas>, now: u64, k: usize| {
        let img = &pool[choices[k] as usize * SAMPLE_LEN..][..SAMPLE_LEN];
        let span = enter(&tracer, "serve.submit", (warm_ids + k) as u64);
        let _ = engine.submit(now / 1000, k % SHARDS, &mut |px| px.copy_from_slice(img));
        exit(&tracer, span);
    };

    for (p, schedule) in [&s.idle_due, &s.busy_due].into_iter().enumerate() {
        let start_ns = now_ns();
        phases[p].first_id = due_ns.len();
        phases[p].start_ns = start_ns;
        for &offset_us in schedule {
            let due = start_ns + offset_us * 1000;
            let mut now = now_ns();
            // Poll the deadline timers until this request is due.
            while now < due {
                engine.advance(now / 1000);
                now = now_ns();
            }
            late_us.push((now - due) as f64 / 1e3);
            submit(engine, now, due_ns.len());
            due_ns.push(due);
        }
        // Let the phase's last batches close on their deadlines.
        while engine.pending() > 0 {
            engine.advance(now_ns() / 1000);
        }
        phases[p].end_id = due_ns.len();
        phases[p].end_ns = now_ns();
    }

    let start_ns = now_ns();
    phases[2].first_id = due_ns.len();
    phases[2].start_ns = start_ns;
    let mut now = start_ns;
    let slice_ns = s.flat_us * 1000 / FLAT_SLICES as u64;
    let mut flat_slices = Vec::with_capacity(FLAT_SLICES);
    for slice in 0..FLAT_SLICES {
        let stash = if slice % 2 == 1 {
            tracer.borrow_mut().take()
        } else {
            None
        };
        let traced = tracer.borrow().is_some();
        let (from, until) = (now, start_ns + (slice as u64 + 1) * slice_ns);
        while now < until && due_ns.len() < choices.len() {
            submit(engine, now, due_ns.len());
            due_ns.push(now);
            now = now_ns();
        }
        flat_slices.push((from, now, traced));
        if stash.is_some() {
            *tracer.borrow_mut() = stash;
        }
    }
    engine.drain();
    phases[2].end_id = due_ns.len();
    phases[2].end_ns = now_ns();
    Drive {
        phases,
        due_ns,
        late_us,
        flat_slices,
    }
}

/// Latency (µs, due → batch completion) of each request of one phase, in
/// submission order; and the output checks over all measured requests:
/// every submission completed, every completion carries the reference
/// logits of its payload bit for bit.
pub struct Served {
    pub idle: Vec<f64>,
    pub busy: Vec<f64>,
    pub flat_done: usize,
    /// Completions per second in each flat slice.
    pub flat_rps: Vec<f64>,
}

pub fn check_and_collect(s: &State, d: &Drive, out: &mut Outcome) -> Served {
    let b = s.engine.backend();
    let submitted = s.warm_ids + d.due_ns.len();
    if s.engine.completions().len() != submitted {
        out.fail(format!(
            "{} completions for {submitted} submissions",
            s.engine.completions().len()
        ));
    }
    let mut lat = [Vec::new(), Vec::new(), Vec::new()];
    for (p, phase) in d.phases.iter().enumerate() {
        for k in phase.first_id..phase.end_id {
            let id = s.warm_ids + k;
            let done = b.done_ns[id];
            let want = &s.reference[s.choices[k] as usize * CLASSES..][..CLASSES];
            let got = &b.logits[id * CLASSES..][..CLASSES];
            let problem = if done == u64::MAX {
                Some(format!("request {id} never completed"))
            } else if got
                .iter()
                .zip(want)
                .any(|(g, w)| g.to_bits() != w.to_bits())
            {
                Some(format!("request {id}: logits differ from Network::forward"))
            } else {
                None
            };
            if problem.is_none() {
                lat[p].push(done.saturating_sub(d.due_ns[k]) as f64 / 1e3);
            }
            out.check(problem);
        }
    }
    let flat = d.phases[2];
    let flat_rps = d
        .flat_slices
        .iter()
        .map(|&(from, until, _)| {
            let done = (flat.first_id..flat.end_id)
                .filter(|k| (from..until).contains(&b.done_ns[s.warm_ids + k]))
                .count();
            done as f64 * 1e9 / (until - from).max(1) as f64
        })
        .collect();
    let [idle, busy, flat] = lat;
    Served {
        idle,
        busy,
        flat_done: flat.len(),
        flat_rps,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut s, setup_s) = repeat_setup(ctx, || setup(ctx.seed, ctx.seconds));
    crate::host::print_header("serve_lenet", ctx.seed, false, s.input_digest);
    let mut out = Outcome::default();
    let d = drive(&mut s);
    let served = check_and_collect(&s, &d, &mut out);
    let [idle, busy, flat] = d.phases;
    println!(
        "requests: idle {} busy {} flat {}; generator late_us {}",
        idle.requests(),
        busy.requests(),
        flat.requests(),
        Summary::of(&d.late_us)
    );
    println!("idle latency_us {}", Summary::of(&served.idle));
    println!("busy latency_us {}", Summary::of(&served.busy));
    let p50 = median_of_window_percentiles(&served.busy, BUSY_WINDOWS, 50.0);
    // p99 needs ten samples beyond it in every window; a window too
    // short for that (a smoke run) reports the highest percentile it
    // supports instead, and says so.
    let window = served.busy.len() / BUSY_WINDOWS;
    let tail = highest_supported_percentile(window).map_or(50.0, |p| p.min(99.0));
    let p99 = median_of_window_percentiles(&served.busy, BUSY_WINDOWS, tail);
    println!(
        "busy tail: p{tail} per window of {window} requests, median over {BUSY_WINDOWS} windows {p99}; p99 over the whole phase {} (n {})",
        percentile(&served.busy, 99.0),
        served.busy.len()
    );
    let total_done = served.idle.len() + served.busy.len() + served.flat_done;
    let total_wall = idle.wall_s() + busy.wall_s() + flat.wall_s();
    out.set("latency_p50_us", p50);
    out.set("latency_p99_us", p99);
    out.set("idle_latency_p50_us", median(&served.idle));
    println!("flat rps per slice {}", Summary::of(&served.flat_rps));
    out.set("saturated_rps", median(&served.flat_rps));
    // The names native to the call-based workloads, on a request server:
    // a round is one request's trip, a rank-round one request on a shard.
    out.set("samples_per_s", total_done as f64 / total_wall);
    out.set("round_ms_p50", p50 / 1e3);
    out.set(
        "rank_rounds_per_s",
        served.busy.len() as f64 / busy.wall_s(),
    );
    host_metrics(&mut out, setup_s);
    out
}
