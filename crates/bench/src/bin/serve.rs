//! Micro-batching latency sweep on logical time — `BENCH_serve.json`.
//!
//! The open-loop latency sweep and the batching throughput ratio,
//! computed on logical time under the pinned [`ServiceModel`] (α =
//! per-dispatch overhead, β = per-sample forward time from the M40
//! compute model — the serving twin of the paper's §5.2 α-β analysis).
//! Every number is a pure function of the seeds, so the rows are
//! bit-identical across runs; the harness *verifies* that by running the
//! whole sweep twice and comparing the rendered bytes
//! (`sim_bit_identical`). Wall-clock latency and QPS of real LeNet
//! replicas are `benchmark/`'s `serve_lenet` workload; the zero-allocation
//! and bitwise-eval gates are `crates/serve`'s own tests.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin serve            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin serve -- --smoke # short run + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin serve -- --out p # write JSON to `p`
//! ```
//!
//! Acceptance (`easgd_bench::report::SERVE`): `qps_batch8_over_batch1 ≥ 3`
//! (batching must amortize dispatch overhead),
//! `p99_within_deadline_bound` (for the non-burst arrival processes,
//! p99 ≤ T + 2·step(cap)) and `sim_bit_identical`.

use easgd_bench::report::{self, Report};
use easgd_hardware::ComputeModel;
use easgd_serve::{
    summarize, Arrival, BatcherConfig, LatencySummary, NullBackend, ServeEngine, ServiceModel,
};

/// Per-dispatch fixed cost α (µs): per-layer kernel launches on the
/// paper's GPU-era serving stack plus batcher hand-off and response
/// framing. α/β ≈ 55, firmly in the regime where batching pays.
const FIXED_US: f64 = 80.0;

/// LeNet per-sample forward flops (conv1 576 k + conv2 3.2 M + fc1
/// 800 k + fc2 10 k): β comes from running these on the M40 model.
const LENET_FWD_FLOPS: f64 = 4_586_000.0;

/// Shards (= replicas) in every configuration.
const SHARDS: usize = 2;

/// Coalescing deadline T (µs).
const DEADLINE_US: u64 = 300;

/// Batch caps swept.
const CAPS: [usize; 3] = [1, 4, 8];

/// One sim sweep row.
struct SweepRow {
    arrival: &'static str,
    rate_per_s: f64,
    cap: usize,
    summary: LatencySummary,
}

fn service_model() -> ServiceModel {
    ServiceModel::new(FIXED_US, ComputeModel::m40().time(LENET_FWD_FLOPS) * 1e6)
}

/// The swept arrival processes, all at 4 000 requests/s mean rate. The
/// burst process fires 8 same-instant arrivals (across both shards —
/// the `(ready, shard)` tie-break case) every 2 ms.
fn arrivals() -> [Arrival; 3] {
    [
        Arrival::Uniform { period_us: 250 },
        Arrival::Poisson {
            mean_gap_us: 250.0,
            seed: 0xEA5E,
        },
        Arrival::Burst {
            size: 8,
            gap_us: 2000,
        },
    ]
}

/// One open-loop sim run: `n` arrivals round-robined over the shards,
/// then a drain. Pure logical time — identical numbers every run.
fn run_sim(arrival: Arrival, cap: usize, n: usize) -> LatencySummary {
    let mut engine = ServeEngine::new(
        BatcherConfig {
            shards: SHARDS,
            batch_cap: cap,
            deadline_us: DEADLINE_US,
            sample_len: 0,
        },
        service_model(),
        NullBackend,
    );
    engine.reserve(n);
    for (i, t) in arrival.timestamps(0).take(n).enumerate() {
        let _ = engine.submit(t, i % SHARDS, &mut |_px| {});
    }
    engine.drain();
    summarize(engine.completions())
}

/// The full latency sweep (9 rows: 3 arrival processes × 3 caps).
fn run_sweep(n: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for arrival in arrivals() {
        for cap in CAPS {
            rows.push(SweepRow {
                arrival: arrival.label(),
                rate_per_s: arrival.rate_per_s(),
                cap,
                summary: run_sim(arrival, cap, n),
            });
        }
    }
    rows
}

/// Measured saturation throughput ratio QPS(cap 8)/QPS(cap 1): offered
/// load (1 M req/s) far above even the cap-8 capacity (~175 k req/s on
/// this model), so sustained QPS converges to the server's `B/step(B)`
/// capacity and the ratio approaches `step(1)/step(8)·8 ≈ 7.1`.
fn saturation_ratio(n: usize) -> f64 {
    let sat = |cap| run_sim(Arrival::Uniform { period_us: 1 }, cap, n).qps;
    sat(8) / sat(1)
}

/// p99 ≤ T + 2·step(cap) for the non-burst processes. (A burst of 8
/// into cap 1 intentionally overloads one instant — its backlog is the
/// tie-break stress case, not a deadline-scheduling claim.)
fn p99_bound_holds(rows: &[SweepRow], model: ServiceModel) -> bool {
    rows.iter()
        .filter(|r| r.arrival != "burst")
        .all(|r| r.summary.p99_us <= DEADLINE_US as f64 + 2.0 * model.step_us(r.cap) + 1e-9)
}

/// The sweep rows as rendered JSON objects.
fn render_rows(rows: &[SweepRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "{{\"arrival\": \"{}\", \"rate_per_s\": {:.1}, \"batch_cap\": {}, \
                 \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}, \
                 \"qps\": {:.2}}}",
                r.arrival,
                r.rate_per_s,
                r.cap,
                r.summary.p50_us,
                r.summary.p99_us,
                r.summary.p999_us,
                r.summary.max_us,
                r.summary.qps,
            )
        })
        .collect()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sweep_n, sat_n) = if smoke {
        (600, 1_000)
    } else {
        (20_000, 20_000)
    };
    let model = service_model();

    let rows = run_sweep(sweep_n);
    let qps_ratio = saturation_ratio(sat_n);
    // Re-run the whole sweep and compare rendered bytes: the claim that
    // every JSON number is seed-deterministic, enforced.
    let rendered = render_rows(&rows);
    let sim_bit_identical =
        rendered == render_rows(&run_sweep(sweep_n)) && qps_ratio == saturation_ratio(sat_n);
    let p99_bound_ok = p99_bound_holds(&rows, model);

    let mut report = Report::new(&report::SERVE);
    report.header(
        "service_model",
        format!(
            "{{\"fixed_us\": {:.3}, \"per_sample_us\": {:.4}, \
             \"shards\": {SHARDS}, \"deadline_us\": {DEADLINE_US}}}",
            model.fixed_us, model.per_sample_us
        ),
    );
    report.set("qps_batch8_over_batch1", format!("{qps_ratio:.2}"));
    report.set("p99_within_deadline_bound", p99_bound_ok);
    report.set("sim_bit_identical", sim_bit_identical);
    for row in rendered {
        report.entry(row);
    }

    println!(
        "{:<9} {:>10} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "arrival", "rate/s", "cap", "p50 µs", "p99 µs", "p999 µs", "max µs", "qps"
    );
    for r in &rows {
        println!(
            "{:<9} {:>10.0} {:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.0}",
            r.arrival,
            r.rate_per_s,
            r.cap,
            r.summary.p50_us,
            r.summary.p99_us,
            r.summary.p999_us,
            r.summary.max_us,
            r.summary.qps
        );
    }
    println!(
        "\nqps(8)/qps(1) {qps_ratio:.2} | p99 bound {p99_bound_ok} | sim bit-identical {sim_bit_identical}"
    );
    report.finish(smoke);
}
