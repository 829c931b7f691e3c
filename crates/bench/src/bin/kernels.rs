// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! Kernel tables that only this crate can produce.
//!
//! Two tables survive `easgd_bench::report`'s keep-rule and are written
//! to `BENCH_kernels.json` at the repo root:
//!
//! * `gemm_par_vs_serial` — the source of `par::FORK_JOIN_FLOPS`: at two
//!   threads, `gemm` must never be slower than `gemm_serial` at any shape
//!   the workloads issue (`gemm_min_par_over_serial`), and the forced
//!   fork beside it shows the crossover the constant was read from.
//! * `partitioned_easgd` — Figure 12 on real threads: the §6.2 chip
//!   partition at every group count this host has the threads for.
//!
//! Peak GFLOP/s, im2col and the elastic kernels are `benchmark/`'s
//! `tensor.*` probes, measured at the workloads' own shapes.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin kernels            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin kernels -- --smoke # one short iteration + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin kernels -- --out p # write JSON to `p`
//! ```
//!
//! Record under `benchmark/run.sh`'s four `MALLOC_*` settings (the bin
//! warns when they are missing) and on ≥ 2 threads.

use easgd::{partitioned_hogwild_easgd, partitioned_sync_easgd, TrainConfig};
use easgd_bench::report::{self, bench_row, Report};
use easgd_data::SyntheticSpec;
use easgd_nn::models::lenet_tiny;
use easgd_tensor::par::{self, PartitionedPool};
use easgd_tensor::{active_tier, gemm, gemm_fork_join, gemm_serial, Rng, Transpose};
use std::time::Instant;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// Interleaved A/B measurement: alternates the two implementations and
/// reports the minimum wall milliseconds of each side (one round each in
/// smoke mode). A sequential "time A, then time B" layout hands whichever
/// side runs first the colder cache and higher turbo headroom;
/// interleaving spreads thermal drift over both sides, and the per-side
/// minimum estimates true cost under transient noisy-neighbor load (which
/// only ever adds time, never subtracts it).
fn time_pair_ms(
    smoke: bool,
    budget_s: f64,
    mut fa: impl FnMut(),
    mut fb: impl FnMut(),
) -> (f64, f64) {
    let mut best = [f64::INFINITY; 2];
    let mut spent = 0.0;
    let mut rounds = 0u32;
    // The rounds cap bounds pathological cases only — fast pairs must be
    // allowed to fill their whole budget, otherwise a sub-millisecond
    // kernel samples a ~100 ms window and the minimum never sees a calm
    // slice of this (noisy, shared) box.
    let min_rounds = if smoke { 1 } else { 5 };
    while rounds < min_rounds || (!smoke && spent < budget_s && rounds < 4000) {
        for (best, f) in best.iter_mut().zip([&mut fa as &mut dyn FnMut(), &mut fb]) {
            let t = Instant::now();
            f();
            let s = t.elapsed().as_secs_f64();
            *best = best.min(s);
            spent += s;
        }
        rounds += 1;
    }
    (best[0] * 1e3, best[1] * 1e3)
}

/// One measured point of the trajectory.
struct Entry {
    bench: &'static str,
    shape: String,
    implementation: &'static str,
    /// Threads the measured implementation actually used — per entry,
    /// because one file mixes serial kernels, forked kernels and
    /// partitioned trainers at P·T threads.
    threads: usize,
    ms: f64,
    /// Work per iteration: flops for GEMM, rounds for the trainers.
    work: u64,
    /// `"gflops"` or `"rounds_per_s"`.
    rate_unit: &'static str,
}

impl Entry {
    fn rate(&self) -> f64 {
        let per_sec = self.work as f64 / (self.ms / 1e3).max(1e-12);
        match self.rate_unit {
            "gflops" => per_sec / 1e9,
            _ => per_sec,
        }
    }
}

/// Every GEMM shape the benchmark's workloads issue, plus cubes around the
/// crossover and a VGG fc6-class dense layer: `(label, ta, tb, m, n, k)`.
fn par_vs_serial_shapes() -> Vec<(String, Transpose, Transpose, usize, usize, usize)> {
    use Transpose::{No, Yes};
    let mut shapes = Vec::new();
    // The VGG-shaped CIFAR net's five conv layers `(oc, col_rows,
    // col_cols)`: forward NN, weight gradient NT, column gradient TN.
    for (i, (oc, rows, cols)) in [
        (32, 27, 1024),
        (32, 288, 1024),
        (64, 288, 256),
        (64, 576, 256),
        (128, 576, 64),
    ]
    .into_iter()
    .enumerate()
    {
        let name = format!("vgg_conv{}", i + 1);
        shapes.push((format!("{name}_fwd_nn"), No, No, oc, cols, rows));
        shapes.push((format!("{name}_dw_nt"), No, Yes, oc, rows, cols));
        shapes.push((format!("{name}_dcol_tn"), Yes, No, rows, cols, oc));
    }
    // Dense layers at batch `b`: forward NT, weight gradient TN, input
    // gradient NN (the VGG net's 2048→256 head, the MLP's 1024→1024).
    for (name, b, out, inp) in [
        ("dense256_b8", 8, 256, 2048),
        ("mlp1024_b2", 2, 1024, 1024),
        ("mlp1024_b8", 8, 1024, 1024),
        ("mlp1024_b32", 32, 1024, 1024),
    ] {
        shapes.push((format!("{name}_fwd_nt"), No, Yes, b, out, inp));
        shapes.push((format!("{name}_dw_tn"), Yes, No, out, inp, b));
        shapes.push((format!("{name}_dx_nn"), No, No, b, inp, out));
    }
    shapes.push(("vgg_fc6_b32".to_string(), No, No, 32, 4096, 4096));
    for s in [256, 384, 512, 768, 1024] {
        shapes.push((format!("cube{s}"), No, No, s, s, s));
    }
    shapes
}

/// Threads the `gemm_par_vs_serial` table runs at.
const PAR_TABLE_THREADS: usize = 2;

/// What the `gemm_par_vs_serial` rows say about the fork-join gate.
struct ParVsSerial {
    /// Minimum over shapes of `gemm` speed / `gemm_serial` speed.
    min_par_over_serial: f64,
    /// Flops of the largest shape whose forced fork ran below 0.95× the
    /// serial speed — "lost" beyond the table's own noise, the same 5 %
    /// the acceptance key allows `gemm`.
    largest_losing_fork_flops: u64,
    /// Flops of the smallest shape above that one (the fork won there and
    /// at everything bigger).
    smallest_winning_fork_flops: u64,
}

/// `gemm` against `gemm_serial` at a two-thread budget, and the fork
/// forced (`gemm_fork_join`, whatever the gate says) against
/// `gemm_serial` again: the first pair gives `gemm_min_par_over_serial`,
/// the second shows where the fork starts to pay. Two interleaved pairs
/// rather than one triple, so the gated pair never runs on caches the
/// forced fork just split over two cores. Prints a skip notice on a
/// one-thread host, where a second thread would only time-slice the
/// first.
fn bench_gemm_par_vs_serial(entries: &mut Vec<Entry>, smoke: bool) -> Option<ParVsSerial> {
    if par::max_threads() < PAR_TABLE_THREADS {
        println!("gemm_par_vs_serial: SKIPPED (host has 1 thread; the table needs 2)");
        return None;
    }
    let mut min_par_over_serial = f64::INFINITY;
    let mut forked_speed = Vec::new();
    for (label, ta, tb, m, n, k) in par_vs_serial_shapes() {
        let (m, n, k) = if smoke {
            (m.min(32), n.min(64), k.min(64))
        } else {
            (m, n, k)
        };
        let a = rand_vec(m * k, 0xA + m as u64);
        let b = rand_vec(k * n, 0xB + n as u64);
        let flops = 2 * (m * n * k) as u64;
        // Sub-millisecond kernels: batch calls so one sample is ~1 ms.
        let reps = (2_000_000 / flops.max(1)).clamp(1, 64) as usize;
        // One output buffer for every side: where a 4 MiB C lands in
        // physical memory moves a store-bound shape by more than the
        // 5 % the acceptance allows.
        let c = std::cell::RefCell::new(vec![0.0f32; m * n]);
        let pair = |f: &dyn Fn(&mut [f32])| {
            let run = |f: &dyn Fn(&mut [f32])| {
                let mut c = c.borrow_mut();
                (0..reps).for_each(|_| f(&mut c));
            };
            let serial = |c: &mut [f32]| gemm_serial(ta, tb, m, n, k, 1.0, &a, &b, 0.0, c);
            let (s, o) = par::with_budget(PAR_TABLE_THREADS, || {
                time_pair_ms(smoke, 1.5, || run(&serial), || run(f))
            });
            (s / reps as f64, o / reps as f64)
        };
        let (serial, gated) = pair(&|c| gemm(ta, tb, m, n, k, 1.0, &a, &b, 0.0, c));
        let (serial_again, forked) =
            pair(&|c| gemm_fork_join(PAR_TABLE_THREADS, ta, tb, m, n, k, 1.0, &a, &b, 0.0, c));
        min_par_over_serial = min_par_over_serial.min(serial / gated);
        forked_speed.push((flops, serial_again / forked));
        for (implementation, threads, ms) in [
            ("serial", 1, serial),
            ("gemm", PAR_TABLE_THREADS, gated),
            ("forked", PAR_TABLE_THREADS, forked),
        ] {
            entries.push(Entry {
                bench: "gemm_par_vs_serial",
                shape: format!("{label}/{m}x{n}x{k}"),
                implementation,
                threads,
                ms,
                work: flops,
                rate_unit: "gflops",
            });
        }
    }
    let largest_losing_fork_flops = forked_speed
        .iter()
        .filter(|&&(_, speed)| speed < 0.95)
        .map(|&(flops, _)| flops)
        .max()
        .unwrap_or(0);
    let smallest_winning_fork_flops = forked_speed
        .iter()
        .map(|&(flops, _)| flops)
        .filter(|&flops| flops > largest_losing_fork_flops)
        .min()
        .unwrap_or(u64::MAX);
    Some(ParVsSerial {
        min_par_over_serial,
        largest_losing_fork_flops,
        smallest_winning_fork_flops,
    })
}

/// The Figure 12-style table on real threads: the §6.2 chip partition
/// swept over `P ∈ {1, 2, 4, 8}` groups — those the host has a thread
/// for; more groups than threads would measure oversubscription, not
/// Figure 12 — each running the full local optimizer on its share of the
/// cores, under both combine rules (bulk-synchronous tree and lock-free
/// Hogwild). Reported per round — the partitioned trainers are
/// bit-identical to the cluster schedule at every width, so this row
/// measures hardware scaling, not algorithm drift.
fn bench_partitioned(entries: &mut Vec<Entry>, smoke: bool) {
    let spec = SyntheticSpec::mnist_small();
    let task = spec.task(0x62);
    let (train, test) = task.train_test(if smoke { 128 } else { 512 }, 64, 0x63);
    let proto = lenet_tiny(0x64);
    let rounds = if smoke { 2 } else { 8 };
    let widest = par::max_threads().min(if smoke { 2 } else { 8 });
    for p in [1, 2, 4, 8].into_iter().filter(|&p| p <= widest) {
        let group_threads = par::max_threads() / p;
        let pool = PartitionedPool::with_group_threads(p, group_threads);
        let cfg = TrainConfig {
            workers: p,
            batch: 16,
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
            iterations: rounds,
            seed: 0x65,
            comm_period: 1,
        };
        for (implementation, run_fn) in [
            (
                "sync_tree",
                &(|| partitioned_sync_easgd(&proto, &train, &test, &cfg, &pool, 0))
                    as &dyn Fn() -> easgd::RunResult,
            ),
            (
                "hogwild",
                &(|| partitioned_hogwild_easgd(&proto, &train, &test, &cfg, &pool)),
            ),
        ] {
            // One warm-up run (thread spawn, allocator), then the timed
            // runs; per-round cost is the best run divided by rounds.
            run_fn();
            let reps = if smoke { 1 } else { 3 };
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                best = best.min(run_fn().wall_seconds);
            }
            entries.push(Entry {
                bench: "partitioned_easgd",
                shape: format!("lenet_tiny/P{p}"),
                implementation,
                threads: p * group_threads,
                ms: best * 1e3 / rounds as f64,
                work: 1,
                rate_unit: "rounds_per_s",
            });
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = Report::new(&report::KERNELS);
    let mut entries = Vec::new();

    let par_table = bench_gemm_par_vs_serial(&mut entries, smoke);
    bench_partitioned(&mut entries, smoke);

    println!(
        "{:<18} {:<36} {:<16} {:>7} {:>10} {:>12}",
        "bench", "shape", "impl", "threads", "ms", "rate"
    );
    for e in &entries {
        println!(
            "{:<18} {:<36} {:<16} {:>7} {:>10.4} {:>9.2} {}",
            e.bench,
            e.shape,
            e.implementation,
            e.threads,
            e.ms,
            e.rate(),
            e.rate_unit,
        );
        report.entry(bench_row(
            e.bench,
            &e.shape,
            e.implementation,
            &format!(
                "\"threads\": {}, \"ms\": {:.4}, \"{}\": {:.3}",
                e.threads,
                e.ms,
                e.rate_unit,
                e.rate()
            ),
        ));
    }

    report.header("simd_tier", format!("\"{}\"", active_tier()));
    // The fork-join gate's ledger: `gemm` must not lose to `gemm_serial`
    // anywhere, and the constant sits between the largest shape whose
    // forced fork lost and the smallest above it.
    if let Some(p) = &par_table {
        report.set(
            "gemm_min_par_over_serial",
            format!("{:.3}", p.min_par_over_serial),
        );
        report.set("fork_join_flops", par::FORK_JOIN_FLOPS);
        report.set("largest_losing_fork_flops", p.largest_losing_fork_flops);
        report.set("smallest_winning_fork_flops", p.smallest_winning_fork_flops);
        // One smoke iteration says nothing about where the fork pays.
        if !smoke {
            println!(
                "\nfork-join gate: FORK_JOIN_FLOPS = {} ({:.1} MFLOP); forced fork last lost to \
                 serial at {:.1} MFLOP, won from {:.1} MFLOP up; min gemm/serial speed = {:.3}",
                par::FORK_JOIN_FLOPS,
                par::FORK_JOIN_FLOPS as f64 / 1e6,
                p.largest_losing_fork_flops as f64 / 1e6,
                p.smallest_winning_fork_flops as f64 / 1e6,
                p.min_par_over_serial,
            );
        }
    }
    report.finish(smoke);
}
