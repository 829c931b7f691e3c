// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! Kernel perf-trajectory harness.
//!
//! Runs the dense-compute kernels — GEMM (blocked vs the retained naive
//! seed baseline), im2col, and the Eq. 1/2/5–6 elastic updates — at fixed
//! paper-era shapes (GoogleNet/VGG-class layers, LeNet/VGG-class packed
//! arenas) and emits `BENCH_kernels.json` at the repo root so the perf
//! trajectory is machine-readable from PR 2 onward.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin kernels            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin kernels -- --smoke # one short iteration, no JSON
//! cargo run --release -p easgd-bench --bin kernels -- --out p # write JSON to `p`
//! ```
//!
//! Every entry records wall milliseconds (best of several runs) and a
//! derived rate, plus the two acceptance ratios of ISSUE 2: blocked vs
//! naive single-threaded at 256³ and blocked vs the seed's fork-join
//! path at 1024³ — and the `gemm_par_vs_serial` table that keeps
//! `gemm`'s fork-join honest: at two threads, `gemm` must never be
//! slower than `gemm_serial` at any shape the workloads issue
//! (`gemm_min_par_over_serial`), and the forced fork beside it shows the
//! crossover `par::FORK_JOIN_FLOPS` was read from.

use easgd::{partitioned_hogwild_easgd, partitioned_sync_easgd, TrainConfig};
use easgd_bench::arg_value;
use easgd_bench::schema::{json_escape, json_number};
use easgd_bench::timing::{time_ms, time_pair_ms};
use easgd_data::SyntheticSpec;
use easgd_nn::models::lenet_tiny;
use easgd_tensor::ops;
use easgd_tensor::par::{self, PartitionedPool, WorkerPool};
use easgd_tensor::{
    active_tier, gemm, gemm_fork_join, gemm_naive, gemm_naive_par, gemm_serial, im2col,
    Conv2dGeometry, Rng, Transpose,
};

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// One measured point of the trajectory.
struct Entry {
    bench: &'static str,
    shape: String,
    implementation: &'static str,
    /// Threads the measured implementation actually used — per entry,
    /// because one file now mixes serial kernels, pool-wide kernels, the
    /// thread-scaling curve, and partitioned trainers at P·T threads.
    threads: usize,
    ms: f64,
    /// Work per iteration: flops for GEMM, moved elements for the
    /// bandwidth kernels, rounds for the trainer benches.
    work: u64,
    /// `"gflops"`, `"melem_per_s"`, or `"rounds_per_s"`.
    rate_unit: &'static str,
}

impl Entry {
    fn rate(&self) -> f64 {
        let per_sec = self.work as f64 / (self.ms / 1e3).max(1e-12);
        match self.rate_unit {
            "gflops" => per_sec / 1e9,
            "rounds_per_s" => per_sec,
            _ => per_sec / 1e6,
        }
    }
}

/// One naive-vs-blocked GEMM comparison point, measured interleaved.
#[allow(clippy::too_many_arguments)]
fn gemm_pair(
    entries: &mut Vec<Entry>,
    smoke: bool,
    budget_s: f64,
    bench: &'static str,
    label: Option<&str>,
    m: usize,
    n: usize,
    k: usize,
    naive: (&'static str, NaiveFn, usize),
    blocked: (&'static str, NaiveFn, usize),
) {
    let a = rand_vec(m * k, 0xA + m as u64);
    let b = rand_vec(k * n, 0xB + n as u64);
    let mut c_naive = vec![0.0f32; m * n];
    let mut c_blocked = vec![0.0f32; m * n];
    let (naive_ms, blocked_ms) = time_pair_ms(
        smoke,
        budget_s,
        || naive.1(m, n, k, &a, &b, &mut c_naive),
        || blocked.1(m, n, k, &a, &b, &mut c_blocked),
    );
    let shape = match label {
        Some(l) => format!("{l}/{m}x{n}x{k}"),
        None => format!("{m}x{n}x{k}"),
    };
    for (implementation, ms, threads) in [
        (naive.0, naive_ms, naive.2),
        (blocked.0, blocked_ms, blocked.2),
    ] {
        entries.push(Entry {
            bench,
            shape: shape.clone(),
            implementation,
            threads,
            ms,
            work: 2 * (m * n * k) as u64,
            rate_unit: "gflops",
        });
    }
}

type NaiveFn = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

fn run_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_naive(Transpose::No, Transpose::No, m, n, k, 1.0, a, b, 0.0, c);
}
fn run_naive_par(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_naive_par(Transpose::No, Transpose::No, m, n, k, 1.0, a, b, 0.0, c);
}
fn run_blocked_serial(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_serial(Transpose::No, Transpose::No, m, n, k, 1.0, a, b, 0.0, c);
}
fn run_blocked(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm(Transpose::No, Transpose::No, m, n, k, 1.0, a, b, 0.0, c);
}

fn bench_gemm(entries: &mut Vec<Entry>, smoke: bool) {
    // Acceptance point 1: single-threaded blocked vs naive at 256³.
    let s = if smoke { 64 } else { 256 };
    // The two acceptance points get a longer window: the checked-in
    // ratios should reflect kernel cost, not whichever transient load
    // happened to coincide with a short run.
    gemm_pair(
        entries,
        smoke,
        8.0,
        "gemm",
        None,
        s,
        s,
        s,
        ("naive_serial", run_naive, 1),
        ("blocked_serial", run_blocked_serial, 1),
    );

    // Acceptance point 2: full blocked dispatch (scoped fork-join) vs the
    // seed's spawn-per-call fork-join at 1024³.
    let s = if smoke { 96 } else { 1024 };
    gemm_pair(
        entries,
        smoke,
        8.0,
        "gemm",
        None,
        s,
        s,
        s,
        ("naive_fork_join", run_naive_par, par::max_threads()),
        ("blocked_pool", run_blocked, par::max_threads()),
    );

    // Paper-era layer shapes (im2col GEMM dims: m=out_ch, k=in_ch·k²,
    // n=out_h·out_w) and a VGG-class dense layer, blocked vs naive.
    let layer_shapes: &[(&'static str, usize, usize, usize)] = &[
        // GoogleNet inception 3a 3×3 branch @28×28.
        ("googlenet_3a_3x3", 128, 784, 96 * 9),
        // VGG conv3_1-class layer @28×28.
        ("vgg_conv3_1", 256, 784, 128 * 9),
        // VGG fc6-class dense forward, batch 32.
        ("vgg_fc6_b32", 32, 4096, 4096),
    ];
    for &(name, m, n, k) in layer_shapes {
        let (m, n, k) = if smoke {
            (m.min(32), n.min(64), k.min(64))
        } else {
            (m, n, k)
        };
        // The fc layer is an acceptance point (the skinny-nest cliff
        // fix); it gets the long window like the other gated pairs.
        let budget_s = if name == "vgg_fc6_b32" { 8.0 } else { 3.0 };
        gemm_pair(
            entries,
            smoke,
            budget_s,
            "gemm_layer",
            Some(name),
            m,
            n,
            k,
            ("naive_fork_join", run_naive_par, par::max_threads()),
            ("blocked_pool", run_blocked, par::max_threads()),
        );
    }
}

/// The tentpole's thread-scaling curve: one GEMM shape swept over worker
/// counts `1..=ncores` (powers of two plus the full chip) by installing
/// a sized pool override around the standard dispatch — the same seam
/// the chip partitions use, so the curve measures exactly the code the
/// partitioned trainers run.
fn bench_gemm_scaling(entries: &mut Vec<Entry>, smoke: bool) {
    let s = if smoke { 96 } else { 512 };
    let a = rand_vec(s * s, 0x51);
    let b = rand_vec(s * s, 0x52);
    let mut c = vec![0.0f32; s * s];
    let max = par::max_threads();
    let mut counts: Vec<usize> = Vec::new();
    let mut t = 1usize;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    for &threads in &counts {
        let ms = par::with_pool(&WorkerPool::new(threads - 1), || {
            time_ms(smoke, || {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    s,
                    s,
                    s,
                    1.0,
                    &a,
                    &b,
                    0.0,
                    &mut c,
                )
            })
        });
        entries.push(Entry {
            bench: "gemm_scaling",
            shape: format!("{s}x{s}x{s}"),
            implementation: "blocked_pool",
            threads,
            ms,
            work: 2 * (s * s * s) as u64,
            rate_unit: "gflops",
        });
    }
}

/// Every GEMM shape the benchmark's workloads issue, plus the cubes and
/// the fc layer the other tables use: `(label, ta, tb, m, n, k)`.
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
            let (s, o) = par::with_pool(&WorkerPool::new(PAR_TABLE_THREADS - 1), || {
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
/// swept over `P ∈ {1, 2, 4, 8}` groups, each running the full local
/// optimizer on its share of the cores, under both combine rules
/// (bulk-synchronous tree and lock-free Hogwild). Reported per round —
/// the partitioned trainers are bit-identical to the cluster schedule at
/// every width, so this row measures hardware scaling, not algorithm
/// drift.
fn bench_partitioned(entries: &mut Vec<Entry>, smoke: bool) {
    let spec = SyntheticSpec::mnist_small();
    let task = spec.task(0x62);
    let (train, test) = task.train_test(if smoke { 128 } else { 512 }, 64, 0x63);
    let proto = lenet_tiny(0x64);
    let rounds = if smoke { 2 } else { 8 };
    let widths: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    for &p in widths {
        let group_threads = (par::max_threads() / p).max(1);
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

fn bench_im2col(entries: &mut Vec<Entry>, smoke: bool) {
    let geoms: &[(&'static str, Conv2dGeometry)] = &[
        (
            // VGG conv2-class lowering: 64 channels @56×56, 3×3 s1 p1.
            "vgg_conv2_64x56x56_k3",
            Conv2dGeometry {
                in_channels: 64,
                in_h: 56,
                in_w: 56,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            },
        ),
        (
            // GoogleNet inception-3 input: 192 channels @28×28, 3×3 s1 p1.
            "googlenet_192x28x28_k3",
            Conv2dGeometry {
                in_channels: 192,
                in_h: 28,
                in_w: 28,
                k_h: 3,
                k_w: 3,
                stride: 1,
                pad: 1,
            },
        ),
    ];
    for (name, geom) in geoms {
        let geom = if smoke {
            Conv2dGeometry {
                in_channels: 4,
                in_h: 8,
                in_w: 8,
                ..*geom
            }
        } else {
            *geom
        };
        let image = rand_vec(geom.input_len(), 0xE);
        let mut col = vec![0.0f32; geom.col_rows() * geom.col_cols()];
        let ms = time_ms(smoke, || im2col(&geom, &image, &mut col));
        entries.push(Entry {
            bench: "im2col",
            shape: (*name).to_string(),
            implementation: "row_sliver",
            threads: 1,
            ms,
            work: col.len() as u64,
            rate_unit: "melem_per_s",
        });
    }
}

fn bench_elastic(entries: &mut Vec<Entry>, smoke: bool) {
    // Packed-arena sizes: LeNet-class (431k) and a VGG-conv-class stack
    // (14.7M) — §5.2's single-layer layout applies the update to the
    // whole arena in one flat pass.
    let sizes: &[(&'static str, usize)] =
        &[("lenet_arena", 431_080), ("vgg_conv_arena", 14_710_464)];
    for &(name, len) in sizes {
        let n = if smoke { 4096 } else { len };
        let grad = rand_vec(n, 1);
        let center = rand_vec(n, 2);
        let mut local = rand_vec(n, 3);
        let mut vel = vec![0.0f32; n];
        for (implementation, ms) in [
            (
                "eq1_worker",
                time_ms(smoke, || {
                    ops::elastic_worker_update(0.05, 0.3, &mut local, &grad, &center)
                }),
            ),
            (
                "eq2_center",
                time_ms(smoke, || {
                    ops::elastic_center_update(0.05, 0.3, &mut local, &center)
                }),
            ),
            (
                "eq5_6_momentum",
                time_ms(smoke, || {
                    ops::elastic_momentum_update(
                        0.05, 0.9, 0.3, &mut local, &mut vel, &grad, &center,
                    )
                }),
            ),
            (
                "axpy",
                time_ms(smoke, || ops::axpy(0.01, &grad, &mut local)),
            ),
        ] {
            entries.push(Entry {
                bench: "elastic_update",
                shape: format!("{name}/{n}"),
                implementation,
                // Threads the banded BLAS-1 path may fan out over (the
                // large-slice gate decides per call).
                threads: par::max_threads(),
                ms,
                work: n as u64,
                rate_unit: "melem_per_s",
            });
        }
    }
}

fn find(entries: &[Entry], bench: &str, implementation: &str, shape_prefix: &str) -> Option<f64> {
    entries
        .iter()
        .find(|e| {
            e.bench == bench
                && e.implementation == implementation
                && e.shape.starts_with(shape_prefix)
        })
        .map(|e| e.ms)
}

fn gflops(entries: &[Entry], bench: &str, implementation: &str, shape_prefix: &str) -> f64 {
    entries
        .iter()
        .find(|e| {
            e.bench == bench
                && e.implementation == implementation
                && e.shape.starts_with(shape_prefix)
        })
        .map(Entry::rate)
        .unwrap_or(0.0)
}

fn render_json(entries: &[Entry], par_table: Option<&ParVsSerial>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p easgd-bench --bin kernels\",\n");
    out.push_str(&format!(
        "  \"simd_tier\": \"{}\",\n",
        json_escape(active_tier())
    ));
    // The acceptance ratios of ISSUE 2 (higher = blocked is faster).
    let serial = match (
        find(entries, "gemm", "naive_serial", "256x"),
        find(entries, "gemm", "blocked_serial", "256x"),
    ) {
        (Some(naive), Some(blocked)) if blocked > 0.0 => naive / blocked,
        _ => 0.0,
    };
    let par = match (
        find(entries, "gemm", "naive_fork_join", "1024x"),
        find(entries, "gemm", "blocked_pool", "1024x"),
    ) {
        (Some(naive), Some(blocked)) if blocked > 0.0 => naive / blocked,
        _ => 0.0,
    };
    // The ISSUE 9 acceptance points: absolute serial GFLOPS at 256³ (the
    // explicit-SIMD microkernel's headline) and the skinny-shape cliff
    // fix at the vgg_fc6 batch-32 dense layer, both absolute and
    // relative to the seed's fork-join path.
    let serial_gf = gflops(entries, "gemm", "blocked_serial", "256x");
    let vgg_gf = gflops(entries, "gemm_layer", "blocked_pool", "vgg_fc6_b32");
    let vgg_speedup = match (
        find(entries, "gemm_layer", "naive_fork_join", "vgg_fc6_b32"),
        find(entries, "gemm_layer", "blocked_pool", "vgg_fc6_b32"),
    ) {
        (Some(naive), Some(blocked)) if blocked > 0.0 => naive / blocked,
        _ => 0.0,
    };
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!(
        "    \"gemm_256_serial_speedup_vs_naive\": {serial:.2},\n"
    ));
    out.push_str(&format!(
        "    \"gemm_1024_speedup_vs_seed_fork_join\": {par:.2},\n"
    ));
    out.push_str(&format!(
        "    \"gemm_256_serial_gflops\": {serial_gf:.2},\n"
    ));
    out.push_str(&format!("    \"vgg_fc6_b32_gflops\": {vgg_gf:.2},\n"));
    out.push_str(&format!(
        "    \"vgg_fc6_b32_speedup_vs_seed_fork_join\": {vgg_speedup:.2}"
    ));
    // The fork-join gate's ledger (absent on a one-thread host, where
    // the table is skipped): `gemm` must not lose to `gemm_serial`
    // anywhere, and the constant sits between the largest shape whose
    // forced fork lost and the smallest above it.
    if let Some(p) = par_table {
        out.push_str(&format!(
            ",\n    \"gemm_min_par_over_serial\": {:.3},\n    \"fork_join_flops\": {},\n    \
             \"largest_losing_fork_flops\": {},\n    \"smallest_winning_fork_flops\": {}",
            p.min_par_over_serial,
            par::FORK_JOIN_FLOPS,
            p.largest_losing_fork_flops,
            p.smallest_winning_fork_flops
        ));
    }
    out.push_str("\n  },\n");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"shape\": \"{}\", \"impl\": \"{}\", \"threads\": {}, \"ms\": {:.4}, \"{}\": {:.3}}}{}\n",
            json_escape(e.bench),
            json_escape(&e.shape),
            json_escape(e.implementation),
            e.threads,
            e.ms,
            e.rate_unit,
            e.rate(),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Smoke-mode schema check: the rendered JSON must carry every
/// acceptance field the driver greps for, the per-entry `threads`
/// field (ISSUE 9 replaced the old top-level count), and at least one
/// row of the thread-scaling curve and the Figure 12-style partition
/// table. Panics loudly on any miss so CI's smoke leg fails.
fn validate_schema(json: &str, entries: &[Entry]) {
    for key in [
        "\"simd_tier\"",
        "\"gemm_256_serial_speedup_vs_naive\"",
        "\"gemm_1024_speedup_vs_seed_fork_join\"",
        "\"gemm_256_serial_gflops\"",
        "\"vgg_fc6_b32_gflops\"",
        "\"vgg_fc6_b32_speedup_vs_seed_fork_join\"",
    ] {
        assert!(json.contains(key), "schema check: missing {key}");
    }
    assert!(
        !json.contains("\n  \"threads\""),
        "schema check: stale top-level threads field"
    );
    let body = json.split("\"entries\"").nth(1).unwrap_or("");
    assert_eq!(
        body.matches("\"threads\":").count(),
        entries.len(),
        "schema check: every entry must carry its own threads count"
    );
    for bench in ["gemm_scaling", "partitioned_easgd"] {
        assert!(
            entries.iter().any(|e| e.bench == bench),
            "schema check: no {bench} rows"
        );
    }
    if par::max_threads() >= PAR_TABLE_THREADS {
        assert!(
            json.contains("\"gemm_min_par_over_serial\""),
            "schema check: missing gemm_min_par_over_serial on a multi-thread host"
        );
    }
    println!("schema check: acceptance fields + per-entry threads OK");
}

/// `--smoke` also re-validates the checked-in fork-join ledger, so CI
/// fails if someone regenerates `BENCH_kernels.json` with a gate under
/// which `gemm` loses to `gemm_serial` (or on a one-thread host, where
/// the table is skipped and the key goes missing).
fn validate_checked_in(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let min =
        json_number(&text, "gemm_min_par_over_serial").ok_or("missing gemm_min_par_over_serial")?;
    if min < 0.95 {
        return Err(format!("gemm_min_par_over_serial = {min}, want >= 0.95"));
    }
    let gate = json_number(&text, "fork_join_flops").ok_or("missing fork_join_flops")?;
    if gate != par::FORK_JOIN_FLOPS as f64 {
        return Err(format!(
            "recorded at fork_join_flops = {gate}, the code says {}: re-record",
            par::FORK_JOIN_FLOPS
        ));
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut entries = Vec::new();

    bench_gemm(&mut entries, smoke);
    bench_gemm_scaling(&mut entries, smoke);
    let par_table = bench_gemm_par_vs_serial(&mut entries, smoke);
    bench_im2col(&mut entries, smoke);
    bench_elastic(&mut entries, smoke);
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
    }

    let json = render_json(&entries, par_table.as_ref());
    // One smoke iteration says nothing about where the fork pays.
    if let (Some(p), false) = (&par_table, smoke) {
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
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let out_path = arg_value("--out").unwrap_or_else(|| default_out.to_string());
    if smoke {
        validate_schema(&json, &entries);
        println!("\nsmoke run: all kernel benches executed once; JSON not written");
        match validate_checked_in(&out_path) {
            Ok(()) => println!("checked-in {out_path} acceptance holds"),
            Err(e) => {
                eprintln!("checked-in {out_path} fails acceptance: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
