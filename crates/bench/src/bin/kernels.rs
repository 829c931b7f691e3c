// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! The kernel table that only this crate can produce.
//!
//! One table survives `easgd_bench::report`'s keep-rule and is written
//! to `BENCH_kernels.json` at the repo root: `gemm_par_vs_serial`, the
//! source of the fork gate (`par::fork_threads`: `par::FORK_JOIN_FLOPS`
//! flops or `par::PAR_ELEMS` streamed floats). At two threads, `gemm`
//! must never be slower than `gemm_serial` at any shape the workloads
//! issue (`gemm_min_par_over_serial`), and the forced fork beside it
//! shows the crossover the two constants were read from.
//!
//! The small-batch `Dense` forwards (`*_fwd_nt` at batch ≤ 8) also time
//! the serial product over the weight pre-packed into panels, as a
//! frozen replica reads it: `nt_stored_over_packed_b2` holds the stored
//! weight's batch-2 forward within 1.25× of it. Every row prints the
//! work its implementation counted for one call (`gemm::counts`): the
//! nest, the floats of A and B it packed, and whether it forked.
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

use easgd_bench::report::{self, bench_row, Report};
use easgd_tensor::gemm::{self as kernel, Counts};
use easgd_tensor::{active_tier, gemm, gemm_fork_join, gemm_serial, gemm_view, par};
use easgd_tensor::{Operand, Panels, Rng, Transpose};
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
    /// because the table mixes serial and forked kernels.
    threads: usize,
    ms: f64,
    flops: u64,
    /// The work one call of the implementation counted.
    counts: Counts,
    /// On a `packed_w` row: the stored weight's serial time over this
    /// row's, timed as one interleaved pair.
    stored_over_packed: Option<f64>,
}

impl Entry {
    fn gflops(&self) -> f64 {
        self.flops as f64 / (self.ms / 1e3).max(1e-12) / 1e9
    }

    /// The nest the call ran.
    fn nest(&self) -> &'static str {
        let c = &self.counts;
        [
            (c.standard, "standard"),
            (c.skinny, "skinny"),
            (c.stream, "stream"),
            (c.transposed_stream, "transposed"),
        ]
        .into_iter()
        .find_map(|(nest, name)| (nest.calls > 0).then_some(name))
        .unwrap_or("none")
    }
}

/// Operand/output sets a small-batch row rotates through: the MLP
/// workload's four replicas each step their own weights and gradients,
/// so a product there never finds its C (up to 4 MiB) warm from the
/// call before.
const REPLICA_SETS: usize = 4;

/// One row of the table: `(label, ta, tb, m, n, k, sets)`, where `sets`
/// is how many distinct operand/output sets consecutive calls rotate
/// through.
type Shape = (String, Transpose, Transpose, usize, usize, usize, usize);

/// Every GEMM shape the benchmark's workloads issue, plus cubes around the
/// crossover and a VGG fc6-class dense layer.
fn par_vs_serial_shapes() -> Vec<Shape> {
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
        shapes.push((format!("{name}_fwd_nn"), No, No, oc, cols, rows, 1));
        shapes.push((format!("{name}_dw_nt"), No, Yes, oc, rows, cols, 1));
        shapes.push((format!("{name}_dcol_tn"), Yes, No, rows, cols, oc, 1));
    }
    // Dense layers at batch `b`: forward NT, weight gradient TN, input
    // gradient NN (the VGG net's 2048→256 head, the MLP's 1024→1024),
    // each rotating through its replicas' sets.
    for (name, b, out, inp) in [
        ("dense256_b8", 8, 256, 2048),
        ("mlp1024_b2", 2, 1024, 1024),
        ("mlp1024_b8", 8, 1024, 1024),
        ("mlp1024_b32", 32, 1024, 1024),
    ] {
        let sets = REPLICA_SETS;
        shapes.push((format!("{name}_fwd_nt"), No, Yes, b, out, inp, sets));
        shapes.push((format!("{name}_dw_tn"), Yes, No, out, inp, b, sets));
        shapes.push((format!("{name}_dx_nn"), No, No, b, inp, out, sets));
    }
    // The MLP's first layer, 784→1024: its forward and its weight
    // gradient (its input gradient feeds nothing).
    let sets = REPLICA_SETS;
    shapes.push(("mlp784_b2_fwd_nt".to_string(), No, Yes, 2, 1024, 784, sets));
    shapes.push(("mlp784_b2_dw_tn".to_string(), Yes, No, 1024, 784, 2, sets));
    // LeNet's 500→10 classifier on one sample.
    shapes.push(("lenet_fc2_b1_fwd_nt".to_string(), No, Yes, 1, 10, 500, 1));
    shapes.push(("vgg_fc6_b32".to_string(), No, No, 32, 4096, 4096, 1));
    for s in [256, 384, 512, 768, 1024] {
        shapes.push((format!("cube{s}"), No, No, s, s, s, 1));
    }
    shapes
}

/// Threads the `gemm_par_vs_serial` table runs at.
const PAR_TABLE_THREADS: usize = 2;

/// A shape as the fork gate sees it: its label, flops and the floats it
/// streams (`max(m·k, k·n, m·n)`).
#[derive(Clone)]
struct GateShape {
    label: String,
    flops: u64,
    floats: usize,
}

impl GateShape {
    /// How far along the two-sided rule the shape sits: `≥ 1` exactly
    /// when `par::fork_threads` forks it (flops ≥ `FORK_JOIN_FLOPS` or
    /// floats ≥ `PAR_ELEMS`).
    fn load(&self) -> f64 {
        (self.flops as f64 / par::FORK_JOIN_FLOPS as f64)
            .max(self.floats as f64 / par::PAR_ELEMS as f64)
    }

    fn describe(&self) -> String {
        format!(
            "{} ({:.1} MFLOP, {:.2} Mi floats)",
            self.label,
            self.flops as f64 / 1e6,
            self.floats as f64 / (1 << 20) as f64
        )
    }
}

/// What the `gemm_par_vs_serial` rows say about the fork gate.
struct ParVsSerial {
    /// Minimum over shapes of `gemm` speed / `gemm_serial` speed.
    min_par_over_serial: f64,
    /// The shape furthest along the two-sided rule ([`GateShape::load`])
    /// whose forced fork ran below 0.95× the serial speed — "lost"
    /// beyond the table's own noise, the same 5 % the acceptance key
    /// allows `gemm`.
    largest_losing: Option<GateShape>,
    /// The shape nearest above that one along the rule (the fork won
    /// there and at everything further along).
    smallest_winning: Option<GateShape>,
    /// Largest serial stored-over-packed-W time ratio among the
    /// batch-2 `Dense` forwards.
    nt_stored_over_packed_b2: f64,
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
    let mut nt_stored_over_packed_b2 = 0.0f64;
    let mut forked_speed = Vec::new();
    for (label, ta, tb, m, n, k, sets) in par_vs_serial_shapes() {
        let (m, n, k) = if smoke {
            (m.min(32), n.min(64), k.min(64))
        } else {
            (m, n, k)
        };
        let seed = |base: u64, s: usize| base + (s * 0x100) as u64;
        let a: Vec<_> = (0..sets)
            .map(|s| rand_vec(m * k, seed(0xA + m as u64, s)))
            .collect();
        let b: Vec<_> = (0..sets)
            .map(|s| rand_vec(k * n, seed(0xB + n as u64, s)))
            .collect();
        let flops = 2 * (m * n * k) as u64;
        let shape = GateShape {
            label: label.clone(),
            flops,
            floats: (m * k).max(k * n).max(m * n),
        };
        // Sub-millisecond kernels: batch calls so one sample is ~1 ms,
        // and every sample visits each set once.
        let reps = ((2_000_000 / flops.max(1)).clamp(1, 64) as usize).next_multiple_of(sets);
        // One output buffer per set for every side: where a 4 MiB C
        // lands in physical memory moves a store-bound shape by more than
        // the 5 % the acceptance allows.
        let c = std::cell::RefCell::new(vec![vec![0.0f32; m * n]; sets]);
        let serial_fn = |s: usize, c: &mut [f32]| {
            gemm_serial(ta, tb, m, n, k, 1.0, &a[s], &b[s], 0.0, c);
        };
        let gated_fn = |s: usize, c: &mut [f32]| gemm(ta, tb, m, n, k, 1.0, &a[s], &b[s], 0.0, c);
        let forked_fn = |s: usize, c: &mut [f32]| {
            let (a, b) = (&a[s], &b[s]);
            gemm_fork_join(PAR_TABLE_THREADS, ta, tb, m, n, k, 1.0, a, b, 0.0, c);
        };
        // `gemm_serial` against `f`, interleaved, ms per call.
        let pair = |f: &dyn Fn(usize, &mut [f32])| {
            let run = |f: &dyn Fn(usize, &mut [f32])| {
                let mut c = c.borrow_mut();
                (0..reps).for_each(|r| f(r % sets, &mut c[r % sets]));
            };
            let (s, o) = par::with_budget(PAR_TABLE_THREADS, || {
                time_pair_ms(smoke, 1.5, || run(&serial_fn), || run(f))
            });
            (s / reps as f64, o / reps as f64)
        };
        // The work one call counts, at the table's budget.
        let counted = |f: &dyn Fn(usize, &mut [f32])| {
            par::with_budget(PAR_TABLE_THREADS, || {
                let before = kernel::counts();
                f(0, &mut c.borrow_mut()[0]);
                kernel::counts().since(&before)
            })
        };
        let (serial, gated) = pair(&gated_fn);
        let (serial_again, forked) = pair(&forked_fn);
        min_par_over_serial = min_par_over_serial.min(serial / gated);
        forked_speed.push((shape, serial_again / forked));
        let mut rows = vec![
            ("serial", 1, serial, counted(&serial_fn), None),
            ("gemm", PAR_TABLE_THREADS, gated, counted(&gated_fn), None),
            (
                "forked",
                PAR_TABLE_THREADS,
                forked,
                counted(&forked_fn),
                None,
            ),
        ];
        // A small-batch `Dense` forward: the weight pre-packed once into
        // the panels a frozen replica reads, against the stored weight.
        if label.ends_with("_fwd_nt") && m <= 8 {
            let panels = Panels::b(tb, k, n);
            let packed: Vec<_> = (0..sets)
                .map(|s| {
                    let mut p = vec![0.0f32; panels.floats()];
                    panels.pack(&b[s], &mut p);
                    p
                })
                .collect();
            let packed_fn = |s: usize, c: &mut [f32]| {
                let (x, w) = (Operand::Stored(&a[s]), Operand::Packed(panels, &packed[s]));
                par::with_budget(1, || gemm_view(ta, tb, m, n, k, 1.0, x, w, 0.0, c));
            };
            let (stored, over_packed) = pair(&packed_fn);
            let ratio = stored / over_packed;
            if label.contains("_b2_") {
                nt_stored_over_packed_b2 = nt_stored_over_packed_b2.max(ratio);
            }
            rows.push(("packed_w", 1, over_packed, counted(&packed_fn), Some(ratio)));
        }
        for (implementation, threads, ms, counts, stored_over_packed) in rows {
            entries.push(Entry {
                bench: "gemm_par_vs_serial",
                shape: format!("{label}/{m}x{n}x{k}"),
                implementation,
                threads,
                ms,
                flops,
                counts,
                stored_over_packed,
            });
        }
    }
    let largest_losing = forked_speed
        .iter()
        .filter(|(_, speed)| *speed < 0.95)
        .map(|(shape, _)| shape)
        .max_by(|a, b| a.load().total_cmp(&b.load()))
        .cloned();
    let lost_load = largest_losing.as_ref().map_or(0.0, GateShape::load);
    let smallest_winning = forked_speed
        .iter()
        .map(|(shape, _)| shape)
        .filter(|shape| shape.load() > lost_load)
        .min_by(|a, b| a.load().total_cmp(&b.load()))
        .cloned();
    Some(ParVsSerial {
        min_par_over_serial,
        largest_losing,
        smallest_winning,
        nt_stored_over_packed_b2,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = Report::new(&report::KERNELS);
    let mut entries = Vec::new();

    let par_table = bench_gemm_par_vs_serial(&mut entries, smoke);

    println!(
        "{:<18} {:<36} {:<9} {:>7} {:>10} {:>9} {:<10} {:>9} {:>9} {:>5} {:>13}",
        "bench",
        "shape",
        "impl",
        "threads",
        "ms",
        "GFLOP/s",
        "nest",
        "A packed",
        "B packed",
        "forks",
        "stored/packed"
    );
    for e in &entries {
        let c = &e.counts;
        let ratio = e.stored_over_packed.map(|r| format!("{r:.3}"));
        println!(
            "{:<18} {:<36} {:<9} {:>7} {:>10.4} {:>9.2} {:<10} {:>9} {:>9} {:>5} {:>13}",
            e.bench,
            e.shape,
            e.implementation,
            e.threads,
            e.ms,
            e.gflops(),
            e.nest(),
            c.a_packed,
            c.b_packed,
            c.forks,
            ratio.as_deref().unwrap_or("-"),
        );
        let ratio = ratio.map_or_else(String::new, |r| format!(", \"stored_over_packed\": {r}"));
        report.entry(bench_row(
            e.bench,
            &e.shape,
            e.implementation,
            &format!(
                "\"threads\": {}, \"ms\": {:.4}, \"gflops\": {:.3}, \"nest\": \"{}\", \
                 \"a_packed\": {}, \"b_packed\": {}, \"forks\": {}{ratio}",
                e.threads,
                e.ms,
                e.gflops(),
                e.nest(),
                c.a_packed,
                c.b_packed,
                c.forks
            ),
        ));
    }

    report.header("simd_tier", format!("\"{}\"", active_tier()));
    // The fork gate's ledger: `gemm` must not lose to `gemm_serial`
    // anywhere, and both constants sit between the shape furthest along
    // the two-sided rule whose forced fork lost and the nearest above it.
    if let Some(p) = &par_table {
        report.set(
            "gemm_min_par_over_serial",
            format!("{:.3}", p.min_par_over_serial),
        );
        report.set("fork_join_flops", par::FORK_JOIN_FLOPS);
        report.set("par_elems", par::PAR_ELEMS);
        let (lost, won) = (p.largest_losing.as_ref(), p.smallest_winning.as_ref());
        report.set("largest_losing_fork_flops", lost.map_or(0, |s| s.flops));
        report.set("largest_losing_fork_floats", lost.map_or(0, |s| s.floats));
        report.set("smallest_winning_fork_flops", won.map_or(0, |s| s.flops));
        report.set("smallest_winning_fork_floats", won.map_or(0, |s| s.floats));
        report.set(
            "nt_stored_over_packed_b2",
            format!("{:.3}", p.nt_stored_over_packed_b2),
        );
        // One smoke iteration says nothing about where the fork pays.
        if !smoke {
            let none = || "none".to_string();
            println!(
                "\nfork gate: flops >= FORK_JOIN_FLOPS = {} ({:.1} MFLOP) or floats >= PAR_ELEMS = {} \
                 ({:.2} Mi); forced fork last lost at {}, won from {} up; min gemm/serial speed = {:.3}",
                par::FORK_JOIN_FLOPS,
                par::FORK_JOIN_FLOPS as f64 / 1e6,
                par::PAR_ELEMS,
                par::PAR_ELEMS as f64 / (1 << 20) as f64,
                lost.map_or_else(none, GateShape::describe),
                won.map_or_else(none, GateShape::describe),
                p.min_par_over_serial,
            );
        }
    }
    report.finish(smoke);
}
