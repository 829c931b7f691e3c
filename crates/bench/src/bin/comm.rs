//! Exchange-path tables on simulated time.
//!
//! Two deterministic comparisons `benchmark/` does not produce, both on
//! virtual clocks over the PCIe-class link, written to `BENCH_comm.json`
//! at the repo root: the executable tree reduce against the flat
//! gather-sum at 8 ranks (Θ(log P) vs Θ(P), the Sync EASGD1 step), and
//! the compute/communication overlap of §6.1 — serial vs
//! segment-pipelined tree exchange vs the compute-only floor at 8 ranks
//! on the VGG arena. Wall-clock exchange cost, copies and pool traffic
//! are `benchmark/`'s `train_mlp_sync_p4` and `cluster.*` metrics.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin comm            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin comm -- --smoke # short run + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin comm -- --out p # write JSON to `p`
//! ```
//!
//! Acceptance (`easgd_bench::report::COMM`): the tree reduce must cost
//! no more simulated time than the flat gather at 8 ranks, the pipelined
//! exchange must hide ≥ 50% of the serial round's exposed exchange time
//! (and beat it outright) on the VGG arena, and the pipelined round must
//! stay allocation-free.

use easgd::sync::{tree_exchange_pipelined, tree_exchange_round};
use easgd_bench::report::{self, bench_row, Report};
use easgd_cluster::collectives::{flat_gather_sum, tree_reduce_sum};
use easgd_cluster::{ClusterBackend, ClusterConfig, Comm, TimeCategory, VirtualCluster};
use easgd_hardware::AlphaBeta;
use easgd_tensor::Rng;

/// VGG-conv-class packed arena.
const VGG_ARENA: usize = 14_710_464;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// One measured point (simulated time; the clocks are virtual, so a
/// single run per point is exact).
struct Entry {
    bench: &'static str,
    shape: String,
    implementation: &'static str,
    /// Simulated milliseconds.
    ms: f64,
    /// Moved elements per iteration.
    work: u64,
}

impl Entry {
    /// Simulated Melem/s.
    fn rate(&self) -> f64 {
        self.work as f64 / (self.ms / 1e3).max(1e-12) / 1e6
    }
}

/// Simulated-time comparison: executable binary-tree reduce vs the flat
/// gather-sum at 8 ranks over a PCIe-class link. Deterministic (virtual
/// clocks), so one run each suffices; `ms` holds *simulated* millis.
fn bench_tree_vs_flat(entries: &mut Vec<Entry>, smoke: bool) -> (f64, f64) {
    let n = if smoke { 4_096 } else { 1 << 20 };
    let p = 8;
    let run = |use_tree: bool| -> f64 {
        let cfg = ClusterConfig::new(p).with_link(AlphaBeta::pcie_gen3_x16());
        let times = VirtualCluster::run(&cfg, |comm| {
            let mut data = rand_vec(n, 40 + comm.rank() as u64);
            if use_tree {
                tree_reduce_sum(comm, 0, &mut data, TimeCategory::GpuGpuParam);
            } else {
                flat_gather_sum(comm, 0, &mut data, TimeCategory::GpuGpuParam);
            }
            comm.now()
        });
        times[0]
    };
    let (tree_s, flat_s) = (run(true), run(false));
    for (implementation, s) in [("tree_reduce", tree_s), ("flat_gather_sum", flat_s)] {
        entries.push(Entry {
            bench: "reduce_p8_simulated",
            shape: format!("{p}ranks/{n}"),
            implementation,
            ms: s * 1e3,
            work: n as u64,
        });
    }
    (tree_s, flat_s)
}

/// What the 8-rank overlap measurement returns (simulated seconds per
/// round, max across ranks, plus rank 0's pooled-allocation reading over
/// the measured pipelined window).
struct OverlapOutcome {
    compute_s: f64,
    serial_s: f64,
    pipe_s: f64,
    pipe_allocs_per_round: f64,
}

/// Compute/communication overlap at 8 ranks on the PCIe peer link: one
/// EASGD-shaped round — a compute window plus a tree exchange of the
/// arena — run three ways. `compute_only` is the floor (no exchange at
/// all), `serial_tree_exchange` is the executable-tree round with the
/// compute charged as one lump before it, and `pipelined_tree_exchange`
/// slices both into segments so traffic rides under the compute
/// (DESIGN.md §13). Overlap efficiency is the share of the serial
/// round's *exposed* exchange time the pipeline hides:
/// `(serial − pipelined) / (serial − compute_only)`.
///
/// Virtual clocks make the simulated times deterministic; one measured
/// window suffices. `ms` holds *simulated* millis. Event-hosted: the
/// simulated times are bit-identical on either backend, and the
/// allocation count is then a property of the schedule — on threads the
/// shared pool grows to whatever the worst interleaving of takes and
/// recycles needs, whenever the OS first produces it (the parent commit
/// read 0.5–1.0 allocations per round on a 2-thread host).
fn bench_overlap(entries: &mut Vec<Entry>, smoke: bool) -> OverlapOutcome {
    let n = if smoke { 65_536 } else { VGG_ARENA };
    let p = 8;
    let segments = 8;
    let rounds: u64 = if smoke { 1 } else { 2 };
    let link = AlphaBeta::pcie_gen3_x16();
    // A compute window of the same order as the serial exchange itself —
    // the regime §6.1's EASGD3 pipelining targets.
    let compute = 6.0 * link.time(n * 4);
    let participants: Vec<usize> = (0..p).collect();

    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        ComputeOnly,
        Serial,
        Pipelined,
    }

    let run = |mode: Mode| -> (f64, f64) {
        let cfg = ClusterConfig::new(p)
            .with_link(link.clone())
            .with_backend(ClusterBackend::Events);
        let outs = VirtualCluster::run(&cfg, |comm: &mut Comm| {
            // Only the root owns a center; everyone tracks center_t.
            let center = if comm.rank() == 0 {
                vec![1.0f32; n]
            } else {
                Vec::new()
            };
            let mut center_t = vec![0.0f32; n];
            let mut weight_sum = vec![0.0f32; n];
            let mut round = |comm: &mut Comm| match mode {
                Mode::ComputeOnly => comm.charge(TimeCategory::ForwardBackward, compute),
                Mode::Serial => {
                    comm.charge(TimeCategory::ForwardBackward, compute);
                    tree_exchange_round(
                        comm,
                        &participants,
                        0,
                        &center,
                        &mut center_t,
                        &mut weight_sum,
                        TimeCategory::GpuGpuParam,
                        |center_t, weight_sum| {
                            weight_sum.resize(center_t.len(), 0.0);
                            weight_sum.copy_from_slice(center_t);
                        },
                    );
                }
                Mode::Pipelined => tree_exchange_pipelined(
                    comm,
                    &participants,
                    0,
                    &center,
                    &mut center_t,
                    &mut weight_sum,
                    TimeCategory::GpuGpuParam,
                    segments,
                    |comm: &mut Comm, _s| {
                        comm.charge(TimeCategory::ForwardBackward, compute / segments as f64)
                    },
                    |_range, center_seg, sum_seg: &mut [f32]| sum_seg.copy_from_slice(center_seg),
                ),
            };
            // Warm rounds grow the pool to steady state, then park spares
            // (pipeline stages need a buffer of slack when rank skew
            // overlaps adjacent rounds).
            for _ in 0..2 {
                round(comm);
            }
            if comm.rank() == 0 {
                let seg = n / segments;
                let spares: Vec<_> = (0..2 * p).map(|_| comm.take_buffer(seg)).collect();
                for s in spares {
                    comm.recycle_buffer(s);
                }
            }
            comm.barrier();
            let before = comm.pool_stats();
            let t0 = comm.now();
            for _ in 0..rounds {
                round(comm);
            }
            let per_round_s = (comm.now() - t0) / rounds as f64;
            comm.barrier();
            let allocs = comm.pool_stats().since(&before).allocations() as f64 / rounds as f64;
            (per_round_s, allocs)
        });
        let sim = outs.iter().map(|o| o.0).fold(0.0f64, f64::max);
        (sim, outs[0].1)
    };

    let (compute_s, _) = run(Mode::ComputeOnly);
    let (serial_s, _) = run(Mode::Serial);
    let (pipe_s, pipe_allocs_per_round) = run(Mode::Pipelined);
    for (implementation, s) in [
        ("compute_only", compute_s),
        ("serial_tree_exchange", serial_s),
        ("pipelined_tree_exchange", pipe_s),
    ] {
        entries.push(Entry {
            bench: "exchange_overlap_p8_sim",
            shape: format!("{p}ranks/S{segments}/{n}"),
            implementation,
            ms: s * 1e3,
            work: n as u64,
        });
    }
    OverlapOutcome {
        compute_s,
        serial_s,
        pipe_s,
        pipe_allocs_per_round,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut report = Report::new(&report::COMM);
    let mut entries = Vec::new();

    let (tree_s, flat_s) = bench_tree_vs_flat(&mut entries, smoke);
    let overlap = bench_overlap(&mut entries, smoke);

    let tree_over_flat = tree_s / flat_s;
    // The share of the serial round's exposed exchange time the pipeline
    // hides (the smoke arena is α-dominated; the bar is a full-run one).
    let overlap_efficiency =
        (overlap.serial_s - overlap.pipe_s) / (overlap.serial_s - overlap.compute_s);
    let pipelined_over_serial = overlap.pipe_s / overlap.serial_s;
    report.set(
        "tree_over_flat_time_ratio_p8",
        format!("{tree_over_flat:.3}"),
    );
    report.set("overlap_efficiency_p8", format!("{overlap_efficiency:.3}"));
    report.set(
        "pipelined_over_serial_step_ratio_p8",
        format!("{pipelined_over_serial:.3}"),
    );
    report.set(
        "pipelined_allocs_per_round",
        format!("{:.2}", overlap.pipe_allocs_per_round),
    );

    println!(
        "{:<24} {:<22} {:<24} {:>10} {:>12}",
        "bench", "shape", "impl", "sim ms", "rate"
    );
    for e in &entries {
        println!(
            "{:<24} {:<22} {:<24} {:>10.3} {:>9.2} melem_per_s",
            e.bench,
            e.shape,
            e.implementation,
            e.ms,
            e.rate(),
        );
        report.entry(bench_row(
            e.bench,
            &e.shape,
            e.implementation,
            &format!("\"ms\": {:.4}, \"melem_per_s\": {:.3}", e.ms, e.rate()),
        ));
    }
    println!(
        "\ntree/flat {tree_over_flat:.3} | overlap efficiency {overlap_efficiency:.3} | \
         pipelined/serial {pipelined_over_serial:.3} | pipelined allocs/round {:.2}",
        overlap.pipe_allocs_per_round,
    );
    report.finish(smoke);
}
