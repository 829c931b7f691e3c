// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! Exchange-path perf harness.
//!
//! Measures the zero-allocation exchange path of ISSUE 4 — the fused
//! `elastic_exchange` kernel against the two-pass copy+Eq(1) composition
//! it replaced, the full pooled exchange step against the seed's
//! allocate-per-call shape on a live 2-rank [`VirtualCluster`], the
//! pool's allocation and bytes-moved counters, the executable tree
//! reduce against the flat gather-sum at 8 ranks, the ISSUE 7
//! compute/communication overlap (serial vs segment-pipelined tree
//! exchange vs the compute-only floor, simulated at 8 ranks), and the
//! ISSUE 12 copy and allocation counts of one `tree_exchange_round` at 4
//! and 8 ranks — and emits `BENCH_comm.json` at the repo root.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin comm            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin comm -- --smoke # short run + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin comm -- --out p # write JSON to `p`
//! ```
//!
//! Acceptance (checked in, re-validated by `--smoke` in CI):
//! steady-state allocations per pooled exchange step must be 0, the
//! fused+pooled step must be ≥ 2× the shim path on the VGG-sized arena,
//! the fused kernel must not lose to the two-pass form, the tree reduce
//! must cost no more simulated time than the flat gather at 8 ranks, the
//! pipelined exchange must hide ≥ 50% of the serial round's exposed
//! exchange time (and beat it outright) on the VGG arena, the pipelined
//! round must stay allocation-free, and a `tree_exchange_round` must
//! copy the arena at most once and allocate nothing.

use easgd::sync::{tree_exchange_pipelined, tree_exchange_round};
use easgd_bench::arg_value;
use easgd_bench::schema::{json_escape, json_number};
use easgd_bench::timing::time_pair_ms;
use easgd_cluster::collectives::{flat_gather_sum, tree_reduce_sum};
use easgd_cluster::{ClusterBackend, ClusterConfig, Comm, PoolStats, TimeCategory, VirtualCluster};
use easgd_hardware::AlphaBeta;
use easgd_tensor::{ops, Rng};
use std::time::Instant;

/// VGG-conv-class packed arena (matches `kernels.rs`'s `vgg_conv_arena`).
const VGG_ARENA: usize = 14_710_464;
const ETA: f32 = 0.05;
const RHO: f32 = 0.3;

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// One measured point of the trajectory.
struct Entry {
    bench: &'static str,
    shape: String,
    implementation: &'static str,
    ms: f64,
    /// Moved elements per iteration.
    work: u64,
    /// `"melem_per_s"` (wall) or `"sim_ms"`-style simulated entries keep
    /// the same unit for uniformity.
    rate_unit: &'static str,
    /// Further `"key": value` columns of this row.
    extra: Vec<(&'static str, f64)>,
}

impl Entry {
    fn rate(&self) -> f64 {
        self.work as f64 / (self.ms / 1e3).max(1e-12) / 1e6
    }
}

/// Kernel-level rows: the fused exchange sweep vs the two-pass
/// composition, and the fused dilution-from vs copy-then-dilute.
fn bench_exchange_kernels(entries: &mut Vec<Entry>, smoke: bool) -> f64 {
    let n = if smoke { 65_536 } else { VGG_ARENA };
    let grad = rand_vec(n, 1);
    let center = rand_vec(n, 2);
    let mut local_a = rand_vec(n, 3);
    let mut local_b = local_a.clone();
    let mut contribution_a = vec![0.0f32; n];
    let mut contribution_b = vec![0.0f32; n];

    let (two_pass_ms, fused_ms) = time_pair_ms(
        smoke,
        6.0,
        || {
            contribution_a.copy_from_slice(&local_a);
            ops::elastic_worker_update(ETA, RHO, &mut local_a, &grad, &center);
        },
        || ops::elastic_exchange(ETA, RHO, &mut local_b, &mut contribution_b, &grad, &center),
    );
    for (implementation, ms) in [("two_pass_copy_eq1", two_pass_ms), ("fused", fused_ms)] {
        entries.push(Entry {
            bench: "exchange_kernel",
            shape: format!("vgg_arena/{n}"),
            implementation,
            ms,
            work: n as u64,
            rate_unit: "melem_per_s",
            extra: Vec::new(),
        });
    }

    let center_t = rand_vec(n, 4);
    let sum = rand_vec(n, 5);
    let mut out_a = vec![0.0f32; n];
    let mut out_b = vec![0.0f32; n];
    let (copy_dilute_ms, dilute_from_ms) = time_pair_ms(
        smoke,
        4.0,
        || {
            out_a.copy_from_slice(&center_t);
            ops::center_dilution(ETA, RHO, &mut out_a, &sum, 4);
        },
        || ops::center_dilution_from(ETA, RHO, &center_t, &sum, 4, &mut out_b),
    );
    for (implementation, ms) in [
        ("copy_then_dilute", copy_dilute_ms),
        ("dilute_from", dilute_from_ms),
    ] {
        entries.push(Entry {
            bench: "dilution_kernel",
            shape: format!("vgg_arena/{n}"),
            implementation,
            ms,
            work: n as u64,
            rate_unit: "melem_per_s",
            extra: Vec::new(),
        });
    }
    if fused_ms > 0.0 {
        two_pass_ms / fused_ms
    } else {
        0.0
    }
}

/// What the 2-rank full-exchange-step measurement returns (from rank 0).
struct StepOutcome {
    old_ms: f64,
    new_ms: f64,
    steps: u64,
    old_pool: PoolStats,
    new_pool: PoolStats,
}

/// One Sync-EASGD-shaped exchange step through the seed's exchange path:
/// broadcast the center (fresh result vector), copy the local weights out
/// for the reduce, apply Eq (1) as a second pass, reduce to a fresh sum
/// vector, dilute.
///
/// The seed's rendezvous consumed an *owned* input (`data.to_vec()`
/// inside its `Vec`-returning broadcast/reduce) and returned a fresh
/// vector to every reader. Those methods are gone; the same allocations
/// and copies are spelled out here — an owned input per collective, a
/// fresh output vector that leaves the pool — to keep the baseline
/// honest.
fn old_step(comm: &mut Comm, local: &mut [f32], grad: &[f32], center: &mut Vec<f32>) {
    let workers = comm.size();
    let bcast_in = if comm.rank() == 0 {
        center.to_vec()
    } else {
        Vec::new()
    };
    let mut center_t = Vec::new();
    comm.broadcast_costed_into(0, &bcast_in, 0.0, TimeCategory::GpuGpuParam, &mut center_t);
    let contribution = local.to_vec();
    ops::elastic_worker_update(ETA, RHO, local, grad, &center_t);
    let reduce_in = contribution.to_vec();
    let mut sum = Vec::new();
    comm.reduce_sum_costed_into(&reduce_in, 0.0, TimeCategory::GpuGpuParam, &mut sum);
    *center = center_t;
    ops::center_dilution(ETA, RHO, center, &sum, workers);
}

/// The same step on the pooled+fused path: collectives write into
/// persistent scratch, the fused kernel publishes and pulls in one sweep,
/// and the dilution writes the next center without the intermediate copy.
#[allow(clippy::too_many_arguments)]
fn new_step(
    comm: &mut Comm,
    local: &mut [f32],
    grad: &[f32],
    center: &mut [f32],
    center_t: &mut Vec<f32>,
    contribution: &mut [f32],
    sum: &mut Vec<f32>,
) {
    let workers = comm.size();
    comm.broadcast_costed_into(0, center, 0.0, TimeCategory::GpuGpuParam, center_t);
    ops::elastic_exchange(ETA, RHO, local, contribution, grad, center_t);
    comm.reduce_sum_costed_into(contribution, 0.0, TimeCategory::GpuGpuParam, sum);
    ops::center_dilution_from(ETA, RHO, center_t, sum, workers, center);
}

/// Full-exchange-step comparison on a live 2-rank cluster, interleaved
/// old/new inside one run; also snapshots the pool counters over the
/// measured windows for the allocs-per-step and bytes-moved columns.
fn bench_exchange_step(entries: &mut Vec<Entry>, smoke: bool) -> StepOutcome {
    let n = if smoke { 65_536 } else { VGG_ARENA };
    let rounds: u64 = if smoke { 1 } else { 6 };
    let cfg = ClusterConfig::new(2);
    let outs = VirtualCluster::run(&cfg, |comm| {
        let me = comm.rank() as u64;
        let grad = rand_vec(n, 10 + me);
        let mut local = rand_vec(n, 20 + me);
        let mut center = rand_vec(n, 30);
        let mut center_t: Vec<f32> = Vec::new();
        let mut contribution = vec![0.0f32; n];
        let mut sum: Vec<f32> = Vec::new();

        // Warm both paths (grows persistent scratch), then park spares:
        // the pool's steady state needs one buffer of slack per pipeline
        // stage (a collective's result payload returns to the pool on
        // its *last* release, which can land after the fastest rank has
        // already started the next step).
        for _ in 0..2 {
            old_step(comm, &mut local, &grad, &mut center);
            new_step(
                comm,
                &mut local,
                &grad,
                &mut center,
                &mut center_t,
                &mut contribution,
                &mut sum,
            );
        }
        if comm.rank() == 0 {
            let spares: Vec<_> = (0..4).map(|_| comm.take_buffer(n)).collect();
            for s in spares {
                comm.recycle_buffer(s);
            }
        }
        comm.barrier();

        // Pool counters over a pure-new window, then a pure-old window
        // (in that order: every old step carries two buffers out of the
        // pool for good, which the next new step would have to replace).
        let before_new = comm.pool_stats();
        for _ in 0..rounds {
            new_step(
                comm,
                &mut local,
                &grad,
                &mut center,
                &mut center_t,
                &mut contribution,
                &mut sum,
            );
        }
        comm.barrier();
        let before_old = comm.pool_stats();
        let new_pool = before_old.since(&before_new);
        for _ in 0..rounds {
            old_step(comm, &mut local, &grad, &mut center);
        }
        comm.barrier();
        let old_pool = comm.pool_stats().since(&before_old);

        // Interleaved wall timing, min per side (both ranks step in
        // lockstep through the collectives, so rank 0's clock stands for
        // the pair).
        let mut best_old = f64::INFINITY;
        let mut best_new = f64::INFINITY;
        let timing_rounds = if smoke { 1 } else { 8 };
        for _ in 0..timing_rounds {
            let t = Instant::now();
            old_step(comm, &mut local, &grad, &mut center);
            best_old = best_old.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            new_step(
                comm,
                &mut local,
                &grad,
                &mut center,
                &mut center_t,
                &mut contribution,
                &mut sum,
            );
            best_new = best_new.min(t.elapsed().as_secs_f64());
        }
        (best_old * 1e3, best_new * 1e3, old_pool, new_pool)
    });
    let (old_ms, new_ms, old_pool, new_pool) = (outs[0].0, outs[0].1, outs[0].2, outs[0].3);

    for (implementation, ms) in [("seed_two_pass", old_ms), ("pooled_fused", new_ms)] {
        entries.push(Entry {
            bench: "exchange_step_2rank",
            shape: format!("vgg_arena/{n}"),
            implementation,
            ms,
            work: n as u64,
            rate_unit: "melem_per_s",
            extra: Vec::new(),
        });
    }
    StepOutcome {
        old_ms,
        new_ms,
        steps: rounds,
        old_pool,
        new_pool,
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
            rate_unit: "melem_per_s",
            extra: Vec::new(),
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
            // (as in `bench_exchange_step`: pipeline stages need a buffer
            // of slack when rank skew overlaps adjacent rounds).
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
            rate_unit: "melem_per_s",
            extra: Vec::new(),
        });
    }
    OverlapOutcome {
        compute_s,
        serial_s,
        pipe_s,
        pipe_allocs_per_round,
    }
}

/// Pool counters of one steady-state `tree_exchange_round`.
struct TreeRoundOutcome {
    /// Payload bytes copied per round ÷ arena bytes.
    copies_per_arena: f64,
    allocs_per_round: f64,
}

/// The Sync EASGD executable-tree round ([`tree_exchange_round`]) on the
/// VGG arena at `p` ranks, event-hosted (one rank runs at a time, so the
/// wall milliseconds are the program's, not the OS scheduler's). The
/// broadcast is one shared payload and the reduce moves buffers, so a
/// warm round copies the arena exactly once — the root's payload — and
/// allocates nothing; both counts are acceptance keys.
fn bench_tree_round(entries: &mut Vec<Entry>, smoke: bool, p: usize) -> TreeRoundOutcome {
    let n = if smoke { 65_536 } else { VGG_ARENA };
    let rounds: u64 = if smoke { 2 } else { 4 };
    let participants: Vec<usize> = (0..p).collect();
    let cfg = ClusterConfig::new(p).with_backend(ClusterBackend::Events);
    let outs = VirtualCluster::run(&cfg, |comm: &mut Comm| {
        let center = if comm.rank() == 0 {
            rand_vec(n, 50)
        } else {
            Vec::new()
        };
        let mut center_t = Vec::new();
        let mut weight_sum = vec![0.0f32; n];
        let mut round = |comm: &mut Comm| {
            tree_exchange_round(
                comm,
                &participants,
                0,
                &center,
                &mut center_t,
                &mut weight_sum,
                TimeCategory::GpuGpuParam,
                |w_bar, weight_sum| weight_sum.copy_from_slice(w_bar),
            )
        };
        for _ in 0..2 {
            round(comm);
        }
        comm.barrier();
        let before = comm.pool_stats();
        let t = Instant::now();
        for _ in 0..rounds {
            round(comm);
        }
        comm.barrier();
        let ms = t.elapsed().as_secs_f64() * 1e3 / rounds as f64;
        (ms, comm.pool_stats().since(&before))
    });
    let (ms, pool) = outs[0];
    let outcome = TreeRoundOutcome {
        copies_per_arena: pool.bytes_copied as f64 / rounds as f64 / (n * 4) as f64,
        allocs_per_round: pool.allocations() as f64 / rounds as f64,
    };
    entries.push(Entry {
        bench: "tree_exchange_round",
        shape: format!("{p}ranks/{n}"),
        implementation: "shared_bcast_moving_reduce",
        ms,
        work: n as u64,
        rate_unit: "melem_per_s",
        extra: vec![
            ("copies_per_arena", outcome.copies_per_arena),
            ("allocs_per_round", outcome.allocs_per_round),
        ],
    });
    outcome
}

struct Acceptance {
    fused_kernel_speedup: f64,
    step_speedup: f64,
    pooled_allocs_per_step: f64,
    seed_allocs_per_step: f64,
    pooled_mb_per_step: f64,
    seed_mb_per_step: f64,
    tree_over_flat: f64,
    overlap_efficiency: f64,
    pipelined_over_serial: f64,
    pipelined_allocs_per_round: f64,
    /// Worst of the P = 4 and P = 8 `tree_exchange_round` rows.
    tree_round_copies_per_arena: f64,
    tree_round_allocs_per_round: f64,
}

fn render_json(entries: &[Entry], acc: &Acceptance) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p easgd-bench --bin comm\",\n");
    out.push_str(&format!(
        "  \"threads\": {},\n",
        easgd_tensor::par::max_threads()
    ));
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!(
        "    \"fused_kernel_speedup_vs_two_pass\": {:.2},\n",
        acc.fused_kernel_speedup
    ));
    out.push_str(&format!(
        "    \"pooled_fused_step_speedup_vs_seed\": {:.2},\n",
        acc.step_speedup
    ));
    out.push_str(&format!(
        "    \"pooled_allocs_per_exchange_step\": {:.2},\n",
        acc.pooled_allocs_per_step
    ));
    out.push_str(&format!(
        "    \"seed_allocs_per_exchange_step\": {:.2},\n",
        acc.seed_allocs_per_step
    ));
    out.push_str(&format!(
        "    \"pooled_bytes_copied_mb_per_step\": {:.2},\n",
        acc.pooled_mb_per_step
    ));
    out.push_str(&format!(
        "    \"seed_bytes_copied_mb_per_step\": {:.2},\n",
        acc.seed_mb_per_step
    ));
    out.push_str(&format!(
        "    \"tree_over_flat_time_ratio_p8\": {:.3},\n",
        acc.tree_over_flat
    ));
    out.push_str(&format!(
        "    \"overlap_efficiency_p8\": {:.3},\n",
        acc.overlap_efficiency
    ));
    out.push_str(&format!(
        "    \"pipelined_over_serial_step_ratio_p8\": {:.3},\n",
        acc.pipelined_over_serial
    ));
    out.push_str(&format!(
        "    \"pipelined_allocs_per_round\": {:.2},\n",
        acc.pipelined_allocs_per_round
    ));
    out.push_str(&format!(
        "    \"tree_round_copies_per_arena\": {:.3},\n",
        acc.tree_round_copies_per_arena
    ));
    out.push_str(&format!(
        "    \"tree_round_allocs_per_round\": {:.2}\n",
        acc.tree_round_allocs_per_round
    ));
    out.push_str("  },\n");
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let extra: String = e
            .extra
            .iter()
            .map(|(key, value)| format!(", \"{key}\": {value:.3}"))
            .collect();
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"shape\": \"{}\", \"impl\": \"{}\", \"ms\": {:.4}, \"{}\": {:.3}{}}}{}\n",
            json_escape(e.bench),
            json_escape(&e.shape),
            json_escape(e.implementation),
            e.ms,
            e.rate_unit,
            e.rate(),
            extra,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// `--smoke` also re-validates the checked-in acceptance ratios, so CI
/// fails if someone regenerates `BENCH_comm.json` below the bar (or
/// forgets to check it in).
fn validate_checked_in(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let allocs = json_number(&text, "pooled_allocs_per_exchange_step")
        .ok_or("missing pooled_allocs_per_exchange_step")?;
    let speedup = json_number(&text, "pooled_fused_step_speedup_vs_seed")
        .ok_or("missing pooled_fused_step_speedup_vs_seed")?;
    let ratio = json_number(&text, "tree_over_flat_time_ratio_p8")
        .ok_or("missing tree_over_flat_time_ratio_p8")?;
    let fused = json_number(&text, "fused_kernel_speedup_vs_two_pass")
        .ok_or("missing fused_kernel_speedup_vs_two_pass")?;
    let overlap =
        json_number(&text, "overlap_efficiency_p8").ok_or("missing overlap_efficiency_p8")?;
    let pipe_ratio = json_number(&text, "pipelined_over_serial_step_ratio_p8")
        .ok_or("missing pipelined_over_serial_step_ratio_p8")?;
    let pipe_allocs = json_number(&text, "pipelined_allocs_per_round")
        .ok_or("missing pipelined_allocs_per_round")?;
    if allocs != 0.0 {
        return Err(format!(
            "pooled_allocs_per_exchange_step = {allocs}, want 0"
        ));
    }
    if speedup < 2.0 {
        return Err(format!(
            "pooled_fused_step_speedup_vs_seed = {speedup}, want >= 2.0"
        ));
    }
    if ratio > 1.0 {
        return Err(format!(
            "tree_over_flat_time_ratio_p8 = {ratio}, want <= 1.0"
        ));
    }
    if fused < 1.0 {
        return Err(format!(
            "fused_kernel_speedup_vs_two_pass = {fused}, want >= 1.0"
        ));
    }
    if overlap < 0.5 {
        return Err(format!("overlap_efficiency_p8 = {overlap}, want >= 0.5"));
    }
    if pipe_ratio >= 1.0 {
        return Err(format!(
            "pipelined_over_serial_step_ratio_p8 = {pipe_ratio}, want < 1.0"
        ));
    }
    if pipe_allocs != 0.0 {
        return Err(format!(
            "pipelined_allocs_per_round = {pipe_allocs}, want 0"
        ));
    }
    let copies = json_number(&text, "tree_round_copies_per_arena")
        .ok_or("missing tree_round_copies_per_arena")?;
    let round_allocs = json_number(&text, "tree_round_allocs_per_round")
        .ok_or("missing tree_round_allocs_per_round")?;
    if copies > 1.0 {
        return Err(format!(
            "tree_round_copies_per_arena = {copies}, want <= 1.0"
        ));
    }
    if round_allocs != 0.0 {
        return Err(format!(
            "tree_round_allocs_per_round = {round_allocs}, want 0"
        ));
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut entries = Vec::new();

    let fused_kernel_speedup = bench_exchange_kernels(&mut entries, smoke);
    let step = bench_exchange_step(&mut entries, smoke);
    let (tree_s, flat_s) = bench_tree_vs_flat(&mut entries, smoke);
    let overlap = bench_overlap(&mut entries, smoke);
    let tree_rounds = [4, 8].map(|p| bench_tree_round(&mut entries, smoke, p));

    let per_step = |stats: &PoolStats, steps: u64| {
        let s = steps.max(1) as f64;
        (
            stats.allocations() as f64 / s,
            stats.bytes_copied as f64 / s / (1 << 20) as f64,
        )
    };
    let (pooled_allocs, pooled_mb) = per_step(&step.new_pool, step.steps);
    let (shim_allocs, shim_mb) = per_step(&step.old_pool, step.steps);
    let acc = Acceptance {
        fused_kernel_speedup,
        step_speedup: if step.new_ms > 0.0 {
            step.old_ms / step.new_ms
        } else {
            0.0
        },
        pooled_allocs_per_step: pooled_allocs,
        seed_allocs_per_step: shim_allocs,
        pooled_mb_per_step: pooled_mb,
        seed_mb_per_step: shim_mb,
        tree_over_flat: if flat_s > 0.0 { tree_s / flat_s } else { 0.0 },
        overlap_efficiency: {
            let exposed = overlap.serial_s - overlap.compute_s;
            if exposed > 0.0 {
                (overlap.serial_s - overlap.pipe_s) / exposed
            } else {
                0.0
            }
        },
        pipelined_over_serial: if overlap.serial_s > 0.0 {
            overlap.pipe_s / overlap.serial_s
        } else {
            0.0
        },
        pipelined_allocs_per_round: overlap.pipe_allocs_per_round,
        tree_round_copies_per_arena: tree_rounds
            .iter()
            .map(|r| r.copies_per_arena)
            .fold(0.0, f64::max),
        tree_round_allocs_per_round: tree_rounds
            .iter()
            .map(|r| r.allocs_per_round)
            .fold(0.0, f64::max),
    };

    println!(
        "{:<22} {:<22} {:<18} {:>10} {:>12}",
        "bench", "shape", "impl", "ms", "rate"
    );
    for e in &entries {
        println!(
            "{:<22} {:<22} {:<18} {:>10.3} {:>9.2} {}",
            e.bench,
            e.shape,
            e.implementation,
            e.ms,
            e.rate(),
            e.rate_unit,
        );
    }
    println!(
        "\nfused kernel speedup {:.2}x | step speedup {:.2}x | allocs/step pooled {:.2} seed {:.2} | copied MB/step pooled {:.2} seed {:.2} | tree/flat {:.3}",
        acc.fused_kernel_speedup,
        acc.step_speedup,
        acc.pooled_allocs_per_step,
        acc.seed_allocs_per_step,
        acc.pooled_mb_per_step,
        acc.seed_mb_per_step,
        acc.tree_over_flat,
    );
    println!(
        "overlap efficiency {:.3} | pipelined/serial {:.3} | pipelined allocs/round {:.2}",
        acc.overlap_efficiency, acc.pipelined_over_serial, acc.pipelined_allocs_per_round,
    );
    println!(
        "tree round: {:.3} arena copies, {:.2} allocs per round (worst of P = 4, 8)",
        acc.tree_round_copies_per_arena, acc.tree_round_allocs_per_round,
    );

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_comm.json");
    let out_path = arg_value("--out").unwrap_or_else(|| default_out.to_string());
    if smoke {
        // Smoke runs must still hold the structural invariants that do
        // not depend on timing.
        if acc.pooled_allocs_per_step != 0.0 {
            eprintln!(
                "smoke: pooled path allocated ({} allocs/step)",
                acc.pooled_allocs_per_step
            );
            std::process::exit(1);
        }
        if acc.tree_over_flat > 1.0 {
            eprintln!(
                "smoke: tree reduce slower than flat gather ({})",
                acc.tree_over_flat
            );
            std::process::exit(1);
        }
        // The pipelined round must stay allocation-free at any arena
        // size; the efficiency bar itself is checked against the full
        // run's checked-in JSON (the smoke arena is α-dominated).
        if acc.pipelined_allocs_per_round != 0.0 {
            eprintln!(
                "smoke: pipelined exchange allocated ({} allocs/round)",
                acc.pipelined_allocs_per_round
            );
            std::process::exit(1);
        }
        // One shared payload, moved buffers: the counts hold at any size.
        if acc.tree_round_copies_per_arena > 1.0 || acc.tree_round_allocs_per_round != 0.0 {
            eprintln!(
                "smoke: tree_exchange_round copied {} arenas and allocated {} times per round",
                acc.tree_round_copies_per_arena, acc.tree_round_allocs_per_round
            );
            std::process::exit(1);
        }
        match validate_checked_in(&out_path) {
            Ok(()) => println!("smoke run ok; checked-in {out_path} acceptance holds"),
            Err(e) => {
                eprintln!("checked-in {out_path} fails acceptance: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let json = render_json(&entries, &acc);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
