//! Thread-parallel execution substrate: scoped fork-join over borrowed
//! data, sized by a per-thread budget.
//!
//! The workspace is hermetic (no registry access, `unsafe` forbidden), so
//! instead of Rayon every parallel region is a `std::thread::scope`: the
//! threads borrow the caller's operands and write disjoint `&mut` pieces
//! of its output in place, and are joined before the call returns. A
//! persistent pool cannot do that in safe Rust (lending a non-`'static`
//! borrow to a parked thread means erasing the lifetime), and the owned
//! copies it needs instead cost more than the fork they avoid at every
//! shape this repo's workloads issue (DESIGN.md §8 has the table).
//!
//! * [`fan_out`] — the one fork-join: one scoped thread per job, the
//!   caller running the first. Every job runs under a one-thread budget,
//!   so a kernel inside a job never forks again. The batch-parallel
//!   convolution and the GEMM band split are both built on it.
//! * [`fork_threads`] / [`FORK_JOIN_FLOPS`] — the one measured gate: how
//!   many threads a compute region of a given flop count should fork
//!   over.
//! * [`WorkerPool`] / [`with_pool`] / [`PartitionedPool`] — the budget:
//!   how many threads the calling thread's regions may use. A §6.2 chip
//!   partition or a serve shard installs its group's share and every
//!   kernel below it sizes against [`current_threads`].
//! * [`par_chunks_mut`] / [`par_zip_mut`] / [`par_zip2_mut`] — band-split
//!   helpers for the memory-bound BLAS-1 elastic updates, gated behind a
//!   large-slice threshold where the spawn cost is noise.

use std::cell::Cell;
use std::num::NonZeroUsize;

/// Number of threads a data-parallel kernel should use (workers + the
/// submitting thread itself).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A compute region forks only at or above this many flops.
///
/// One scoped fork-join costs a thread spawn and a join per extra thread
/// (~45 µs on the recording host), and each band re-packs the operand it
/// shares with its siblings. Read from `--bin kernels`'
/// `gemm_par_vs_serial` table (`BENCH_kernels.json`, 2 threads): the
/// forced fork loses at every 9–19 MFLOP conv shape (0.4–0.9× the speed
/// of `gemm_serial`), straddles break-even at 256³ = 33.6 MFLOP
/// (0.85–1.4× across recordings) and wins at every shape from
/// 67.1 MFLOP up (1.1–1.9×) — so the gate sits at the first power of two
/// where nothing in the table loses. [`gemm`](crate::gemm()) and the
/// convolution's batch fan-out both read this constant.
pub const FORK_JOIN_FLOPS: u64 = 64 << 20;

/// Threads a compute region of `flops` should fork over: the calling
/// thread's budget ([`current_threads`]) at or above
/// [`FORK_JOIN_FLOPS`], otherwise one.
pub fn fork_threads(flops: u64) -> usize {
    if flops >= FORK_JOIN_FLOPS {
        current_threads()
    } else {
        1
    }
}

// ---------------------------------------------------------------------------
// Per-thread budget: the chip-partitioning seam (§6.2).
// ---------------------------------------------------------------------------

thread_local! {
    /// Threads this thread's compute regions may fork over; 0 = no budget
    /// installed, use the whole machine.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// Scoped threads this thread has spawned through [`fan_out`].
    static SPAWNED: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's budget set to `threads` (restored
/// on return or unwind).
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(threads)));
    f()
}

/// A thread budget: how many threads (`workers` + the thread that
/// installs it) one group's compute regions may fork over. It owns no
/// threads — regions spawn scoped threads per call ([`fan_out`]).
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A budget of `workers` threads beyond the installing one (0 is
    /// valid: every region then runs on the calling thread).
    pub fn new(workers: usize) -> Self {
        Self { workers }
    }

    /// Threads this budget brings to a parallel region.
    pub fn threads(&self) -> usize {
        self.workers + 1
    }
}

/// Installs `pool` as the calling thread's budget for the duration of
/// `f` (restored on return or unwind).
///
/// While installed, every kernel sizes its parallelism against it
/// instead of the whole machine: GEMM's band split, the convolution's
/// batch fan-out and the band helpers all read [`current_threads`]. This
/// is how a KNL-style chip partition ([`PartitionedPool`]) confines each
/// group's compute to the group's own share of the threads.
pub fn with_pool<R>(pool: &WorkerPool, f: impl FnOnce() -> R) -> R {
    with_threads(pool.threads(), f)
}

/// Threads the calling thread's compute region may fan out over: the
/// installed budget inside [`with_pool`] or a [`fan_out`] job, otherwise
/// [`max_threads`].
pub fn current_threads() -> usize {
    match BUDGET.with(Cell::get) {
        0 => max_threads(),
        n => n,
    }
}

/// Scoped threads the calling thread has spawned through [`fan_out`]
/// since it started — a per-thread statistic, so a test can assert that
/// a region stayed on its own thread without racing its neighbours.
pub fn threads_spawned() -> u64 {
    SPAWNED.with(Cell::get)
}

/// Fork-join over borrowed data: runs `f(job)` for every job, the first
/// on the calling thread and each other on a scoped thread of its own,
/// and returns when all are done. Callers build the jobs by zipping
/// `chunks_mut` of their outputs, one job per thread they want.
///
/// With two or more jobs each runs under a one-thread budget, so a GEMM
/// inside a job stays serial instead of forking again. A single job is
/// called directly, budget untouched.
///
/// # Panics
/// Propagates the panic if any job panicked.
pub fn fan_out<T, F>(jobs: impl IntoIterator<Item = T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else { return };
    let Some(second) = jobs.next() else {
        f(first);
        return;
    };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = std::iter::once(second)
            .chain(jobs)
            .map(|job| {
                SPAWNED.with(|n| n.set(n.get() + 1));
                s.spawn(move || with_threads(1, || f(job)))
            })
            .collect();
        with_threads(1, || f(first));
        // Joined one by one, not left to the scope: a join returns only
        // once the thread is gone, thread-locals destroyed — the next
        // fork then finds the buffers this one's threads handed back —
        // and it keeps the job's own panic message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// A KNL-style chip partition (§6.2): `G` NUMA-like groups, each with a
/// budget of its own — the thread-level analogue of splitting a 68-core
/// chip into groups that each hold a replica of the data and weights in
/// their own MCDRAM slice and only meet at a gradient reduction.
///
/// [`PartitionedPool::run`] drives one closure per group on its own
/// scoped driver thread with the group's budget installed via
/// [`with_pool`], so every tensor kernel the closure calls (GEMM, conv,
/// the banded elastic updates) parallelizes over that group's share
/// only. Groups therefore scale like independent small chips: no shared
/// queue, no cross-group work stealing, communication only through
/// whatever shared state the caller hands the closures.
pub struct PartitionedPool {
    groups: Vec<WorkerPool>,
}

impl PartitionedPool {
    /// A partition of the whole chip into `groups` groups, each with an
    /// equal share of [`max_threads`] (at least one thread per group —
    /// on small machines groups oversubscribe rather than disappear).
    ///
    /// # Panics
    /// Panics if `groups == 0`.
    pub fn new(groups: usize) -> Self {
        assert!(groups > 0, "need at least one partition group");
        Self::with_group_threads(groups, (max_threads() / groups).max(1))
    }

    /// A partition with an explicit per-group thread count.
    ///
    /// # Panics
    /// Panics if `groups == 0` or `threads_per_group == 0`.
    pub fn with_group_threads(groups: usize, threads_per_group: usize) -> Self {
        assert!(groups > 0, "need at least one partition group");
        assert!(threads_per_group > 0, "a group needs at least one thread");
        Self {
            groups: (0..groups)
                .map(|_| WorkerPool::new(threads_per_group - 1))
                .collect(),
        }
    }

    /// Number of groups in the partition.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Threads per group (workers + the group's driver thread).
    pub fn group_threads(&self) -> usize {
        self.groups.iter().map(|p| p.threads()).max().unwrap_or(1)
    }

    /// The budget of group `g`.
    ///
    /// # Panics
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &WorkerPool {
        &self.groups[g]
    }

    /// Runs `f(group_index)` once per group, each on its own driver
    /// thread with the group's budget installed ([`with_pool`]). Returns
    /// the results in group order.
    ///
    /// # Panics
    /// Propagates the panic if any group closure panicked.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .groups
                .iter()
                .enumerate()
                .map(|(g, pool)| {
                    let f = &f;
                    s.spawn(move || with_pool(pool, || f(g)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

// ---------------------------------------------------------------------------
// Scoped helpers for borrowed, memory-bound kernels.
// ---------------------------------------------------------------------------

/// Splits `x` into one contiguous chunk per thread and applies
/// `f(offset, chunk)` to each in parallel. Serial when a single chunk
/// would remain.
pub fn par_chunks_mut<F>(x: &mut [f32], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_chunks_mut_bands(current_threads(), x, f);
}

/// [`par_chunks_mut`] with an explicit band count instead of
/// [`current_threads`] — the banded/serial bit-equivalence tests force a
/// band split even on single-core machines through this entry point.
pub fn par_chunks_mut_bands<F>(bands: usize, x: &mut [f32], f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let threads = bands.min(x.len());
    if threads <= 1 {
        f(0, x);
        return;
    }
    let chunk = x.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (i, band) in x.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i * chunk, band));
        }
    });
}

/// Parallel zip over one mutable and one shared slice of equal length:
/// `f(y_chunk, x_chunk)` on corresponding contiguous chunks.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip_mut<F>(y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32]) + Sync,
{
    par_zip_mut_bands(current_threads(), y, x, f);
}

/// [`par_zip_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip_mut_bands<F>(bands: usize, y: &mut [f32], x: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32]) + Sync,
{
    assert_eq!(y.len(), x.len(), "par_zip_mut length mismatch");
    let threads = bands.min(y.len());
    if threads <= 1 {
        f(y, x);
        return;
    }
    let chunk = y.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (yc, xc) in y.chunks_mut(chunk).zip(x.chunks(chunk)) {
            let f = &f;
            s.spawn(move || f(yc, xc));
        }
    });
}

/// Parallel zip over one mutable and two shared slices of equal length.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip2_mut<F>(out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32], &[f32]) + Sync,
{
    par_zip2_mut_bands(current_threads(), out, a, b, f);
}

/// [`par_zip2_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip2_mut_bands<F>(bands: usize, out: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &[f32], &[f32]) + Sync,
{
    assert_eq!(out.len(), a.len(), "par_zip2_mut length mismatch");
    assert_eq!(out.len(), b.len(), "par_zip2_mut length mismatch");
    let threads = bands.min(out.len());
    if threads <= 1 {
        f(out, a, b);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((oc, ac), bc) in out
            .chunks_mut(chunk)
            .zip(a.chunks(chunk))
            .zip(b.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(oc, ac, bc));
        }
    });
}

/// Parallel zip over two mutable and one shared slice of equal length
/// (the Eq. 3–4 momentum shape: weights and velocity updated in place
/// against the gradient).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip21_mut<F>(y1: &mut [f32], y2: &mut [f32], a: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32]) + Sync,
{
    par_zip21_mut_bands(current_threads(), y1, y2, a, f);
}

/// [`par_zip21_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip21_mut_bands<F>(bands: usize, y1: &mut [f32], y2: &mut [f32], a: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32]) + Sync,
{
    assert_eq!(y1.len(), y2.len(), "par_zip21_mut length mismatch");
    assert_eq!(y1.len(), a.len(), "par_zip21_mut length mismatch");
    let threads = bands.min(y1.len());
    if threads <= 1 {
        f(y1, y2, a);
        return;
    }
    let chunk = y1.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((y1c, y2c), ac) in y1
            .chunks_mut(chunk)
            .zip(y2.chunks_mut(chunk))
            .zip(a.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(y1c, y2c, ac));
        }
    });
}

/// Parallel zip over two mutable and two shared slices of equal length
/// (the Eq. 5–6 momentum-elastic update shape: weights and velocity
/// updated in place against gradient and center).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn par_zip22_mut<F>(y1: &mut [f32], y2: &mut [f32], a: &[f32], b: &[f32], f: F)
where
    F: Fn(&mut [f32], &mut [f32], &[f32], &[f32]) + Sync,
{
    par_zip22_mut_bands(current_threads(), y1, y2, a, b, f);
}

/// [`par_zip22_mut`] with an explicit band count (see
/// [`par_chunks_mut_bands`]).
pub fn par_zip22_mut_bands<F>(
    bands: usize,
    y1: &mut [f32],
    y2: &mut [f32],
    a: &[f32],
    b: &[f32],
    f: F,
) where
    F: Fn(&mut [f32], &mut [f32], &[f32], &[f32]) + Sync,
{
    assert_eq!(y1.len(), y2.len(), "par_zip22_mut length mismatch");
    assert_eq!(y1.len(), a.len(), "par_zip22_mut length mismatch");
    assert_eq!(y1.len(), b.len(), "par_zip22_mut length mismatch");
    let threads = bands.min(y1.len());
    if threads <= 1 {
        f(y1, y2, a, b);
        return;
    }
    let chunk = y1.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (((y1c, y2c), ac), bc) in y1
            .chunks_mut(chunk)
            .zip(y2.chunks_mut(chunk))
            .zip(a.chunks(chunk))
            .zip(b.chunks(chunk))
        {
            let f = &f;
            s.spawn(move || f(y1c, y2c, ac, bc));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_runs_every_job_once_on_borrowed_data() {
        let mut out = vec![0u32; 10];
        let src: Vec<u32> = (0..10).collect();
        let before = threads_spawned();
        fan_out(out.chunks_mut(3).zip(src.chunks(3)), |(o, s)| {
            for (o, s) in o.iter_mut().zip(s) {
                *o += s * s;
            }
        });
        assert_eq!(out, src.iter().map(|v| v * v).collect::<Vec<_>>());
        // Four jobs: the caller ran one, three got a thread each.
        assert_eq!(threads_spawned() - before, 3);
    }

    #[test]
    fn fan_out_jobs_run_under_a_one_thread_budget() {
        let outer = WorkerPool::new(3);
        with_pool(&outer, || {
            let mut seen = [0usize; 3];
            fan_out(seen.iter_mut(), |slot| *slot = current_threads());
            assert_eq!(seen, [1; 3], "a job must not fork again");
            // The caller's own budget comes back after the join.
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn fan_out_single_job_runs_inline_with_budget_untouched() {
        let outer = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let before = threads_spawned();
        with_pool(&outer, || {
            fan_out([7usize], |v| {
                assert_eq!(v, 7);
                assert_eq!(std::thread::current().id(), caller);
                // One job is not a fork: kernels inside may still split.
                assert_eq!(current_threads(), 3);
            });
        });
        fan_out(std::iter::empty::<usize>(), |_| panic!("no jobs to run"));
        assert_eq!(threads_spawned(), before);
    }

    #[test]
    fn fan_out_propagates_a_job_panic_and_restores_the_budget() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(0..3, |i| {
                if i == 2 {
                    panic!("deliberate job panic");
                }
            });
        });
        assert!(caught.is_err());
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn fork_threads_gates_on_the_one_constant() {
        let pool = WorkerPool::new(4);
        with_pool(&pool, || {
            assert_eq!(fork_threads(FORK_JOIN_FLOPS - 1), 1);
            assert_eq!(fork_threads(FORK_JOIN_FLOPS), 5);
        });
        with_pool(&WorkerPool::new(0), || {
            assert_eq!(fork_threads(u64::MAX), 1);
        });
    }

    #[test]
    fn par_zip_mut_covers_all_elements() {
        let n = 100_003;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![1.0f32; n];
        par_zip_mut(&mut y, &x, |yc, xc| {
            for (yi, xi) in yc.iter_mut().zip(xc) {
                *yi += xi;
            }
        });
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 1.0 + i as f32);
        }
    }

    #[test]
    fn par_chunks_mut_offsets_are_consistent() {
        let n = 4099;
        let mut x = vec![0.0f32; n];
        par_chunks_mut(&mut x, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as f32;
            }
        });
        for (i, v) in x.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn par_zip21_mut_covers_all_elements() {
        let n = 10_007;
        let g: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
        let mut w = vec![1.0f32; n];
        let mut v = vec![0.5f32; n];
        par_zip21_mut(&mut w, &mut v, &g, |wc, vc, gc| {
            for ((wi, vi), gi) in wc.iter_mut().zip(vc.iter_mut()).zip(gc) {
                *vi = 0.9 * *vi - 0.1 * gi;
                *wi += *vi;
            }
        });
        for i in 0..n {
            let vi = 0.9f32 * 0.5 - 0.1 * g[i];
            assert_eq!(v[i], vi);
            assert_eq!(w[i], 1.0 + vi);
        }
    }

    #[test]
    fn forced_band_split_is_bit_identical_to_serial() {
        // Boundary-heavy length: not a multiple of the band counts below.
        let n = 4099;
        let a: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        let mut serial = vec![0.1f32; n];
        let kernel = |oc: &mut [f32], ac: &[f32], bc: &[f32]| {
            for ((o, x), y) in oc.iter_mut().zip(ac).zip(bc) {
                *o += 0.3 * (x - 0.7 * y);
            }
        };
        kernel(&mut serial, &a, &b);
        for bands in [2usize, 3, 5, 8] {
            let mut banded = vec![0.1f32; n];
            par_zip2_mut_bands(bands, &mut banded, &a, &b, kernel);
            for i in 0..n {
                assert_eq!(
                    serial[i].to_bits(),
                    banded[i].to_bits(),
                    "bands={bands} i={i}"
                );
            }
        }
    }

    #[test]
    fn par_zip2_mut_matches_serial() {
        let n = 50_001;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let mut out = vec![0.0f32; n];
        par_zip2_mut(&mut out, &a, &b, |oc, ac, bc| {
            for ((o, x), y) in oc.iter_mut().zip(ac).zip(bc) {
                *o = x - y;
            }
        });
        for i in 0..n {
            assert_eq!(out[i], a[i] - b[i]);
        }
    }

    #[test]
    fn with_pool_overrides_current_threads_and_restores() {
        assert_eq!(current_threads(), max_threads());
        let p = WorkerPool::new(3);
        assert_eq!(with_pool(&p, current_threads), 4);
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn with_pool_nests_and_restores_outer_override() {
        let outer = WorkerPool::new(1);
        let nested = WorkerPool::new(5);
        with_pool(&outer, || {
            assert_eq!(current_threads(), 2);
            let seen = with_pool(&nested, current_threads);
            assert_eq!(seen, 6);
            // The outer override must come back, not the global default.
            assert_eq!(current_threads(), 2);
        });
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn with_pool_restores_on_unwind() {
        let p = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_pool(&p, || panic!("deliberate"));
        }));
        assert!(caught.is_err());
        assert_eq!(
            current_threads(),
            max_threads(),
            "override leaked past a panic"
        );
    }

    #[test]
    fn partitioned_pool_runs_groups_in_order_with_own_budgets() {
        let part = PartitionedPool::with_group_threads(4, 2);
        assert_eq!(part.groups(), 4);
        assert_eq!(part.group_threads(), 2);
        let out = part.run(|g| (g, current_threads()));
        for (g, row) in out.iter().enumerate() {
            assert_eq!(row.0, g, "results must come back in group order");
            assert_eq!(row.1, 2, "group {g} must see its own budget installed");
        }
    }

    #[test]
    fn single_thread_groups_never_fork() {
        let part = PartitionedPool::with_group_threads(3, 1);
        let out = part.run(|_| {
            assert_eq!(current_threads(), 1);
            (fork_threads(u64::MAX), threads_spawned())
        });
        assert_eq!(out, vec![(1, 0); 3]);
    }

    #[test]
    fn partitioned_pool_propagates_group_panic() {
        let part = PartitionedPool::with_group_threads(2, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            part.run(|g| {
                if g == 1 {
                    panic!("group failure");
                }
                g
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn equal_share_partition_never_drops_a_group() {
        // More groups than cores: every group still gets one thread.
        let part = PartitionedPool::new(max_threads() * 2);
        assert_eq!(part.groups(), max_threads() * 2);
        assert!(part.group_threads() >= 1);
    }
}
