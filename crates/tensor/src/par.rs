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
//! * The budget — [`with_budget`] / [`current_threads`] /
//!   [`PartitionedPool`]: how many threads the calling thread's regions
//!   may use. A §6.2 chip partition or a serve shard installs its group's
//!   share and every kernel below it sizes against it.
//! * The two gates — [`fork_threads`] / [`FORK_JOIN_FLOPS`] for compute
//!   regions (how many threads a region of a given flop count should
//!   fork over) and [`band_len`] / [`PAR_ELEMS`] for the memory-bound
//!   BLAS-1 updates (how long a band of an `n`-element sweep should be).
//! * [`fan_out`] — the one fork-join: one scoped thread per job, the
//!   caller running the first. Every job runs under a one-thread budget,
//!   so a kernel inside a job never forks again. The batch-parallel
//!   convolution, the GEMM band split and every banded update in
//!   [`crate::ops`] are built on it.

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
/// One scoped fork-join costs a thread spawn and a join per extra
/// thread, and each band re-packs the operand it shares with its
/// siblings. Timed in place inside a conv layer of `train_vgg_p1` on the
/// recording host, a two-thread fork spends ~45 µs in `spawn` on the
/// parent, the child runs its first instruction ~100 µs after the fork
/// began, and the fork's wall time exceeds its longer job by 160–240 µs.
/// The gate was not derived from those numbers but read from a table,
/// `--bin kernels`' `gemm_par_vs_serial` (`BENCH_kernels.json`, 2
/// threads): the forced fork loses at every 9–19 MFLOP conv shape
/// (0.4–0.9× the speed of `gemm_serial`), straddles break-even at
/// 256³ = 33.6 MFLOP (0.85–1.4× across recordings) and wins at every
/// shape from 67.1 MFLOP up (1.1–1.9×) — so the gate sits at the first
/// power of two where nothing in the table loses. [`gemm`](crate::gemm())
/// and the convolution's batch fan-out both read this constant.
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

/// Element count at and above which the mutating BLAS-1 kernels of
/// [`crate::ops`] fan out over scoped threads. 1 Mi floats = 4 MiB per
/// operand: below this a single core's memory pass (~100 µs) is cheaper
/// than thread spawns; above it the kernel is DRAM-bound and splits
/// near-linearly. The §5.2 packed arena of a VGG-class model (≈14.7 M
/// params) qualifies; a LeNet-class arena (≈431 k) stays serial.
pub const PAR_ELEMS: usize = 1 << 20;

/// Band length for an `n`-element memory-bound sweep: callers cut their
/// operands with `chunks_mut(band_len(n))` and hand the zipped chunks to
/// [`fan_out`]. Below [`PAR_ELEMS`] or under a one-thread budget the
/// band is the whole slice — one chunk, which [`fan_out`] runs inline —
/// otherwise one band per thread of the budget. Never 0, so an empty
/// slice is zero chunks rather than a `chunks_mut(0)` panic.
pub fn band_len(n: usize) -> usize {
    let threads = if n >= PAR_ELEMS { current_threads() } else { 1 };
    n.div_ceil(threads).max(1)
}

thread_local! {
    /// Threads this thread's compute regions may fork over; 0 = no budget
    /// installed, use the whole machine.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
    /// Scoped threads this thread has spawned through [`fan_out`].
    static SPAWNED: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` with the calling thread's budget set to `threads` (restored
/// on return or unwind) — the chip-partitioning seam of §6.2.
///
/// While installed, every kernel sizes its parallelism against it
/// instead of the whole machine: GEMM's band split, the convolution's
/// batch fan-out and the banded updates all read [`current_threads`].
/// This is how a KNL-style chip partition ([`PartitionedPool`]) or a
/// serve shard confines its compute to its own share of the threads.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "a budget needs at least one thread");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(threads)));
    f()
}

/// Threads the calling thread's compute region may fan out over: the
/// installed budget inside [`with_budget`] or a [`fan_out`] job,
/// otherwise [`max_threads`].
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
/// or a banded update inside a job stays serial instead of forking
/// again. A single job is called directly, budget untouched.
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
                s.spawn(move || with_budget(1, || f(job)))
            })
            .collect();
        with_budget(1, || f(first));
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
/// [`with_budget`], so every tensor kernel the closure calls (GEMM, conv,
/// the banded elastic updates) parallelizes over that group's share
/// only. Groups therefore scale like independent small chips: no shared
/// queue, no cross-group work stealing, communication only through
/// whatever shared state the caller hands the closures.
pub struct PartitionedPool {
    groups: usize,
    group_threads: usize,
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
            groups,
            group_threads: threads_per_group,
        }
    }

    /// Number of groups in the partition.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Threads per group (the group's driver thread included).
    pub fn group_threads(&self) -> usize {
        self.group_threads
    }

    /// Runs `f(group_index)` once per group, each on its own driver
    /// thread with the group's budget installed ([`with_budget`]).
    /// Returns the results in group order.
    ///
    /// # Panics
    /// Propagates the panic if any group closure panicked.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let f = &f;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.groups)
                .map(|g| s.spawn(move || with_budget(self.group_threads, || f(g))))
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
        with_budget(4, || {
            let mut seen = [0usize; 3];
            fan_out(seen.iter_mut(), |slot| *slot = current_threads());
            assert_eq!(seen, [1; 3], "a job must not fork again");
            // The caller's own budget comes back after the join.
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn fan_out_single_job_runs_inline_with_budget_untouched() {
        let caller = std::thread::current().id();
        let before = threads_spawned();
        with_budget(3, || {
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
        with_budget(5, || {
            assert_eq!(fork_threads(FORK_JOIN_FLOPS - 1), 1);
            assert_eq!(fork_threads(FORK_JOIN_FLOPS), 5);
        });
        with_budget(1, || assert_eq!(fork_threads(u64::MAX), 1));
    }

    #[test]
    fn band_len_is_one_chunk_below_the_gate_and_one_band_per_thread_above() {
        with_budget(3, || {
            assert_eq!(band_len(0), 1, "chunks_mut(0) would panic");
            assert_eq!(band_len(PAR_ELEMS - 1), PAR_ELEMS - 1);
            assert_eq!(band_len(PAR_ELEMS + 37), (PAR_ELEMS + 37).div_ceil(3));
        });
        with_budget(1, || assert_eq!(band_len(PAR_ELEMS + 37), PAR_ELEMS + 37));
    }

    #[test]
    fn with_budget_overrides_current_threads_and_restores() {
        assert_eq!(current_threads(), max_threads());
        assert_eq!(with_budget(4, current_threads), 4);
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn with_budget_nests_and_restores_outer_override() {
        with_budget(2, || {
            assert_eq!(current_threads(), 2);
            assert_eq!(with_budget(6, current_threads), 6);
            // The outer override must come back, not the global default.
            assert_eq!(current_threads(), 2);
        });
        assert_eq!(current_threads(), max_threads());
    }

    #[test]
    fn with_budget_restores_on_unwind() {
        let caught = std::panic::catch_unwind(|| with_budget(3, || panic!("deliberate")));
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
