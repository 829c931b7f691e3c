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
//! * The budget — [`with_budget`] / [`current_threads`]: how many
//!   threads the calling thread's regions may use, one integer. A serve
//!   replica installs its share and every kernel below it sizes against
//!   it; a [`fan_out`] job runs under one.
//! * The one rule, two constants — a region forks when it does at least
//!   [`FORK_JOIN_FLOPS`] flops **or** sweeps at least [`PAR_ELEMS`]
//!   floats. [`fork_threads`] applies both to a compute region (a GEMM,
//!   a convolution's batch), which is compute-bound when large and
//!   memory-bound when skinny; [`band_len`] applies the float side to
//!   the BLAS-1 updates (how long a band of an `n`-element sweep should
//!   be).
//! * Whoever hosts concurrent actors divides the budget: a wall-clock
//!   worker or a thread-hosted cluster rank runs under its share of the
//!   caller's budget, so the gates above never oversubscribe the host.
//! * [`fan_out`] — the one fork-join: one scoped thread per job, the
//!   caller running the first. Every job runs under a one-thread budget,
//!   so a kernel inside a job never forks again. The batch-parallel
//!   convolution, the GEMM band split and every banded update in
//!   [`crate::ops`] are built on it.

use crate::gemm;
use std::cell::Cell;
use std::num::NonZeroUsize;

/// Number of threads a data-parallel kernel should use (workers + the
/// submitting thread itself).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A compute region forks at or above this many flops (or at
/// [`PAR_ELEMS`] streamed floats, see [`fork_threads`]).
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

/// Threads a compute region of `flops` that streams `floats` should
/// fork over: the calling thread's budget ([`current_threads`]) when
/// `flops ≥` [`FORK_JOIN_FLOPS`] **or** `floats ≥` [`PAR_ELEMS`],
/// otherwise one.
///
/// The float side is the memory-bound half of the rule. A skinny GEMM
/// (a small-batch `Dense` layer: 2×1024×1024 is 4.2 MFLOP) is far under
/// the flop gate, yet its time is one pass over a 4 MiB weight — the
/// same DRAM-bound sweep a BLAS-1 update bands at [`PAR_ELEMS`], and
/// `gemm_par_vs_serial`'s `mlp1024_b2` rows show the forced fork winning
/// there. For a GEMM `floats` is its largest operand,
/// `max(m·k, k·n, m·n)`.
pub fn fork_threads(flops: u64, floats: usize) -> usize {
    if flops >= FORK_JOIN_FLOPS || floats >= PAR_ELEMS {
        current_threads()
    } else {
        1
    }
}

/// Floats a sweep must stream before it forks: the band gate of the
/// mutating BLAS-1 kernels of [`crate::ops`] and of
/// [`ParamArena::zero`](crate::ParamArena::zero), and the float side of
/// [`fork_threads`]. 0.75 Mi floats = 3 MiB per
/// operand: below this a single core's memory pass (~75 µs) is cheaper
/// than thread spawns; above it the kernel is DRAM-bound and splits
/// near-linearly. Read from `gemm_par_vs_serial`: the last forced fork
/// that loses streams 0.5 Mi floats, and every one from the MLP's
/// 784→1024 layer (0.77 Mi) up wins. The §5.2 packed arena of a
/// VGG-class model (≈14.7 M params) qualifies; a LeNet-class arena
/// (≈431 k) stays serial.
pub const PAR_ELEMS: usize = 3 << 18;

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
/// on return or unwind).
///
/// While installed, every kernel sizes its parallelism against it
/// instead of the whole machine: GEMM's band split, the convolution's
/// batch fan-out and the banded updates all read [`current_threads`].
/// This is how a serve replica confines its compute to its share of the
/// threads, and how a [`fan_out`] job is kept from forking again.
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

/// The budget [`with_budget`] (or a [`fan_out`] job) installed on the
/// calling thread, if any.
pub fn installed_budget() -> Option<usize> {
    NonZeroUsize::new(BUDGET.with(Cell::get)).map(NonZeroUsize::get)
}

/// Threads the calling thread's compute region may fan out over: the
/// [`installed_budget`], otherwise [`max_threads`].
pub fn current_threads() -> usize {
    installed_budget().unwrap_or_else(max_threads)
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
                s.spawn(move || {
                    with_budget(1, || f(job));
                    gemm::counts()
                })
            })
            .collect();
        with_budget(1, || f(first));
        // Joined one by one, not left to the scope: a join returns only
        // once the thread is gone, thread-locals destroyed — the next
        // fork then finds the buffers this one's threads handed back —
        // and it keeps the job's own panic message. A job's GEMM counts
        // join the caller's, so work done on a spawned thread is counted
        // once, by the caller, as if the caller had run it.
        for h in handles {
            match h.join() {
                Ok(counts) => gemm::absorb_counts(counts),
                Err(payload) => std::panic::resume_unwind(payload),
            }
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
    fn fork_threads_forks_on_either_gate() {
        with_budget(5, || {
            assert_eq!(fork_threads(FORK_JOIN_FLOPS - 1, PAR_ELEMS - 1), 1);
            assert_eq!(fork_threads(FORK_JOIN_FLOPS, 0), 5);
            assert_eq!(fork_threads(0, PAR_ELEMS), 5);
        });
        with_budget(1, || assert_eq!(fork_threads(u64::MAX, usize::MAX), 1));
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
        assert_eq!(installed_budget(), None);
        assert_eq!(with_budget(4, current_threads), 4);
        assert_eq!(with_budget(4, installed_budget), Some(4));
        assert_eq!(current_threads(), max_threads());
        assert_eq!(installed_budget(), None);
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
}
