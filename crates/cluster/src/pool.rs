//! The cluster-wide payload buffer pool: recycled `Vec<f32>` storage for
//! every message and collective result, plus the counting instrumentation
//! behind the allocation and bytes-copied gates (`tests/exchange_memory.rs`,
//! `benchmark/`'s `cluster.pool_fresh_per_round` and
//! `cluster.bytes_copied_per_round`).
//!
//! Ownership rules (DESIGN.md §10): a buffer is owned by exactly one of
//! (a) the rank that took it from the pool, (b) a `Message` in flight,
//! or (c) a shared [`Payload`](crate::Payload) until its last reference
//! is released. Payloads migrate with the message — the *receiver* keeps
//! or recycles them — so the pool is shared across the whole cluster:
//! asymmetric traffic (batches streaming to the GPUs, contributions
//! climbing the tree) drains nobody. Each [`crate::Comm`] keeps a small
//! private `FreeList` in front of it so small messages never touch the
//! shared mutex.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counter snapshot of pool activity (see [`BufferPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that required a fresh heap allocation.
    pub fresh: u64,
    /// Buffers managed outside the free list (a caller's `_into`
    /// output) whose capacity had to grow (a realloc).
    pub grown: u64,
    /// Buffers handed out without touching the allocator.
    pub reused: u64,
    /// Payload bytes copied through the exchange path (sends into
    /// messages, collective folds, results copied out).
    pub bytes_copied: u64,
}

impl PoolStats {
    /// Total allocator events: fresh buffers plus capacity growths.
    pub fn allocations(&self) -> u64 {
        self.fresh + self.grown
    }

    /// Counter-wise difference `self − earlier` (for per-window deltas).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            fresh: self.fresh - earlier.fresh,
            grown: self.grown - earlier.grown,
            reused: self.reused - earlier.reused,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// Free buffers keyed by capacity: best-fit lookup in `O(log k)` over
/// the `k` distinct capacities present, so neither the shared pool (under
/// its lock) nor a rank's private list ever scans.
#[derive(Default)]
pub(crate) struct FreeList {
    by_cap: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Number of free buffers.
    pub(crate) len: usize,
    /// Bytes of capacity they hold.
    pub(crate) bytes: usize,
}

impl FreeList {
    /// The smallest free buffer with `len ≤ capacity ≤ 2·len`, contents
    /// as recycled. Larger buffers are left for the requests that need
    /// them: a batch message never takes a parameter-sized buffer.
    pub(crate) fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let cap = *self.by_cap.range(len..=len.saturating_mul(2)).next()?.0;
        self.remove(cap)
    }

    /// The largest free buffer (what a full private list spills first).
    pub(crate) fn take_largest(&mut self) -> Option<Vec<f32>> {
        let cap = *self.by_cap.keys().next_back()?;
        self.remove(cap)
    }

    fn remove(&mut self, cap: usize) -> Option<Vec<f32>> {
        let bufs = self.by_cap.get_mut(&cap)?;
        let buf = bufs.pop()?;
        if bufs.is_empty() {
            self.by_cap.remove(&cap);
        }
        self.len -= 1;
        self.bytes -= cap * 4;
        Some(buf)
    }

    /// Adds a buffer; capacity-less ones are dropped — recycling them
    /// would only inflate the list.
    pub(crate) fn put(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        self.len += 1;
        self.bytes += cap * 4;
        self.by_cap.entry(cap).or_default().push(buf);
    }
}

/// A mutex-guarded `FreeList` with allocation and copy counters. All
/// counters are `Relaxed`: they are statistics — no memory is published
/// through them, and the bench reads them only after the cluster's
/// threads have joined.
#[derive(Default)]
pub struct BufferPool {
    free: Mutex<FreeList>,
    fresh: AtomicU64,
    grown: AtomicU64,
    reused: AtomicU64,
    bytes_copied: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer with capacity ≥ `len`: the best-fitting
    /// free one, else a fresh allocation of exactly `len` (a small free
    /// buffer is never regrown). Zero-length requests return `Vec::new()`
    /// without touching the pool or the counters.
    pub fn take(&self, len: usize) -> Vec<f32> {
        let mut buf = self.take_stale(len);
        buf.clear();
        buf
    }

    /// [`take`](Self::take) without the clear: the buffer keeps whatever
    /// length and contents its previous user left.
    pub(crate) fn take_stale(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let hit = self.lock_free().take(len);
        let counter = if hit.is_some() {
            &self.reused
        } else {
            &self.fresh
        };
        // ordering: statistics counter, see type docs.
        counter.fetch_add(1, Ordering::Relaxed);
        hit.unwrap_or_else(|| Vec::with_capacity(len))
    }

    fn lock_free(&self) -> MutexGuard<'_, FreeList> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns a buffer to the free list (capacity-less ones are dropped).
    pub fn put(&self, buf: Vec<f32>) {
        self.lock_free().put(buf);
    }

    /// Records `bytes` of payload copied through the exchange path.
    pub fn note_copy(&self, bytes: usize) {
        // ordering: statistics counter, see type docs.
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one allocator event on a buffer managed *outside* the free
    /// list (a caller-provided `_into` output growing its capacity) so
    /// allocs-per-step counts every allocation on the exchange path,
    /// pooled or not.
    pub fn note_external_alloc(&self) {
        // ordering: statistics counter, see type docs.
        self.grown.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            // ordering: statistics counters, see type docs.
            fresh: self.fresh.load(Ordering::Relaxed),
            grown: self.grown.load(Ordering::Relaxed), // ordering: statistics counter
            reused: self.reused.load(Ordering::Relaxed), // ordering: statistics counter
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed), // ordering: statistics counter
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_then_put_then_take_reuses() {
        let pool = BufferPool::new();
        let mut a = pool.take(16);
        a.extend_from_slice(&[1.0; 16]);
        pool.put(a);
        let b = pool.take(8);
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert!(b.capacity() >= 16);
        let s = pool.stats();
        assert_eq!((s.fresh, s.reused, s.grown), (1, 1, 0));
        assert_eq!(s.allocations(), 1);
    }

    #[test]
    fn a_small_free_buffer_is_left_alone_not_regrown() {
        let pool = BufferPool::new();
        let a = pool.take(4);
        pool.put(a);
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
        let s = pool.stats();
        assert_eq!((s.fresh, s.grown, s.reused), (2, 0, 0));
        // The small buffer is still there for a request it fits.
        assert!(pool.take(3).capacity() >= 4);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn free_list_hands_out_the_best_fit_within_twice_the_request() {
        let mut free = FreeList::default();
        for cap in [10usize, 12, 40, 1000] {
            free.put(Vec::with_capacity(cap));
        }
        assert_eq!((free.len, free.bytes), (4, 4 * 1062));
        assert_eq!(free.take(11).map(|b| b.capacity()), Some(12));
        assert_eq!(free.take(11), None, "10 is too small, 40 more than twice");
        assert_eq!(free.take(300), None, "a batch never takes an arena");
        assert_eq!(free.take_largest().map(|b| b.capacity()), Some(1000));
        assert_eq!(free.take(10).map(|b| b.capacity()), Some(10));
        assert_eq!((free.len, free.bytes), (1, 160));
        free.put(Vec::new());
        assert_eq!(free.len, 1, "capacity-less buffers are dropped");
    }

    #[test]
    fn zero_length_takes_are_free() {
        let pool = BufferPool::new();
        let v = pool.take(0);
        assert_eq!(v.capacity(), 0);
        pool.put(v);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn stats_since_subtracts() {
        let pool = BufferPool::new();
        let _ = pool.take(8);
        let before = pool.stats();
        let _ = pool.take(8);
        pool.note_copy(32);
        let d = pool.stats().since(&before);
        assert_eq!(d.fresh, 1);
        assert_eq!(d.bytes_copied, 32);
    }
}
