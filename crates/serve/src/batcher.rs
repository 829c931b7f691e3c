//! The dynamic micro-batcher: per-shard FIFO queues with deadline
//! coalescing and pooled (counted) request storage.
//!
//! Coalescing rule: a shard's batch **closes at `batch_cap` requests or
//! `deadline_us` after its oldest request arrived, whichever comes
//! first**. FCFS holds within a shard (batches take consecutive queue
//! heads); the engine dispatches closed batches in `(ready time, shard)`
//! total order across shards.
//!
//! Storage discipline mirrors the training step's `TrainScratch`: pixel
//! payload buffers and batch request-lists are checked out of free
//! pools whose growth is counted through [`ScratchStats`]-style
//! counters. At steady state a request's whole queue→batch→recycle life
//! touches the allocator zero times — the engine's
//! `steady_state_dispatches_without_pooled_allocations` test asserts it.

use easgd_tensor::{BufGrowth, ScratchStats, TrainScratch};
use std::collections::VecDeque;

/// Counter-wise sum of two stats snapshots.
pub(crate) fn add_stats(a: ScratchStats, b: ScratchStats) -> ScratchStats {
    ScratchStats {
        fresh: a.fresh + b.fresh,
        grown: a.grown + b.grown,
        reused: a.reused + b.reused,
    }
}

/// Static configuration of a [`Batcher`] (and of the engine above it).
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Number of shards: one FIFO queue (and one model replica) each.
    pub shards: usize,
    /// Close a batch as soon as it holds this many requests.
    pub batch_cap: usize,
    /// … or when its oldest request has waited this long (µs).
    pub deadline_us: u64,
    /// Pixels per request (0 for modeled-only runs with no payload).
    pub sample_len: usize,
}

/// One queued inference request.
#[derive(Debug)]
pub struct Request {
    id: u64,
    arrival_us: u64,
    pixels: Vec<f32>,
}

impl Request {
    /// Engine-assigned id, increasing in submission order.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Logical arrival time (µs).
    pub fn arrival_us(&self) -> u64 {
        self.arrival_us
    }

    /// The request's pixel payload (`sample_len` elements).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }
}

/// A closed, ready-to-dispatch batch: consecutive FCFS requests of one
/// shard, ragged (1 ≤ len ≤ `batch_cap`), never padded.
#[derive(Debug)]
pub struct Batch {
    shard: usize,
    ready_us: u64,
    reqs: Vec<Request>,
}

impl Batch {
    /// The shard whose queue this batch drained.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Close time (µs): the cap-filling arrival, or the oldest
    /// request's arrival plus the deadline.
    pub fn ready_us(&self) -> u64 {
        self.ready_us
    }

    /// Number of requests (the ragged batch size).
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when the batch holds no requests (never dispatched).
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The member requests, in FCFS order.
    pub fn reqs(&self) -> &[Request] {
        &self.reqs
    }
}

/// The coalescing request queue. See the module docs for the policy.
#[derive(Debug)]
pub struct Batcher {
    cfg: BatcherConfig,
    queues: Vec<VecDeque<Request>>,
    /// Recycled pixel buffers (sized through `scratch`, hence counted).
    slot_pool: Vec<Vec<f32>>,
    /// Recycled batch request-lists (capacity events in `list_stats`).
    list_pool: Vec<Vec<Request>>,
    scratch: TrainScratch,
    list_stats: ScratchStats,
    next_id: u64,
}

impl Batcher {
    /// An empty batcher.
    ///
    /// # Panics
    /// Panics if `shards`, `batch_cap` or `deadline_us` is zero.
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.batch_cap > 0, "batch cap must be positive");
        assert!(cfg.deadline_us > 0, "deadline must be positive");
        Self {
            cfg,
            queues: (0..cfg.shards).map(|_| VecDeque::new()).collect(),
            slot_pool: Vec::new(),
            list_pool: Vec::new(),
            scratch: TrainScratch::default(),
            list_stats: ScratchStats::default(),
            next_id: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> BatcherConfig {
        self.cfg
    }

    /// Pooled allocation counters: pixel-slot sizing plus request-list
    /// capacity events. Steady state leaves `allocations()` unchanged.
    pub fn stats(&self) -> ScratchStats {
        add_stats(self.scratch.stats(), self.list_stats)
    }

    /// Requests currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Earliest `(deadline, shard)` over shards with queued requests —
    /// the next timer the engine must honor. Ties on the deadline break
    /// toward the smaller shard id.
    pub fn next_deadline(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, usize)> = None;
        for (shard, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.front() {
                let cand = (head.arrival_us + self.cfg.deadline_us, shard);
                best = Some(match best {
                    Some(b) if b <= cand => b,
                    _ => cand,
                });
            }
        }
        best
    }

    /// Enqueues a request arriving at `now_us` on `shard`, its payload
    /// written by `fill` into a pooled buffer. Returns the request id
    /// and the batch this arrival closed, if it filled the shard's
    /// queue to the cap (`ready time = now_us`).
    ///
    /// The caller must fire due deadlines (`close_due`) before
    /// submitting; at an exact tie the deadline batch closes first and
    /// the new arrival starts the next batch.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn submit(
        &mut self,
        now_us: u64,
        shard: usize,
        fill: &mut dyn FnMut(&mut [f32]),
    ) -> (u64, Option<Batch>) {
        assert!(shard < self.cfg.shards, "shard {shard} out of range");
        let id = self.next_id;
        self.next_id += 1;
        let mut pixels = self.take_slot();
        fill(&mut pixels);
        self.queues[shard].push_back(Request {
            id,
            arrival_us: now_us,
            pixels,
        });
        let closed = if self.queues[shard].len() >= self.cfg.batch_cap {
            Some(self.close(shard, now_us))
        } else {
            None
        };
        (id, closed)
    }

    /// Closes the earliest due batch (deadline ≤ `now_us`), if any, in
    /// `(deadline, shard)` order. Call repeatedly until `None`.
    pub fn close_due(&mut self, now_us: u64) -> Option<Batch> {
        let (deadline, shard) = self.next_deadline()?;
        if deadline > now_us {
            return None;
        }
        Some(self.close(shard, deadline))
    }

    /// Force-closes the earliest pending batch at its (possibly future)
    /// deadline — the end-of-run drain, preserving the same total order.
    pub fn close_next(&mut self) -> Option<Batch> {
        let (deadline, shard) = self.next_deadline()?;
        Some(self.close(shard, deadline))
    }

    /// Drains up to `batch_cap` FCFS requests of `shard` into a pooled
    /// batch closing at `ready_us`.
    fn close(&mut self, shard: usize, ready_us: u64) -> Batch {
        let take = self.queues[shard].len().min(self.cfg.batch_cap);
        debug_assert!(take > 0, "closing an empty shard queue");
        // Reserve the full cap, not the ragged size: every recycled list
        // then has identical capacity, so any pooled list fits any
        // future batch (a mixed-capacity pool would hit Grown events at
        // steady state whenever a big batch popped a small list).
        let mut reqs = self.take_list(self.cfg.batch_cap);
        for _ in 0..take {
            if let Some(r) = self.queues[shard].pop_front() {
                reqs.push(r);
            }
        }
        Batch {
            shard,
            ready_us,
            reqs,
        }
    }

    /// Returns a dispatched batch's storage to the pools: pixel buffers
    /// and the request list keep their capacity for the next cycle.
    pub fn recycle(&mut self, batch: Batch) {
        let Batch { mut reqs, .. } = batch;
        for req in reqs.drain(..) {
            self.slot_pool.push(req.pixels);
        }
        self.list_pool.push(reqs);
    }

    /// Checks a pixel buffer out of the pool — the one place on the
    /// request path allowed to touch the allocator (pool growth), and
    /// it is counted.
    fn take_slot(&mut self) -> Vec<f32> {
        let mut v = self.slot_pool.pop().unwrap_or_default();
        self.scratch.ensure_f32(&mut v, self.cfg.sample_len);
        v
    }

    /// Checks a request list out of the pool, with capacity for `cap`
    /// entries; capacity events are tallied like `ensure_f32`.
    fn take_list(&mut self, cap: usize) -> Vec<Request> {
        let mut v = self.list_pool.pop().unwrap_or_default();
        v.clear();
        if cap > 0 {
            let growth = if v.capacity() >= cap {
                BufGrowth::Reused
            } else if v.capacity() == 0 {
                BufGrowth::Fresh
            } else {
                BufGrowth::Grown
            };
            v.reserve(cap);
            match growth {
                BufGrowth::Fresh => self.list_stats.fresh += 1,
                BufGrowth::Grown => self.list_stats.grown += 1,
                BufGrowth::Reused => self.list_stats.reused += 1,
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, cap: usize, deadline: u64) -> BatcherConfig {
        BatcherConfig {
            shards,
            batch_cap: cap,
            deadline_us: deadline,
            sample_len: 4,
        }
    }

    fn put(b: &mut Batcher, t: u64, shard: usize) -> (u64, Option<Batch>) {
        b.submit(t, shard, &mut |px| px.fill(1.0))
    }

    #[test]
    fn cap_close_fires_on_filling_arrival() {
        let mut b = Batcher::new(cfg(1, 3, 1000));
        assert!(put(&mut b, 10, 0).1.is_none());
        assert!(put(&mut b, 20, 0).1.is_none());
        let batch = put(&mut b, 30, 0).1.into_iter().next();
        let batch = batch.as_ref();
        assert_eq!(batch.map(Batch::len), Some(3));
        assert_eq!(batch.map(Batch::ready_us), Some(30));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn deadline_close_takes_partial_batch() {
        let mut b = Batcher::new(cfg(1, 8, 100));
        let _ = put(&mut b, 10, 0);
        let _ = put(&mut b, 50, 0);
        assert!(b.close_due(109).is_none(), "deadline is head + 100 = 110");
        let batch = b.close_due(110);
        let batch = batch.as_ref();
        assert_eq!(batch.map(Batch::len), Some(2));
        assert_eq!(batch.map(Batch::ready_us), Some(110));
    }

    #[test]
    fn fcfs_within_shard_and_tie_breaks_by_shard() {
        let mut b = Batcher::new(cfg(2, 8, 100));
        let _ = put(&mut b, 5, 1);
        let _ = put(&mut b, 5, 0);
        let _ = put(&mut b, 6, 1);
        // Both shards share deadline 105; shard 0 closes first.
        let first = b.close_due(105);
        assert_eq!(first.as_ref().map(Batch::shard), Some(0));
        let second = b.close_due(105);
        let ids: Vec<u64> = second
            .as_ref()
            .map(|x| x.reqs().iter().map(Request::id).collect())
            .unwrap_or_default();
        assert_eq!(ids, vec![0, 2], "shard 1 keeps submission order");
    }

    #[test]
    fn recycle_reaches_zero_alloc_steady_state() {
        let mut b = Batcher::new(cfg(1, 4, 100));
        // Warm-up: grow pools to steady size.
        for round in 0..2u64 {
            for i in 0..4 {
                if let (_, Some(batch)) = put(&mut b, round * 1000 + i, 0) {
                    b.recycle(batch);
                }
            }
        }
        let warm = b.stats();
        for round in 2..6u64 {
            for i in 0..4 {
                if let (_, Some(batch)) = put(&mut b, round * 1000 + i, 0) {
                    b.recycle(batch);
                }
            }
        }
        let delta = b.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "steady-state batching allocated");
        assert!(delta.reused > 0, "counters saw no pool traffic");
    }

    #[test]
    fn queue_never_exceeds_cap_minus_one_after_submit() {
        let mut b = Batcher::new(cfg(1, 3, 1_000_000));
        for t in 0..20 {
            let (_, closed) = put(&mut b, t, 0);
            if let Some(batch) = closed {
                b.recycle(batch);
            }
            assert!(b.pending() < 3);
        }
    }
}
