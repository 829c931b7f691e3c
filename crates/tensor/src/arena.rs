//! Packed parameter arena: the §5.2 “single-layer communication” substrate.
//!
//! Deep-learning frameworks of the paper's era allocated each layer's
//! weights separately and sent one message per layer. §5.2 shows that
//! packing all layers into one contiguous allocation wins twice: the α
//! (latency) term is paid once instead of once per layer, and contiguous
//! memory access has a higher cache-hit rate.
//!
//! [`ParamArena`] is that contiguous allocation: a single `Vec<f32>` with a
//! registry of named [`Segment`]s. A whole model's parameters — and,
//! symmetrically, its gradients, velocities, and center weights — live in
//! arenas of identical layout, so elastic updates and collectives operate
//! on one flat slice.
//!
//! [`TrainScratch`] extends the same idea from weights to the *transient*
//! side of a training step: activations, gradients, masks/caches and
//! padded conv inputs. Every per-step buffer request on the pooled
//! forward/backward path is routed through its counted `ensure_*` /
//! `shape_tensor*` entry points, so after a warm-up step the steady state
//! performs zero heap allocations — and the counters prove it (see
//! DESIGN.md §11 and `tests/step_alloc.rs`).

use crate::gemm::Panels;
use crate::par;
use crate::tensor::Tensor;
use std::fmt;

/// A named sub-range of a [`ParamArena`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Human-readable name, e.g. `"conv1.weight"`.
    pub name: String,
    /// Offset in elements from the start of the arena.
    pub offset: usize,
    /// Length in elements.
    pub len: usize,
}

impl Segment {
    /// The element range of this segment.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// Builder that lays out segments back-to-back, then freezes into an arena.
#[derive(Default)]
pub struct ArenaBuilder {
    segments: Vec<Segment>,
    total: usize,
}

impl ArenaBuilder {
    /// A builder with no segments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment of `len` elements and returns its index.
    pub fn push(&mut self, name: impl Into<String>, len: usize) -> usize {
        let idx = self.segments.len();
        self.segments.push(Segment {
            name: name.into(),
            offset: self.total,
            len,
        });
        self.total += len;
        idx
    }

    /// Freezes the layout into a zero-initialized arena.
    pub fn build(self) -> ParamArena {
        ParamArena {
            data: vec![0.0; self.total],
            segments: self.segments,
        }
    }
}

/// A contiguous, named-segment parameter buffer.
#[derive(Clone, PartialEq)]
pub struct ParamArena {
    data: Vec<f32>,
    segments: Vec<Segment>,
}

impl ParamArena {
    /// Starts building an arena.
    pub fn builder() -> ArenaBuilder {
        ArenaBuilder::new()
    }

    /// A segment-less arena over `len` raw elements (useful when only the
    /// flat view matters, e.g. a gradient accumulation buffer).
    pub fn flat(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
            segments: vec![Segment {
                name: "flat".to_string(),
                offset: 0,
                len,
            }],
        }
    }

    /// An arena with the same segment layout as `other`, zero-filled.
    ///
    /// Gradients, momenta and center weights are all laid out like the
    /// weights they shadow, which is what lets Equations (1)–(6) run as
    /// flat-slice kernels.
    pub fn like(other: &ParamArena) -> Self {
        Self {
            data: vec![0.0; other.data.len()],
            segments: other.segments.clone(),
        }
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the arena holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (the message size of the packed layout).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// The segment registry.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The whole arena as one flat slice — the packed message of §5.2.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Read-only view of segment `idx`.
    pub fn segment(&self, idx: usize) -> &[f32] {
        let r = self.segments[idx].range();
        &self.data[r]
    }

    /// Mutable view of segment `idx`.
    pub fn segment_mut(&mut self, idx: usize) -> &mut [f32] {
        let r = self.segments[idx].range();
        &mut self.data[r]
    }

    /// Looks a segment up by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.segments.iter().position(|s| s.name == name)
    }

    /// Segments `first` and `second` at once, both mutable: how a layer
    /// gets simultaneous access to its weight and bias gradients without
    /// aliasing the rest of the model.
    ///
    /// # Panics
    /// Panics unless `first` precedes `second` in the arena.
    pub fn segment_pair_mut(&mut self, first: usize, second: usize) -> (&mut [f32], &mut [f32]) {
        let (a, b) = (self.segments[first].range(), self.segments[second].range());
        assert!(a.end <= b.start, "segment {first} must precede {second}");
        let (head, tail) = self.data.split_at_mut(b.start);
        (&mut head[a], &mut tail[..b.end - b.start])
    }

    /// Overwrites this arena's contents from another of identical length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn copy_from(&mut self, other: &ParamArena) {
        assert_eq!(self.len(), other.len(), "arena length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Zeroes all elements, in [`par::band_len`] bands like every other
    /// memory-bound sweep: a gradient arena of [`par::PAR_ELEMS`] floats
    /// or more is zeroed by the whole budget.
    pub fn zero(&mut self) {
        let band = par::band_len(self.data.len());
        par::fan_out(self.data.chunks_mut(band), |c| c.fill(0.0));
    }

    /// Lays out every segment given panels as them ([`Panels::pack`])
    /// instead of row-major. It happens in the arena's own storage, grown
    /// at its end, from the last segment back — each lands at or after
    /// where it was — so the only other memory touched is one segment's
    /// row-major copy.
    ///
    /// # Panics
    /// Panics unless `panels` has one entry per segment, each the layout
    /// of a matrix the segment's size.
    pub fn pack_segments(&mut self, panels: &[Option<Panels>]) {
        assert_eq!(panels.len(), self.segments.len(), "one layout per segment");
        let len = |s: &Segment, p: &Option<Panels>| p.map_or(s.len, |p| p.floats());
        let total = (self.segments.iter().zip(panels))
            .map(|(s, p)| len(s, p))
            .sum();
        // Exact: an amortised doubling would reserve a second arena.
        self.data.reserve_exact(total - self.data.len());
        self.data.resize(total, 0.0);
        let (mut end, mut old) = (total, Vec::new());
        for (segment, p) in self.segments.iter_mut().zip(panels).rev() {
            old.clear();
            old.extend_from_slice(&self.data[segment.range()]);
            end -= len(segment, p);
            (segment.offset, segment.len) = (end, len(segment, p));
            let dst = &mut self.data[segment.range()];
            match p {
                Some(p) => p.pack(&old, dst),
                None => dst.copy_from_slice(&old),
            }
        }
    }
}

impl fmt::Debug for ParamArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ParamArena({} segments, {} elements, {} bytes)",
            self.segments.len(),
            self.len(),
            self.size_bytes()
        )
    }
}

// ---------------------------------------------------------------------------
// Training scratch: the activation/gradient arena of the pooled step path.
// ---------------------------------------------------------------------------

/// How a counted buffer request touched the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufGrowth {
    /// The buffer had no storage; a fresh allocation was made.
    Fresh,
    /// Existing storage was too small and had to grow (a realloc).
    Grown,
    /// Existing capacity covered the request — no allocator traffic.
    Reused,
}

/// Counter snapshot of scratch activity (the [`crate::Tensor`]-side
/// sibling of the cluster pool's `PoolStats`). Counters are plain `u64`s:
/// the scratch is owned by one training thread and handed down the layer
/// stack by `&mut`, so no atomics are needed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Requests that allocated a buffer from nothing.
    pub fresh: u64,
    /// Requests that grew an existing buffer (a realloc).
    pub grown: u64,
    /// Requests served entirely from existing capacity.
    pub reused: u64,
}

impl ScratchStats {
    /// Total allocator events: fresh buffers plus capacity growths. The
    /// steady-state invariant of the pooled path is `allocations() == 0`
    /// per step.
    pub fn allocations(&self) -> u64 {
        self.fresh + self.grown
    }

    /// Total counted buffer requests.
    pub fn requests(&self) -> u64 {
        self.fresh + self.grown + self.reused
    }

    /// Counter-wise difference `self − earlier` (for per-step windows).
    pub fn since(&self, earlier: &ScratchStats) -> ScratchStats {
        ScratchStats {
            fresh: self.fresh - earlier.fresh,
            grown: self.grown - earlier.grown,
            reused: self.reused - earlier.reused,
        }
    }
}

/// The per-step transient arena: counted, recycled storage for
/// activations, gradients, layer caches and padded conv inputs.
///
/// Layers own their cache buffers (masks, saved activations, padded inputs)
/// but size them *exclusively* through the counted `ensure_*` helpers
/// here; the ping-pong activation/gradient tensors, the pooled batch
/// tensor and the softmax probability buffer live inside the scratch and
/// are checked out with the `take_*`/`put_*` pairs (a `mem::take` swap —
/// never an allocation).
///
/// ## Warm-up contract
///
/// The first step through a network grows every buffer to its steady
/// size (`fresh`/`grown` events); every later step with the same batch
/// shape is served entirely from capacity (`reused` only). Buffer
/// contents between steps are *unspecified* — every kernel on the pooled
/// path either fully overwrites its output or asks for the `_zeroed`
/// variant (the scatter-accumulate backward passes).
#[derive(Debug, Default)]
pub struct TrainScratch {
    stats: ScratchStats,
    // Slot tensors are `Option` so checkout is `Option::take` — a pointer
    // swap, not a `mem::take` that would build a placeholder shape (and
    // its one-word heap allocation) every step.
    ping: Option<Tensor>,
    pong: Option<Tensor>,
    batch: Option<Tensor>,
    probs: Option<Tensor>,
}

impl TrainScratch {
    /// Snapshot of the counters.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    fn tally(&mut self, growth: BufGrowth) {
        match growth {
            BufGrowth::Fresh => self.stats.fresh += 1,
            BufGrowth::Grown => self.stats.grown += 1,
            BufGrowth::Reused => self.stats.reused += 1,
        }
    }

    /// Sizes `buf` to exactly `len` elements, counting the request.
    /// Contents are unspecified (kept capacity is dirty); callers fully
    /// overwrite. Zero-length requests never touch the allocator or the
    /// counters (an empty `Vec` never allocates).
    pub fn ensure_f32(&mut self, buf: &mut Vec<f32>, len: usize) {
        self.ensure(buf, len);
    }

    fn ensure<T: Copy + Default>(&mut self, buf: &mut Vec<T>, len: usize) {
        if len == 0 {
            buf.clear();
            return;
        }
        let growth = if buf.capacity() >= len {
            BufGrowth::Reused
        } else if buf.capacity() == 0 {
            BufGrowth::Fresh
        } else {
            BufGrowth::Grown
        };
        buf.resize(len, T::default());
        self.tally(growth);
    }

    /// `usize`-typed sibling of [`ensure_f32`](Self::ensure_f32) (pooling
    /// argmax indices and label buffers).
    pub fn ensure_usize(&mut self, buf: &mut Vec<usize>, len: usize) {
        self.ensure(buf, len);
    }

    /// Re-shapes `t` to `dims`, reusing its storage and counting the
    /// request. Contents are unspecified; callers fully overwrite (or use
    /// [`shape_tensor_zeroed`](Self::shape_tensor_zeroed)).
    pub fn shape_tensor(&mut self, t: &mut Tensor, dims: &[usize]) {
        let growth = t.resize_in_place(dims);
        if !t.is_empty() {
            self.tally(growth);
        }
    }

    /// [`shape_tensor`](Self::shape_tensor) followed by a zero fill — the
    /// pooled replacement for a fresh `Tensor::zeros` that a
    /// scatter-accumulate kernel reads back.
    pub fn shape_tensor_zeroed(&mut self, t: &mut Tensor, dims: &[usize]) {
        self.shape_tensor(t, dims);
        t.fill(0.0);
    }

    /// Checks the forward/backward ping tensor out of the scratch. The
    /// very first checkout builds the (empty) tensor; afterwards the same
    /// storage cycles for the life of the scratch.
    pub fn take_ping(&mut self) -> Tensor {
        self.ping.take().unwrap_or_default()
    }

    /// Returns the ping tensor to the scratch.
    pub fn put_ping(&mut self, t: Tensor) {
        self.ping = Some(t);
    }

    /// Checks the forward/backward pong tensor out of the scratch.
    pub fn take_pong(&mut self) -> Tensor {
        self.pong.take().unwrap_or_default()
    }

    /// Returns the pong tensor to the scratch.
    pub fn put_pong(&mut self, t: Tensor) {
        self.pong = Some(t);
    }

    /// Checks the pooled batch tensor out of the scratch.
    pub fn take_batch(&mut self) -> Tensor {
        self.batch.take().unwrap_or_default()
    }

    /// Returns the pooled batch tensor to the scratch.
    pub fn put_batch(&mut self, t: Tensor) {
        self.batch = Some(t);
    }

    /// Checks the softmax probability tensor out of the scratch.
    pub fn take_probs(&mut self) -> Tensor {
        self.probs.take().unwrap_or_default()
    }

    /// Returns the softmax probability tensor to the scratch.
    pub fn put_probs(&mut self, t: Tensor) {
        self.probs = Some(t);
    }
}

// ---------------------------------------------------------------------------
// Inference scratch: the forward-only view of the same arena machinery.
// ---------------------------------------------------------------------------

/// Forward-only sibling of [`TrainScratch`] for inference sessions.
///
/// An inference replica never runs a backward pass, so it needs none of
/// the gradient-side buffers a training step warms up: no loss
/// probabilities, no backward ping-pong traffic, no col2im scatter
/// panels. `InferScratch` encodes that contract in the type: it is a
/// [`TrainScratch`] that is only ever handed to `forward_into` paths
/// (via [`train_scratch`](Self::train_scratch)), and reaches the same
/// zero-allocations-per-request steady state the training step reaches
/// per step — proved by the same counters ([`stats`](Self::stats)).
///
/// The serving engine (`crates/serve`) holds one `InferScratch` per
/// model replica; together with `Network::freeze` this makes a serving
/// replica allocate zero backward/gradient storage.
#[derive(Debug, Default)]
pub struct InferScratch {
    inner: TrainScratch,
}

impl InferScratch {
    /// An empty forward-only scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the allocation counters (same invariant as the
    /// training scratch: a warmed-up request window shows
    /// [`ScratchStats::allocations`] unchanged).
    pub fn stats(&self) -> ScratchStats {
        self.inner.stats()
    }

    /// The counted [`TrainScratch`] view that layer `forward_into`
    /// implementations size their buffers through. Forward-only by
    /// convention: nothing on an inference path calls `backward_into`.
    pub fn train_scratch(&mut self) -> &mut TrainScratch {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamArena {
        let mut b = ParamArena::builder();
        b.push("conv1.weight", 6);
        b.push("conv1.bias", 2);
        b.push("fc.weight", 4);
        b.build()
    }

    #[test]
    fn layout_is_back_to_back() {
        let a = sample();
        assert_eq!(a.len(), 12);
        assert_eq!(a.segments()[0].offset, 0);
        assert_eq!(a.segments()[1].offset, 6);
        assert_eq!(a.segments()[2].offset, 8);
        assert_eq!(a.size_bytes(), 48);
    }

    #[test]
    fn segment_views_are_disjoint_windows() {
        let mut a = sample();
        a.segment_mut(1).fill(5.0);
        assert!(a.segment(0).iter().all(|&x| x == 0.0));
        assert!(a.segment(1).iter().all(|&x| x == 5.0));
        assert!(a.segment(2).iter().all(|&x| x == 0.0));
        assert_eq!(a.as_slice()[6], 5.0);
    }

    #[test]
    fn zero_bands_a_large_arena_over_the_budget() {
        let mut b = ParamArena::builder();
        b.push("w", par::PAR_ELEMS + 37);
        let mut a = b.build();
        for (threads, forks) in [(1usize, 0u64), (3, 2)] {
            a.as_mut_slice().fill(1.5);
            let before = par::threads_spawned();
            par::with_budget(threads, || a.zero());
            assert_eq!(par::threads_spawned() - before, forks, "budget {threads}");
            assert!(a.as_slice().iter().all(|&x| x == 0.0));
        }
        // Below the gate the sweep stays on the calling thread.
        let mut small = sample();
        small.as_mut_slice().fill(1.5);
        let before = par::threads_spawned();
        par::with_budget(3, || small.zero());
        assert_eq!(par::threads_spawned(), before);
        assert!(small.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn find_by_name() {
        let a = sample();
        assert_eq!(a.find("fc.weight"), Some(2));
        assert_eq!(a.find("missing"), None);
    }

    #[test]
    fn segment_pair_mut_lends_two_disjoint_segments() {
        let mut a = sample();
        let (first, last) = a.segment_pair_mut(0, 2);
        assert_eq!((first.len(), last.len()), (6, 4));
        first.fill(2.0);
        last.fill(1.0);
        assert!(a.segment(0).iter().all(|&x| x == 2.0));
        assert!(a.segment(1).iter().all(|&x| x == 0.0));
        assert!(a.segment(2).iter().all(|&x| x == 1.0));
    }

    #[test]
    #[should_panic(expected = "segment 2 must precede 0")]
    fn segment_pair_mut_rejects_segments_out_of_order() {
        let _ = sample().segment_pair_mut(2, 0);
    }

    #[test]
    fn like_copies_layout_not_data() {
        let mut a = sample();
        a.as_mut_slice().fill(3.0);
        let b = ParamArena::like(&a);
        assert_eq!(b.len(), a.len());
        assert_eq!(b.segments(), a.segments());
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn copy_from_transfers_contents() {
        let mut a = sample();
        a.as_mut_slice().fill(2.0);
        let mut b = ParamArena::like(&a);
        b.copy_from(&a);
        assert_eq!(b.as_slice(), a.as_slice());
    }

    #[test]
    fn pack_segments_lays_each_segment_out_as_its_panels_in_place() {
        use crate::gemm::Transpose;
        let mut a = sample();
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = i as f32;
        }
        let row_major = a.clone();
        // The first and last segments packed, the bias left row-major.
        let panels = [
            Some(Panels::a(Transpose::No, 2, 3)),
            None,
            Some(Panels::b(Transpose::Yes, 2, 2)),
        ];
        a.pack_segments(&panels);
        let layout: Vec<_> = a.segments().iter().map(|s| (s.offset, s.len)).collect();
        let (first, last) = (panels[0].unwrap().floats(), panels[2].unwrap().floats());
        assert_eq!(layout, [(0, first), (first, 2), (first + 2, last)]);
        assert_eq!(a.segments()[2].name, "fc.weight");
        assert_eq!(a.segment(1), row_major.segment(1));
        for i in [0, 2] {
            let p = panels[i].unwrap();
            let mut want = vec![f32::NAN; p.floats()];
            p.pack(row_major.segment(i), &mut want);
            assert_eq!(a.segment(i), want, "segment {i}");
        }
    }

    #[test]
    fn flat_arena_single_segment() {
        let a = ParamArena::flat(10);
        assert_eq!(a.segments().len(), 1);
        assert_eq!(a.segments()[0].len, 10);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_rejects_mismatch() {
        let mut a = ParamArena::flat(3);
        a.copy_from(&ParamArena::flat(4));
    }

    #[test]
    fn scratch_pooled_counts_fresh_then_reused() {
        let mut s = TrainScratch::default();
        let mut buf = Vec::new();
        s.ensure_f32(&mut buf, 16);
        assert_eq!(s.stats().fresh, 1);
        s.ensure_f32(&mut buf, 8);
        s.ensure_f32(&mut buf, 16);
        let st = s.stats();
        assert_eq!((st.fresh, st.grown, st.reused), (1, 0, 2));
        assert_eq!(st.allocations(), 1);
        s.ensure_f32(&mut buf, 64);
        assert_eq!(s.stats().grown, 1);
    }

    #[test]
    fn scratch_zero_len_requests_are_uncounted() {
        let mut s = TrainScratch::default();
        let mut buf = vec![1.0; 4];
        s.ensure_f32(&mut buf, 0);
        assert!(buf.is_empty());
        assert_eq!(s.stats().requests(), 0);
    }

    #[test]
    fn scratch_shape_tensor_reuses_storage() {
        let mut s = TrainScratch::default();
        let mut t = Tensor::default();
        s.shape_tensor(&mut t, &[4, 8]);
        assert_eq!(t.shape().dims(), &[4, 8]);
        let fresh_after_first = s.stats().fresh;
        s.shape_tensor(&mut t, &[2, 8]);
        s.shape_tensor(&mut t, &[4, 8]);
        assert_eq!(s.stats().fresh, fresh_after_first);
        assert_eq!(s.stats().allocations(), fresh_after_first);
        s.shape_tensor_zeroed(&mut t, &[4, 8]);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn infer_scratch_is_pooled_and_counted() {
        let mut s = InferScratch::new();
        let mut buf = Vec::new();
        s.train_scratch().ensure_f32(&mut buf, 32);
        assert_eq!(s.stats().fresh, 1);
        // Steady state: capacity reuse, no allocator traffic.
        let warm = s.stats();
        s.train_scratch().ensure_f32(&mut buf, 32);
        assert_eq!(s.stats().since(&warm).allocations(), 0);
    }

    #[test]
    fn scratch_slots_cycle_without_counting() {
        let mut s = TrainScratch::default();
        let mut p = s.take_ping();
        s.shape_tensor(&mut p, &[3, 3]);
        p.fill(2.0);
        s.put_ping(p);
        let p = s.take_ping();
        assert_eq!(p.len(), 9);
        assert_eq!(p.as_slice()[0], 2.0);
        s.put_ping(p);
    }
}
