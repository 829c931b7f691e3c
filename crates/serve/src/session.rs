//! Inference sessions: frozen network replicas with forward-only pooled
//! scratch, and the replica set the engine dispatches batches to.
//!
//! A [`ReplicaSet`] serves each batch on every thread of the budget it
//! was built under. Its shards never run concurrently — the engine
//! dispatches one batch at a time — so each shard runs under the whole
//! budget, and the threads past the engine's own are *lanes*: persistent
//! threads, spawned with the set and joined when it drops, each holding
//! a forward replica of every shard that reads the shard's frozen
//! parameter arena in place ([`Network::forward_replica`]), so no weight
//! is copied. A batch of `b ≥ 2` samples is cut into `min(lanes + 1, b)`
//! contiguous runs:
//!
//! 1. the engine thread copies runs 2.. into the lanes' pixel buffers,
//!    posts them and wakes the lanes;
//! 2. it runs run 1 itself;
//! 3. for each posted run, in order: if no lane has claimed it yet, the
//!    engine takes it back and runs it; if a lane has started it, the
//!    engine spins until it finishes, then copies its logits in.
//!
//! Take-back bounds the tail: a lane that wakes late costs the batch
//! nothing but the run the engine would have done anyway. Lanes park
//! while idle and never spin. Every run executes under a one-thread
//! budget, so nothing forks inside it; a batch that is not split runs
//! under the caller's whole budget, as does every batch of a set built
//! under one thread, which has no lanes. Every frozen layer is
//! per-sample and a GEMM row's bits do not depend on its batch mates,
//! so the logits are bit-identical however the batch was cut. A run
//! that panics on a lane re-raises the same panic on the engine thread
//! once every other run of the batch is in.

use crate::batcher::{add_stats, Batch};
use crate::engine::Backend;
use easgd_nn::Network;
use easgd_tensor::par::{current_threads, with_budget};
use easgd_tensor::{InferScratch, ScratchStats, Tensor};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// One serving replica: a frozen [`Network`] ([`Network::freeze`]) —
/// no gradient arena, half the training replica's memory, and every
/// weight a packing GEMM reads already in microkernel panels, so no
/// batch packs one again — a forward-only [`InferScratch`], and an owned
/// logits tensor. After one warm-up dispatch per batch size, `infer`
/// performs zero pooled allocations — the serving analogue of the
/// training step's steady state (DESIGN.md §11).
pub struct InferSession {
    net: Network,
    scratch: InferScratch,
    logits: Tensor,
    /// Logits of one run of a split batch, before they join `logits`.
    run: Tensor,
    sample_len: usize,
}

impl InferSession {
    /// Wraps a built network as a serving replica, freezing it: its
    /// logits keep every bit of `Network::forward` in eval mode.
    pub fn new(mut net: Network) -> Self {
        net.freeze();
        let sample_len = net.input_shape().iter().product();
        let classes = net.num_classes();
        Self {
            net,
            scratch: InferScratch::new(),
            logits: Tensor::zeros([1, classes]),
            run: Tensor::default(),
            sample_len,
        }
    }

    /// A session on a forward replica of this one's network: the same
    /// frozen weights, read in place, and a scratch of its own.
    fn replica(&self) -> Self {
        Self::new(self.net.forward_replica())
    }

    /// Pixels per sample (the flattened input shape).
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Runs eval-mode forward on a ragged batch of `batch` samples
    /// packed in `pixels`, returning the `[batch × classes]` logits.
    ///
    /// # Panics
    /// Panics unless `pixels.len() == batch * sample_len`.
    pub fn infer(&mut self, batch: usize, pixels: &[f32]) -> &[f32] {
        self.net
            .infer_from_slice(batch, pixels, &mut self.logits, &mut self.scratch);
        self.logits.as_slice()
    }

    /// Logits of the most recent batch: an [`infer`](Self::infer) call's,
    /// or every row of a batch a [`ReplicaSet`] split, in sample order.
    pub fn logits(&self) -> &[f32] {
        self.logits.as_slice()
    }

    /// Pooled allocation counters of this replica's scratch.
    pub fn stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Shapes the logits for a split batch of `batch` samples, whose
    /// rows [`infer_run`](Self::infer_run) and
    /// [`put_rows`](Self::put_rows) then fill.
    fn begin_split(&mut self, batch: usize) {
        let dims = [batch, self.net.num_classes()];
        self.scratch
            .train_scratch()
            .shape_tensor(&mut self.logits, &dims);
    }

    /// Runs the whole samples in `pixels` and writes their logits into
    /// the split batch's rows from `row` on.
    fn infer_run(&mut self, row: usize, pixels: &[f32]) {
        let samples = pixels.len() / self.sample_len;
        self.net
            .infer_from_slice(samples, pixels, &mut self.run, &mut self.scratch);
        let classes = self.net.num_classes();
        self.logits.as_mut_slice()[row * classes..][..self.run.len()]
            .copy_from_slice(self.run.as_slice());
    }

    /// Copies another replica's logits into the split batch's rows from
    /// `row` on.
    fn put_rows(&mut self, row: usize, rows: &[f32]) {
        let classes = self.net.num_classes();
        self.logits.as_mut_slice()[row * classes..][..rows.len()].copy_from_slice(rows);
    }
}

/// What a [`ReplicaSet`] has done, each field bumped once per batch.
/// `batches` and `split` follow from the batch sizes and the lane count
/// alone; `taken_back` is how the race between the engine and its lanes
/// fell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaCounts {
    /// Batches run.
    pub batches: u64,
    /// Batches cut into runs across the lanes.
    pub split: u64,
    /// Posted runs the engine took back before a lane claimed them.
    pub taken_back: u64,
}

/// `shards` independent replicas, each served on every thread of the
/// budget the set was built under (see the module docs).
pub struct ReplicaSet {
    sessions: Vec<InferSession>,
    lanes: Vec<Lane>,
    counts: ReplicaCounts,
}

impl ReplicaSet {
    /// One replica per entry of `replicas`, plus
    /// `current_threads() − 1` lanes, each with a forward replica of
    /// every shard.
    ///
    /// # Panics
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<Network>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let sessions: Vec<_> = replicas.into_iter().map(InferSession::new).collect();
        let lanes = (1..current_threads())
            .map(|_| Lane::spawn(sessions.iter().map(InferSession::replica).collect()))
            .collect();
        Self {
            sessions,
            lanes,
            counts: ReplicaCounts::default(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sessions.len()
    }

    /// A shard's session, for logits inspection after a dispatch.
    pub fn session(&self, shard: usize) -> &InferSession {
        &self.sessions[shard]
    }

    /// Batches run, split and taken back so far.
    pub fn counts(&self) -> ReplicaCounts {
        self.counts
    }
}

impl Backend for ReplicaSet {
    /// Runs the batch on `shard`'s replica, cut across the engine thread
    /// and the lanes when it holds at least two samples and there are
    /// lanes (see the module docs).
    fn run_batch(&mut self, shard: usize, batch: &Batch, pixels: &[f32]) {
        let Self {
            sessions,
            lanes,
            counts,
        } = self;
        let session = &mut sessions[shard];
        let b = batch.len();
        let runs = (lanes.len() + 1).min(b);
        counts.batches += 1;
        if runs < 2 {
            let _ = session.infer(b, pixels);
            return;
        }
        counts.split += 1;
        // Run k holds samples [first(k), first(k + 1)).
        let first = |k: usize| k * b / runs;
        let per = session.sample_len;
        let run = |k: usize| &pixels[first(k) * per..first(k + 1) * per];
        let posted = &lanes[..runs - 1];
        for (k, lane) in (1..).zip(posted) {
            lane.post(shard, run(k));
        }
        session.begin_split(b);
        let mut failed = None;
        with_budget(1, || {
            keep_panic(&mut failed, || session.infer_run(0, run(0)));
            for (k, lane) in (1..).zip(posted) {
                if lane.take_back() {
                    counts.taken_back += 1;
                    keep_panic(&mut failed, || session.infer_run(first(k), run(k)));
                } else {
                    let mut done = lane.finished();
                    session.put_rows(first(k), done.sessions[shard].logits());
                    if let Some(payload) = done.panic.take() {
                        failed.get_or_insert(payload);
                    }
                }
            }
        });
        if let Some(payload) = failed {
            panic::resume_unwind(payload);
        }
    }

    /// Counters of every replica, the lanes' included.
    fn stats(&self) -> ScratchStats {
        let sum = |sessions: &[InferSession], total| {
            sessions
                .iter()
                .map(InferSession::stats)
                .fold(total, add_stats)
        };
        let engine = sum(&self.sessions, ScratchStats::default());
        (self.lanes.iter()).fold(engine, |total, lane| {
            sum(&lane.handoff.lock().sessions, total)
        })
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        for lane in &self.lanes {
            // ordering: Release pairs with the lane's Acquire load, so a
            // lane that sees the flag sees everything before the drop.
            lane.handoff.stop.store(true, Ordering::Release);
            lane.thread.thread().unpark();
        }
        for lane in self.lanes.drain(..) {
            // A lane catches its runs' panics, so it always returns.
            let _ = lane.thread.join();
        }
    }
}

/// Runs `f`, keeping its panic in `failed` (unless one is kept already)
/// instead of unwinding.
fn keep_panic(failed: &mut Option<Box<dyn Any + Send>>, f: impl FnOnce()) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
        failed.get_or_insert(payload);
    }
}

/// Nothing posted: the engine owns the lane's run.
const IDLE: u8 = 0;
/// Posted and unclaimed: the lane may claim it, the engine take it back.
const POSTED: u8 = 1;
/// Claimed: the lane is running it.
const RUNNING: u8 = 2;
/// Finished: the logits (or the panic) wait for the engine.
const DONE: u8 = 3;
/// Posted for the engine to take back ([`Claimant::Engine`], in tests):
/// no lane claims it.
const HELD: u8 = 4;

/// A lane thread and the hand-off it shares with the engine thread.
struct Lane {
    handoff: Arc<Handoff>,
    thread: JoinHandle<()>,
}

/// The engine's side and a lane's side of one posted run. `state` says
/// whose move it is; `run` holds the data, only ever locked by the side
/// whose move it is (and by [`ReplicaSet::stats`] between batches).
struct Handoff {
    state: AtomicU8,
    stop: AtomicBool,
    run: Mutex<LaneRun>,
}

/// What a lane holds: a forward replica of every shard, the posted run's
/// shard and pixels, and the panic of its last run, if it panicked.
struct LaneRun {
    sessions: Vec<InferSession>,
    shard: usize,
    pixels: Vec<f32>,
    panic: Option<Box<dyn Any + Send>>,
}

impl Handoff {
    fn lock(&self) -> MutexGuard<'_, LaneRun> {
        // A run's panic is caught inside the lock, so it never poisons it.
        self.run.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Lane {
    fn spawn(sessions: Vec<InferSession>) -> Self {
        let handoff = Arc::new(Handoff {
            state: AtomicU8::new(IDLE),
            stop: AtomicBool::new(false),
            run: Mutex::new(LaneRun {
                sessions,
                shard: 0,
                pixels: Vec::new(),
                panic: None,
            }),
        });
        let theirs = Arc::clone(&handoff);
        let thread = thread::Builder::new()
            .name("serve-lane".into())
            .spawn(move || with_budget(1, || serve_lane(&theirs)))
            .unwrap_or_else(|e| panic!("spawning a serve lane: {e}"));
        Self { handoff, thread }
    }

    /// Copies `pixels` into the lane's buffer as a run of `shard`, posts
    /// it and wakes the lane.
    fn post(&self, shard: usize, pixels: &[f32]) {
        let mut run = self.handoff.lock();
        let LaneRun {
            sessions,
            shard: posted,
            pixels: buf,
            ..
        } = &mut *run;
        sessions[shard]
            .scratch
            .train_scratch()
            .ensure_f32(buf, pixels.len());
        buf.copy_from_slice(pixels);
        *posted = shard;
        drop(run);
        let state = if claimant() == Claimant::Engine {
            HELD
        } else {
            POSTED
        };
        // ordering: Release publishes the run to the lane's Acquire claim.
        self.handoff.state.store(state, Ordering::Release);
        self.thread.thread().unpark();
    }

    /// Takes the posted run back if no lane has claimed it.
    fn take_back(&self) -> bool {
        let posted = match claimant() {
            Claimant::Race => POSTED,
            Claimant::Engine => HELD,
            Claimant::Lane => return false,
        };
        self.handoff
            .state
            // ordering: a won exchange reads nothing the lane wrote, and a
            // lost one is followed by `finished`'s Acquire load.
            .compare_exchange(posted, IDLE, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Spins until the lane finishes the run it claimed, and hands it
    /// over; the lane's run is the engine's again.
    fn finished(&self) -> MutexGuard<'_, LaneRun> {
        // ordering: Acquire pairs with the lane's Release store of DONE.
        while self.handoff.state.load(Ordering::Acquire) != DONE {
            std::hint::spin_loop();
        }
        // ordering: the lane does not touch the run again until the next
        // post's Release store.
        self.handoff.state.store(IDLE, Ordering::Relaxed);
        self.handoff.lock()
    }
}

/// A lane's life: claim each posted run, run it, hand it back; park
/// whenever there is nothing to claim; return once the set drops.
fn serve_lane(handoff: &Handoff) {
    // ordering: Acquire pairs with the drop's Release store.
    while !handoff.stop.load(Ordering::Acquire) {
        let claimed = handoff
            .state
            // ordering: Acquire pairs with the post's Release store.
            .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if !claimed {
            thread::park();
            continue;
        }
        let mut guard = handoff.lock();
        let run = &mut *guard;
        let mut failed = None;
        keep_panic(&mut failed, || {
            let session = &mut run.sessions[run.shard];
            let _ = session.infer(run.pixels.len() / session.sample_len, &run.pixels);
        });
        run.panic = failed;
        drop(guard);
        // ordering: Release publishes the logits to `finished`'s Acquire.
        handoff.state.store(DONE, Ordering::Release);
    }
}

/// Who runs a posted run: whoever wins the race, or — forced in tests,
/// so that each path runs on demand — always the engine (posts go out in
/// a state no lane claims) or always the lane (the engine takes nothing
/// back).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum Claimant {
    Race,
    Engine,
    Lane,
}

/// This thread's [`Claimant`]: the race outside tests.
fn claimant() -> Claimant {
    #[cfg(test)]
    return tests::CLAIMANT.with(std::cell::Cell::get);
    #[cfg(not(test))]
    Claimant::Race
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{Batcher, BatcherConfig};
    use easgd_nn::{models, InceptionConfig, NetworkBuilder};
    use std::cell::Cell;

    thread_local! {
        /// This thread's [`Claimant`]; set only through [`claimed_by`].
        pub(super) static CLAIMANT: Cell<Claimant> = const { Cell::new(Claimant::Race) };
    }

    /// Runs `f` with `who` running every run this thread posts. Restores
    /// the previous state on unwind.
    fn claimed_by<R>(who: Claimant, f: impl FnOnce() -> R) -> R {
        struct Reset(Claimant);
        impl Drop for Reset {
            fn drop(&mut self) {
                CLAIMANT.with(|c| c.set(self.0));
            }
        }
        let _guard = Reset(CLAIMANT.with(|c| c.replace(who)));
        f()
    }

    fn tiny_net(seed: u64) -> Network {
        NetworkBuilder::new([1, 6, 6])
            .conv2d(2, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .flatten()
            .dense(10)
            .build(seed)
    }

    /// The engine's zoo (`tests/eval_invariance.rs`): every layer type
    /// the paper's networks run.
    fn zoo_net() -> Network {
        NetworkBuilder::new([2, 8, 8])
            .conv2d(4, 3, 1, 1)
            .relu()
            .lrn()
            .maxpool(2, 2)
            .conv2d(4, 3, 1, 1)
            .relu()
            .inception(InceptionConfig {
                c1: 2,
                c3_reduce: 2,
                c3: 3,
                c5_reduce: 1,
                c5: 2,
                pool_proj: 1,
            })
            .avgpool(2, 2)
            .flatten()
            .dense(16)
            .relu()
            .dense(10)
            .build(0xBEEF)
    }

    fn pixels(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
    }

    /// A closed batch of `size` requests on `shard`, from a batcher of
    /// cap 8 whose payloads are empty: `run_batch` reads only its length.
    fn batch(batcher: &mut Batcher, shard: usize, size: usize) -> Batch {
        let mut closed = None;
        for _ in 0..size {
            closed = batcher.submit(0, shard, &mut |_| {}).1;
        }
        closed.or_else(|| batcher.close_next()).unwrap()
    }

    fn batcher(shards: usize) -> Batcher {
        Batcher::new(BatcherConfig {
            shards,
            batch_cap: 8,
            deadline_us: 1,
            sample_len: 0,
        })
    }

    /// Runs every batch size 1..=8 on every shard of a set of `nets`
    /// built under `threads`, and checks each against `forward(x, false)`
    /// bit for bit. Returns the set's counts.
    fn assert_set_matches_forward(nets: Vec<Network>, threads: usize) -> ReplicaCounts {
        let mut refs = nets.clone();
        let mut set = with_budget(threads, || ReplicaSet::new(nets));
        assert_eq!(set.lanes.len(), threads - 1);
        let mut batcher = batcher(set.shards());
        for b in 1..=8 {
            for (shard, reference) in refs.iter_mut().enumerate() {
                let dims: Vec<_> = [b].iter().chain(reference.input_shape()).copied().collect();
                let px = pixels(dims.iter().product(), b as f32 + shard as f32);
                let want = reference.forward(&Tensor::from_vec(dims, px.clone()), false);
                let closed = batch(&mut batcher, shard, b);
                set.run_batch(shard, &closed, &px);
                batcher.recycle(closed);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(set.session(shard).logits()),
                    bits(want.as_slice()),
                    "batch of {b} on shard {shard} at budget {threads}"
                );
            }
        }
        set.counts()
    }

    #[test]
    fn session_matches_unstripped_forward_bitwise() {
        let mut reference = tiny_net(7);
        let mut session = InferSession::new(tiny_net(7));
        let pixels: Vec<f32> = (0..2 * 36).map(|i| (i as f32).sin()).collect();
        let x = Tensor::from_vec([2, 1, 6, 6], pixels.clone());
        let want = reference.forward(&x, false);
        let got = session.infer(2, &pixels);
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn ragged_sizes_are_zero_alloc_once_warm() {
        let mut session = InferSession::new(tiny_net(3));
        let pixels = vec![0.25f32; 4 * 36];
        // Warm both sizes the ragged schedule will use.
        let _ = session.infer(4, &pixels);
        let _ = session.infer(1, &pixels[..36]);
        let warm = session.stats();
        for _ in 0..6 {
            let _ = session.infer(4, &pixels);
            let _ = session.infer(1, &pixels[..36]);
            let _ = session.infer(3, &pixels[..3 * 36]);
        }
        let delta = session.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "warm ragged inference allocated");
        assert!(delta.reused > 0);
    }

    #[test]
    fn split_batches_keep_every_bit_of_forward_at_every_budget() {
        for threads in 1..=3 {
            assert_set_matches_forward(vec![models::lenet(11), models::lenet(12)], threads);
            assert_set_matches_forward(vec![zoo_net(), tiny_net(4)], threads);
        }
    }

    #[test]
    fn a_run_taken_back_keeps_every_bit_and_is_counted() {
        let counts = claimed_by(Claimant::Engine, || {
            assert_set_matches_forward(vec![zoo_net(), tiny_net(4)], 3)
        });
        // Batch b posts min(2, b − 1) runs, on both shards.
        let posted: u64 = (1..=8u64).map(|b| 2 * (b - 1).min(2)).sum();
        assert_eq!(counts.taken_back, posted);
    }

    #[test]
    fn replica_set_shards_agree_on_equal_seeds() {
        for threads in 1..=2 {
            let mut set = with_budget(threads, || {
                ReplicaSet::new(vec![tiny_net(11), tiny_net(11)])
            });
            let mut batcher = batcher(2);
            let px = pixels(5 * 36, 0.0);
            let mut serve = |shard: usize| {
                let closed = batch(&mut batcher, shard, 5);
                set.run_batch(shard, &closed, &px);
                batcher.recycle(closed);
                set.session(shard).logits().to_vec()
            };
            let (a, b) = (serve(0), serve(1));
            assert_eq!(a, b, "equal-seed replicas must serve identical logits");
        }
    }

    #[test]
    fn lanes_come_from_the_callers_budget() {
        // More shards than threads: the lanes serve every shard.
        for threads in 1..=3 {
            for k in [1, 2, 2 * threads] {
                let set = with_budget(threads, || {
                    ReplicaSet::new((0..k).map(|_| tiny_net(5)).collect())
                });
                assert_eq!(set.shards(), k);
                assert_eq!(
                    set.lanes.len(),
                    threads - 1,
                    "{k} shards at budget {threads}"
                );
            }
        }
    }

    #[test]
    fn exactly_the_batches_of_two_or_more_split_when_there_are_lanes() {
        let nets = || vec![tiny_net(2), tiny_net(3)];
        let alone = assert_set_matches_forward(nets(), 1);
        assert_eq!(
            alone,
            ReplicaCounts {
                batches: 16,
                split: 0,
                taken_back: 0
            }
        );
        let paired = assert_set_matches_forward(nets(), 2);
        assert_eq!((paired.batches, paired.split), (16, 14));
        assert!(paired.taken_back <= 14);
    }

    #[test]
    fn a_warm_set_with_a_lane_is_zero_alloc_over_ragged_sizes() {
        let lane_sessions = |set: &ReplicaSet| set.lanes[0].handoff.lock().sessions.len();
        let mut set = with_budget(2, || ReplicaSet::new(vec![tiny_net(3), tiny_net(4)]));
        assert_eq!(lane_sessions(&set), 2);
        let mut batcher = batcher(2);
        let px = pixels(8 * 36, 1.0);
        let mut serve = |set: &mut ReplicaSet, size: usize| {
            for shard in 0..2 {
                let closed = batch(&mut batcher, shard, size);
                set.run_batch(shard, &closed, &px[..size * 36]);
                batcher.recycle(closed);
            }
        };
        // Warm every replica at every size: the engine's through forced
        // take-backs, the lane's directly.
        claimed_by(Claimant::Engine, || {
            (1..=8).for_each(|size| serve(&mut set, size))
        });
        for size in 1..=8 {
            let mut run = set.lanes[0].handoff.lock();
            let LaneRun {
                sessions, pixels, ..
            } = &mut *run;
            for session in sessions.iter_mut() {
                let _ = session.infer(size, &px[..size * 36]);
                session
                    .scratch
                    .train_scratch()
                    .ensure_f32(pixels, size * 36);
            }
        }
        let warm = set.stats();
        for size in [8, 3, 1, 5, 2, 8, 7, 4, 6, 1] {
            serve(&mut set, size);
        }
        let delta = set.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "warm ragged serving allocated");
        assert!(delta.reused > 0);
    }

    #[test]
    fn a_run_that_panics_on_a_lane_re_raises_on_the_engine() {
        let mut set = with_budget(3, || ReplicaSet::new(vec![tiny_net(6)]));
        let mut batcher = batcher(1);
        let closed = batch(&mut batcher, 0, 5);
        let px = pixels(5 * 36, 0.0);
        // The second lane's replica expects 25-pixel samples, so its run
        // of two 36-pixel samples panics in `infer`.
        let narrow = NetworkBuilder::new([1, 5, 5]).flatten().dense(10).build(1);
        let swap = |set: &ReplicaSet, other: &mut InferSession| {
            std::mem::swap(&mut set.lanes[1].handoff.lock().sessions[0], other);
        };
        let mut other = InferSession::new(narrow);
        swap(&set, &mut other);
        let caught = claimed_by(Claimant::Lane, || {
            panic::catch_unwind(AssertUnwindSafe(|| set.run_batch(0, &closed, &px)))
        });
        let payload = caught.expect_err("the lane's panic must reach the engine");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("flat batch length mismatch"), "{message}");
        // Both lanes still serve, and dropping the set joins them.
        swap(&set, &mut other);
        claimed_by(Claimant::Lane, || set.run_batch(0, &closed, &px));
        assert_eq!(set.counts().split, 2);
        drop(set);
    }
}
