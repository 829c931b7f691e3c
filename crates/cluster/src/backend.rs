//! Execution backends hosting the ranks of a
//! [`VirtualCluster`](crate::cluster::VirtualCluster).
//!
//! Everything in the cluster crate that assumes "rank = OS thread" lives
//! behind this seam: the blocking channel receive, `std::thread::scope`,
//! and the wake-up protocol between a sender and a blocked receiver.
//! Two backends implement it:
//!
//! * [`ClusterBackend::Threads`] — one OS thread per rank, preemptive,
//!   blocking on its channel. The seed behavior; real parallelism,
//!   practical up to ~tens of ranks.
//! * [`ClusterBackend::Events`] — a single-token discrete-event engine.
//!   Every rank still runs its real trainer code on its own (small,
//!   lazily-committed) stack, but exactly **one** rank is runnable at a
//!   time: a rank that must wait parks its fiber, names every message
//!   it cannot proceed without, and hands the run token to the runnable
//!   rank with the smallest `(simulated time, rank)` key in the event
//!   queue; the delivery of the last message it named makes it runnable
//!   again, nothing else does. Thousands
//!   of ranks (the paper's 4352-core weak-scaling sweeps and beyond)
//!   share one process with no lock contention and a deterministic
//!   schedule.
//!
//! The dispatch order makes the event backend *more* faithful to the α-β
//! model than threads: "first come" in `recv_any` is decided by
//! simulated arrival order, not by which OS thread the kernel happened
//! to run first. For deterministic trainers the two backends produce
//! bit-identical results and simulated times (see
//! `tests/backend_parity.rs`); for FCFS-racy trainers (the async server
//! at >1 worker) the event backend is deterministic where threads are
//! not.
//!
//! Single-token scheduling is what makes the engine simple and safe: all
//! scheduler transitions are serialized by token ownership, so there is
//! no lost-wakeup window — whenever a fiber runs, every other live fiber
//! is parked at a stable wait point.

use crate::channel::Receiver;
use crate::cluster::Shared;
use crate::comm::{Awaited, Comm, Message, WaitSet};
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Default per-fiber stack size for the event backend (2 MiB — the same
/// order as `std::thread`'s default; pages are committed lazily, so 8192
/// fibers cost virtual address space, not resident memory).
pub const DEFAULT_EVENT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Which execution substrate hosts the ranks of a virtual cluster.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClusterBackend {
    /// One OS thread per rank (preemptive, blocking channels).
    Threads,
    /// Single-threaded-at-a-time discrete-event engine over parked
    /// fibers; scales to thousands of ranks in one process.
    Events,
}

thread_local! {
    /// The backend `ClusterConfig::new` defaults to on this thread.
    static DEFAULT_BACKEND: Cell<ClusterBackend> = const { Cell::new(ClusterBackend::Threads) };
}

impl ClusterBackend {
    /// The backend new configs on this thread currently default to.
    pub fn default_backend() -> ClusterBackend {
        DEFAULT_BACKEND.with(Cell::get)
    }

    /// Runs `f` with `self` as the default backend for every
    /// `ClusterConfig::new` on this thread — the hook that lets trainer
    /// code which builds its cluster configs internally run unmodified
    /// on either backend. The previous default is restored on exit
    /// (including by panic).
    pub fn with_default<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(ClusterBackend);
        impl Drop for Restore {
            fn drop(&mut self) {
                DEFAULT_BACKEND.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(DEFAULT_BACKEND.with(|c| c.replace(self)));
        f()
    }

    pub(crate) fn executor(self, ranks: usize) -> Executor {
        match self {
            ClusterBackend::Threads => Executor::Threads,
            ClusterBackend::Events => Executor::Events(Arc::new(EventSched::new(ranks))),
        }
    }
}

/// The per-run face of the backend, stored in [`Shared`]: how a rank
/// blocks for traffic and how a sender wakes a blocked receiver.
pub(crate) enum Executor {
    Threads,
    Events(Arc<EventSched>),
}

impl Executor {
    /// Called by `Comm` when something in `waiting` is not buffered yet:
    /// blocks until more traffic *may* be available. Threads: one
    /// blocking channel receive (returns the message). Events: parks
    /// this rank's fiber until everything `waiting` names has been
    /// delivered, then returns `None` — the caller re-drains its channel
    /// and re-scans.
    pub(crate) fn wait_message(
        &self,
        rank: usize,
        rx: &Receiver<Message>,
        now: f64,
        waiting: &mut WaitSet,
    ) -> Option<Message> {
        match self {
            Executor::Threads => Some(rx.recv().expect("all senders hung up")),
            Executor::Events(sched) => {
                sched.park(rank, now, waiting);
                None
            }
        }
    }

    /// Called by `Comm` right after handing `from`'s `tag` message to
    /// `to`'s channel. A no-op on threads (the channel's own condvar
    /// wakes the receiver); on events it checks the message off what a
    /// parked receiver waits for.
    pub(crate) fn notify_delivery(&self, to: usize, from: usize, tag: u32) {
        if let Executor::Events(sched) = self {
            sched.signal(to, from, tag);
        }
    }
}

/// A runnable rank in the event queue, keyed by the simulated time at
/// which it blocked. `Ord` is reversed so `BinaryHeap` (a max-heap)
/// pops the **smallest** `(time, rank)` first; the rank tiebreak makes
/// the order total, hence deterministic.
struct Runnable {
    time: f64,
    rank: usize,
}

impl PartialEq for Runnable {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Runnable {}
impl PartialOrd for Runnable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Runnable {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum RankState {
    /// In the event queue, waiting for the run token.
    Ready,
    /// Holds the run token (at most one rank at any time).
    Running,
    /// Parked until the last message its `waiting` set names is delivered.
    Blocked,
    /// Returned from its trainer closure.
    Done,
}

struct SchedState {
    status: Vec<RankState>,
    /// Simulated time at which each rank last blocked — its resume
    /// priority in the event queue.
    block_time: Vec<f64>,
    /// What each blocked rank named when it parked, deliveries since
    /// checked off.
    waiting: Vec<WaitSet>,
    /// How often each rank has parked: hand-offs are the engine's unit
    /// of host cost, and unlike a timing the count repeats exactly.
    parks: Vec<u64>,
    queue: BinaryHeap<Runnable>,
    done: usize,
    /// A rank panicked or the engine detected deadlock: every parked
    /// fiber must wake and unwind so the host's joins can complete.
    aborted: bool,
}

/// The single-token cooperative scheduler behind
/// [`ClusterBackend::Events`].
pub(crate) struct EventSched {
    state: Mutex<SchedState>,
    /// One condvar per rank so dispatch wakes exactly the chosen fiber
    /// (a shared condvar would thundering-herd all P fibers per event).
    wake: Vec<Condvar>,
}

impl EventSched {
    pub(crate) fn new(ranks: usize) -> Self {
        let mut queue = BinaryHeap::with_capacity(ranks);
        for rank in 0..ranks {
            queue.push(Runnable { time: 0.0, rank });
        }
        Self {
            state: Mutex::new(SchedState {
                status: vec![RankState::Ready; ranks],
                block_time: vec![0.0; ranks],
                waiting: (0..ranks).map(|_| WaitSet::default()).collect(),
                parks: vec![0; ranks],
                queue,
                done: 0,
                aborted: false,
            }),
            wake: (0..ranks).map(|_| Condvar::new()).collect(),
        }
    }

    /// Locks the scheduler, recovering from poisoning (the panicking
    /// fiber's own panic is what surfaces to the caller, via the join).
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands the run token to the runnable rank with the smallest
    /// `(block time, rank)`. Called only while **no** rank is running
    /// (the caller just parked or finished). An empty queue with live
    /// ranks left is a deadlock: abort the cluster and panic in the
    /// detecting fiber.
    fn dispatch(&self, st: &mut SchedState) {
        if let Some(next) = st.queue.pop() {
            st.status[next.rank] = RankState::Running;
            self.wake[next.rank].notify_all();
        } else if st.done < st.status.len() && !st.aborted {
            let describe = |Awaited { from, tag }| match from {
                Some(from) => format!("tag {tag:#x} from rank {from}"),
                None => format!("tag {tag:#x} from any rank"),
            };
            let blocked: Vec<String> = (0..st.status.len())
                .filter(|&rank| st.status[rank] == RankState::Blocked)
                .map(|rank| {
                    let missing: Vec<String> = st.waiting[rank].missing().map(describe).collect();
                    format!("rank {rank} ({})", missing.join("; "))
                })
                .collect();
            st.aborted = true;
            for cv in &self.wake {
                cv.notify_all();
            }
            panic!(
                "event backend deadlock: no rank is runnable; blocked waiting for \
                 traffic that will never arrive: {}",
                blocked.join(", ")
            );
        }
    }

    /// Fiber prologue: blocks until the scheduler hands this rank the
    /// run token for the first time.
    pub(crate) fn wait_turn(&self, rank: usize) {
        let mut st = self.lock();
        while st.status[rank] != RankState::Running {
            if st.aborted {
                panic!("event cluster aborted (a sibling rank panicked or deadlocked)");
            }
            st = self.wake[rank].wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Parks the calling rank at simulated time `now` until everything
    /// `waiting` names has been delivered (the set trades places with
    /// this rank's slot — whatever comes back is scratch), dispatches the
    /// next runnable rank, and blocks until the scheduler hands the token
    /// back.
    pub(crate) fn park(&self, rank: usize, now: f64, waiting: &mut WaitSet) {
        let mut st = self.lock();
        if st.aborted {
            panic!("event cluster aborted (a sibling rank panicked or deadlocked)");
        }
        st.status[rank] = RankState::Blocked;
        st.block_time[rank] = now;
        st.parks[rank] += 1;
        std::mem::swap(&mut st.waiting[rank], waiting);
        self.dispatch(&mut st);
        while st.status[rank] != RankState::Running {
            if st.aborted {
                panic!("event cluster aborted (a sibling rank panicked or deadlocked)");
            }
            st = self.wake[rank].wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Checks `from`'s `tag` message off what `rank` is parked for and
    /// makes it runnable if nothing it named is missing any more (a
    /// no-op for ranks that are ready, running or done, and for traffic a
    /// parked rank did not name: it drains its channel before it next
    /// parks, so nothing is lost). The caller keeps the run token; the
    /// woken rank resumes at its own recorded block time once dispatched.
    pub(crate) fn signal(&self, rank: usize, from: usize, tag: u32) {
        let mut st = self.lock();
        if st.status[rank] == RankState::Blocked && st.waiting[rank].deliver(from, tag) {
            st.status[rank] = RankState::Ready;
            let time = st.block_time[rank];
            st.queue.push(Runnable { time, rank });
        }
    }

    /// Fiber epilogue: releases the run token for good.
    pub(crate) fn finish(&self, rank: usize) {
        let mut st = self.lock();
        st.status[rank] = RankState::Done;
        st.done += 1;
        if st.done < st.status.len() {
            self.dispatch(&mut st);
        }
    }

    /// Wakes every parked fiber into a panic so the host's joins
    /// complete (called when any fiber's trainer closure panicked).
    pub(crate) fn abort(&self) {
        let mut st = self.lock();
        st.aborted = true;
        for cv in &self.wake {
            cv.notify_all();
        }
    }

    /// Seeds execution: every rank starts ready at t = 0; rank 0 runs
    /// first.
    fn start(&self) {
        let mut st = self.lock();
        self.dispatch(&mut st);
    }
}

/// Hosts one cluster run on the backend recorded in `shared.exec` and
/// returns the per-rank results in rank order.
pub(crate) fn host<R, F>(shared: Arc<Shared>, receivers: Vec<Receiver<Message>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let sched = match &shared.exec {
        Executor::Threads => None,
        Executor::Events(s) => Some(Arc::clone(s)),
    };
    match sched {
        None => host_threads(shared, receivers, &f),
        Some(sched) => host_events(sched, shared, receivers, &f),
    }
}

/// The seed hosting model: one preemptive OS thread per rank.
fn host_threads<R, F>(shared: Arc<Shared>, receivers: Vec<Receiver<Message>>, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(receivers.len());
        for (rank, rx) in receivers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            handles.push(s.spawn(move || {
                let mut comm = Comm::new(rank, rx, shared);
                f(&mut comm)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

/// Event hosting: each rank is a fiber — an OS thread with a small
/// lazily-committed stack that holds the run token while it executes and
/// parks in [`EventSched`] whenever it must wait. A panicking fiber
/// aborts the cluster (every parked sibling wakes and unwinds) so the
/// joins below always complete; the first join surfaces the panic as
/// "rank panicked", exactly like the thread backend.
fn host_events<R, F>(
    sched: Arc<EventSched>,
    shared: Arc<Shared>,
    receivers: Vec<Receiver<Message>>,
    f: &F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let stack = shared.config.event_stack_bytes;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(receivers.len());
        for (rank, rx) in receivers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let sched = Arc::clone(&sched);
            let handle = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(stack)
                .spawn_scoped(s, move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sched.wait_turn(rank);
                        let mut comm = Comm::new(rank, rx, shared);
                        f(&mut comm)
                    }));
                    match outcome {
                        Ok(v) => {
                            sched.finish(rank);
                            v
                        }
                        Err(payload) => {
                            sched.abort();
                            std::panic::resume_unwind(payload)
                        }
                    }
                })
                .expect("failed to spawn event-backend fiber");
            handles.push(handle);
        }
        sched.start();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeCategory;
    use crate::cluster::{ClusterConfig, VirtualCluster};

    impl EventSched {
        /// How often `rank` has parked so far.
        pub(crate) fn parks(&self, rank: usize) -> u64 {
            self.lock().parks[rank]
        }
    }

    fn events(p: usize) -> ClusterConfig {
        ClusterConfig::new(p).with_backend(ClusterBackend::Events)
    }

    fn recv(comm: &mut Comm, from: usize, tag: u32) -> Vec<f32> {
        let mut out = Vec::new();
        comm.recv_into(from, tag, TimeCategory::Other, &mut out);
        out
    }

    #[test]
    fn event_backend_runs_basic_p2p() {
        let out = VirtualCluster::run(&events(2), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &[1.0, 2.0], TimeCategory::Other);
                recv(comm, 1, 6)
            } else {
                let got = recv(comm, 0, 5);
                let doubled: Vec<f32> = got.iter().map(|x| x * 2.0).collect();
                comm.send(0, 6, &doubled, TimeCategory::Other);
                got
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0]);
        assert_eq!(out[1], vec![1.0, 2.0]);
    }

    #[test]
    fn event_backend_collectives_match_thread_backend() {
        let body = |comm: &mut Comm| {
            comm.charge(TimeCategory::ForwardBackward, comm.rank() as f64 * 0.5);
            let x = vec![comm.rank() as f32, 1.0];
            let mut sum = Vec::new();
            comm.allreduce_sum_into(&x, TimeCategory::GpuGpuParam, &mut sum);
            comm.barrier();
            (sum, comm.now())
        };
        let threads = VirtualCluster::run(&ClusterConfig::new(5), body);
        let evs = VirtualCluster::run(&events(5), body);
        for (t, e) in threads.iter().zip(&evs) {
            assert_eq!(t.0, e.0);
            assert_eq!(
                t.1.to_bits(),
                e.1.to_bits(),
                "sim times must be bit-identical"
            );
        }
    }

    #[test]
    fn event_backend_scales_past_thread_counts() {
        // A rank count that would be reckless as real OS-thread
        // parallelism is routine for the event engine.
        let p = 1024;
        let out = VirtualCluster::run(&events(p), |comm| {
            let mut sum = Vec::new();
            comm.allreduce_sum_into(&[1.0f32], TimeCategory::GpuGpuParam, &mut sum);
            sum[0]
        });
        assert_eq!(out.len(), p);
        for v in out {
            assert_eq!(v, p as f32);
        }
    }

    #[test]
    fn event_recv_any_order_is_deterministic() {
        // recv_any under events resolves FCFS by simulated time with a
        // deterministic schedule: repeated runs give identical arrival
        // orders even with many competing senders.
        let run = || {
            VirtualCluster::run(&events(9), |comm| {
                if comm.rank() == 0 {
                    let mut order = Vec::new();
                    for _ in 0..8 {
                        order.push(comm.recv_any_into(3, TimeCategory::Other, &mut Vec::new()));
                    }
                    order
                } else {
                    // Stagger clocks so arrivals are distinct and ordered.
                    comm.charge(TimeCategory::ForwardBackward, (9 - comm.rank()) as f64);
                    comm.send(0, 3, &[comm.rank() as f32], TimeCategory::Other);
                    Vec::new()
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a[0], b[0]);
        // FCFS means channel-delivery order (as on threads, where it is
        // the OS schedule); under events the delivery order is the
        // engine's deterministic rank schedule.
        assert_eq!(a[0], vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn event_backend_detects_deadlock() {
        // Rank 1 waits for a message rank 0 never sends: on threads this
        // would hang; the event engine proves no rank is runnable and
        // aborts.
        let _ = VirtualCluster::run(&events(2), |comm| {
            if comm.rank() == 1 {
                let _ = recv(comm, 0, 9);
            }
        });
    }

    /// Runs `body` on a `p`-rank event cluster that is expected to die,
    /// and returns the panic messages its ranks raised (the host's join
    /// only says "rank panicked").
    fn rank_panics(p: usize, body: impl Fn(&mut Comm) + Send + Sync) -> Vec<String> {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let seen = std::sync::Mutex::new(Vec::new());
        let run = catch_unwind(AssertUnwindSafe(|| {
            VirtualCluster::run(&events(p), |comm| {
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(comm))) {
                    if let Some(msg) = panic.downcast_ref::<String>() {
                        seen.lock().unwrap().push(msg.clone());
                    }
                    resume_unwind(panic);
                }
            })
        }));
        assert!(run.is_err(), "the cluster was expected to panic");
        seen.into_inner().unwrap()
    }

    #[test]
    fn mismatched_collectives_deadlock_naming_ranks_and_tags() {
        // Rank 2 enters a barrier while its peers reduce. Each op kind
        // has its own tag, so nothing matches: the hub starves on rank
        // 2's contribution and the engine reports who waits for what.
        let cat = TimeCategory::GpuGpuParam;
        let seen = rank_panics(3, |comm| {
            let mut out = Vec::new();
            if comm.rank() == 2 {
                comm.barrier();
            } else {
                comm.reduce_sum_costed_into(&[1.0], 0.0, cat, &mut out);
            }
        });
        let report = seen
            .iter()
            .find(|m| m.contains("event backend deadlock"))
            .unwrap_or_else(|| panic!("no deadlock report among {seen:?}"));
        let (reduce, barrier) = (crate::tags::hub(2), crate::tags::hub(0));
        for waiter in [
            format!("rank 0 (tag {reduce:#x} from rank 2)"),
            format!("rank 1 (tag {reduce:#x} from rank 0)"),
            format!("rank 2 (tag {barrier:#x} from rank 0)"),
        ] {
            assert!(report.contains(&waiter), "{waiter:?} not in {report:?}");
        }
    }

    #[test]
    fn deadlock_report_names_every_message_a_gather_still_misses() {
        // Ranks 2 and 3 are in a barrier instead: the hub's one park
        // misses both contributions.
        let seen = rank_panics(4, |comm| {
            if comm.rank() < 2 {
                comm.allreduce_sum_into(&[1.0], TimeCategory::Other, &mut Vec::new());
            } else {
                comm.barrier();
            }
        });
        let sum = crate::tags::hub(2);
        let want = format!("rank 0 (tag {sum:#x} from rank 2; tag {sum:#x} from rank 3)");
        assert!(seen.iter().any(|m| m.contains(&want)), "{seen:?}");
    }

    #[test]
    fn tree_allreduce_parks_once_per_wait_that_must_block() {
        // Every non-root waits once for the broadcast and every rank with
        // a child (the even ones below P-1) once for all its children:
        // the floor for run-to-block on a binomial tree. A count, so it
        // holds the hand-off saving on any host.
        use crate::collectives::tree_allreduce_sum;
        const ROUNDS: usize = 3;
        for p in [2usize, 5, 64, 1024] {
            let parks = VirtualCluster::run(&events(p), |comm| {
                for round in 0..ROUNDS {
                    comm.charge(TimeCategory::ForwardBackward, 0.1 + round as f64);
                    let mut data = vec![comm.rank() as f32; 3];
                    tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam);
                    assert_eq!(data, vec![(p * (p - 1) / 2) as f32; 3]);
                }
                comm.parks()
            });
            let per_round = (p - 1) + p / 2;
            assert_eq!(
                parks.iter().sum::<u64>(),
                (ROUNDS * per_round) as u64,
                "p={p}"
            );
        }
    }

    #[test]
    fn hub_gather_parks_the_hub_once() {
        let parks = VirtualCluster::run(&events(64), |comm| {
            let mut sum = Vec::new();
            comm.allreduce_sum_into(&[1.0], TimeCategory::GpuGpuParam, &mut sum);
            assert_eq!(sum, vec![64.0]);
            comm.parks()
        });
        assert_eq!(parks, vec![1; 64], "the hub and each contributor park once");
    }

    #[test]
    fn only_a_message_the_rank_named_wakes_it() {
        // Rank 0 waits for rank 2's tag-7 message; rank 1's tag-7 and
        // rank 2's tag-8 arrive first and must leave it parked.
        let out = VirtualCluster::run(&events(3), |comm| match comm.rank() {
            0 => {
                let named = recv(comm, 2, 7);
                let parks = comm.parks();
                (named, recv(comm, 1, 7), recv(comm, 2, 8), parks)
            }
            me => {
                if me == 2 {
                    comm.send(0, 8, &[8.0], TimeCategory::Other);
                }
                comm.send(0, 7, &[me as f32], TimeCategory::Other);
                (Vec::new(), Vec::new(), Vec::new(), comm.parks())
            }
        });
        assert_eq!(out[0], (vec![2.0], vec![1.0], vec![8.0], 1));
    }

    #[test]
    fn a_repeat_from_one_sender_does_not_complete_a_gather() {
        // Rank 1 sends twice before rank 2 sends at all: the second
        // message must not stand in for the one still missing.
        let out = VirtualCluster::run(&events(3), |comm| match comm.rank() {
            0 => {
                comm.await_all([(1, 7), (2, 7)]);
                let parks = comm.parks();
                let got = [recv(comm, 1, 7), recv(comm, 2, 7), recv(comm, 1, 7)];
                (got.concat(), parks, comm.parks())
            }
            me => {
                for i in 0..3 - me {
                    comm.send(0, 7, &[(10 * me + i) as f32], TimeCategory::Other);
                }
                (Vec::new(), 0, 0)
            }
        });
        assert_eq!(out[0], (vec![10.0, 20.0, 11.0], 1, 1));
    }

    #[test]
    fn unequal_reduce_contributions_panic_on_the_hub() {
        let seen = rank_panics(3, |comm| {
            let mine = vec![1.0f32; 1 + comm.rank() / 2];
            let mut out = Vec::new();
            comm.allreduce_sum_into(&mine, TimeCategory::GpuGpuParam, &mut out);
        });
        assert!(
            seen.iter()
                .any(|m| m.contains("collective contributions must have equal length")),
            "{seen:?}"
        );
    }

    #[test]
    fn every_collective_runs_at_one_rank_and_at_1024() {
        use easgd_hardware::collective::{broadcast_tree, reduce_tree};
        let cat = TimeCategory::GpuGpuParam;
        for p in [1usize, 1024] {
            let cfg = events(p);
            let link = cfg.link.clone();
            let outs = VirtualCluster::run(&cfg, |comm| {
                let me = comm.rank() as f32;
                let (mut r, mut g, mut a) = (Vec::new(), Vec::new(), Vec::new());
                comm.barrier();
                comm.reduce_sum_costed_into(&[1.0, me], 0.25, cat, &mut r);
                comm.allgather_into(&[me], cat, &mut g);
                comm.allreduce_sum_into(&[1.0], cat, &mut a);
                (r, g, a, comm.now())
            });
            let ranks: Vec<f32> = (0..p).map(|r| r as f32).collect();
            let want_time = reduce_tree(&link, p, 0)
                + 0.25
                + reduce_tree(&link, p, 4)
                + broadcast_tree(&link, p, 4 * p)
                + (reduce_tree(&link, p, 4) + broadcast_tree(&link, p, 4));
            assert_eq!(outs.len(), p);
            for (r, g, a, t) in outs {
                assert_eq!(r, vec![p as f32, ranks.iter().sum::<f32>()]);
                assert_eq!(g, ranks);
                assert_eq!(a, vec![p as f32]);
                assert!((t - want_time).abs() < 1e-12, "p={p}: {t} vs {want_time}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn event_backend_propagates_rank_panics() {
        let _ = VirtualCluster::run(&events(4), |comm| {
            comm.barrier();
            if comm.rank() == 2 {
                panic!("boom");
            }
            // Parked ranks must be woken into the abort, not left hanging.
            let _ = recv(comm, 3, 1);
        });
    }

    #[test]
    fn with_default_scopes_the_backend() {
        assert_eq!(ClusterBackend::default_backend(), ClusterBackend::Threads);
        ClusterBackend::Events.with_default(|| {
            assert_eq!(ClusterBackend::default_backend(), ClusterBackend::Events);
            let cfg = ClusterConfig::new(2);
            assert_eq!(cfg.backend, ClusterBackend::Events);
        });
        assert_eq!(ClusterBackend::default_backend(), ClusterBackend::Threads);
    }
}
