//! Execution backends hosting the ranks of a
//! [`VirtualCluster`](crate::cluster::VirtualCluster).
//!
//! Everything in the cluster crate that depends on how a rank is hosted
//! lives behind this seam: the blocking channel receive, the spawning
//! and joining of ranks, and the wake-up protocol between a sender and a
//! blocked receiver. Two backends implement it:
//!
//! * [`ClusterBackend::Threads`] — one OS thread per rank, preemptive,
//!   blocking on its channel. The seed behavior; real parallelism,
//!   practical up to ~tens of ranks.
//! * [`ClusterBackend::Events`] — a single-token discrete-event engine.
//!   Every rank runs its real trainer code as a [`Fiber`] — a small,
//!   lazily-committed stack of its own — on the thread that called
//!   [`VirtualCluster::run`](crate::VirtualCluster::run), and exactly
//!   **one** rank runs at a time: a rank that must wait parks, names
//!   every message it cannot proceed without, and switches in user space
//!   to the host loop, which resumes the runnable rank with the smallest
//!   `(simulated time, rank)` key in the event queue; the delivery of the
//!   last message it named makes it runnable again, nothing else does.
//!   Thousands of ranks (the paper's 4352-core weak-scaling sweeps and
//!   beyond) share one thread with no OS scheduler between them and a
//!   deterministic schedule.
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
//! scheduler transitions happen on one thread, one rank at a time, so
//! there is no lost-wakeup window — whenever a fiber runs, every other
//! live fiber is parked at a stable wait point. All ranks share that
//! thread's thread-locals; DESIGN.md §14.4 lists what each one shows a
//! rank.

use crate::channel::Receiver;
use crate::cluster::Shared;
use crate::comm::{Awaited, Comm, Message, WaitSet};
use easgd_tensor::fiber::{self, Fiber};
use easgd_tensor::par;
use std::any::Any;
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default per-rank fiber stack size for the event backend (2 MiB, the
/// same as `std::thread`'s default). Each stack is a `MAP_NORESERVE`
/// mapping whose pages are committed on first touch, below it a guard
/// page, so 8192 fibers cost virtual address space, not resident
/// memory; a rank that overflows its stack dies by SIGSEGV on the guard.
pub const DEFAULT_EVENT_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Which execution substrate hosts the ranks of a virtual cluster.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ClusterBackend {
    /// One OS thread per rank (preemptive, blocking channels).
    Threads,
    /// Discrete-event engine: every rank a fiber on the caller's thread,
    /// one running at a time; scales to thousands of ranks.
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
                sched.park(rank, now, waiting, None);
                None
            }
        }
    }

    /// The scheduler of a [`VirtualCluster::explore`] run, whose
    /// `recv_any`s the host resolves; `None` on every `run`.
    ///
    /// [`VirtualCluster::explore`]: crate::VirtualCluster::explore
    pub(crate) fn branching(&self) -> Option<Arc<EventSched>> {
        match self {
            Executor::Events(sched) if sched.lock().branching.is_some() => Some(Arc::clone(sched)),
            _ => None,
        }
    }

    /// Called by `Comm` right after handing `from`'s `tag` message to
    /// `to`'s channel. A no-op on threads (the channel's own condvar
    /// wakes the receiver if it sleeps in `recv`); on events it checks
    /// the message off what a parked receiver waits for. An event rank
    /// never sleeps in `recv`, so its sends signal no condvar and make
    /// no system call: the whole hand-off is this check and a queue push.
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
    /// Its fiber has ended, by returning or by panicking.
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
    /// The rank that parked last: the one a deadlock report is raised in.
    last_parked: usize,
    /// A rank panicked or the engine detected deadlock: every parked
    /// fiber is resumed into a panic, so every fiber ends.
    aborted: bool,
    /// The deadlock report, until the rank it is addressed to takes it.
    deadlock: Option<(usize, String)>,
    /// `VirtualCluster::explore`'s branch points; `None` on every `run`.
    branching: Option<Branching>,
}

/// The branch points of one [`VirtualCluster::explore`] run: every
/// `recv_any` parks, and once no rank can run the host resolves one of
/// them by the next pick.
///
/// [`VirtualCluster::explore`]: crate::VirtualCluster::explore
struct Branching {
    /// The pick for each branch point in turn; 0 once they run out, and
    /// the last option for an entry past it.
    picks: Vec<usize>,
    /// How many options each branch point so far had.
    options: Vec<usize>,
    /// Per rank parked in a `recv_any`: its tag, and the senders of the
    /// matching messages it holds, oldest first.
    open: Vec<Option<(u32, Vec<usize>)>>,
    /// The sender picked for the rank resolved last, which runs next.
    picked: Option<usize>,
}

impl Branching {
    /// Resolves one parked `recv_any` — the rank and the sender that the
    /// next pick names among every rank's options, in rank then arrival
    /// order — and returns the rank; `None` if no rank has an option.
    fn resolve(&mut self) -> Option<usize> {
        let offers = || {
            self.open.iter().enumerate().flat_map(|(rank, open)| {
                open.iter()
                    .flat_map(move |(_, senders)| senders.iter().map(move |&from| (rank, from)))
            })
        };
        let options = offers().count();
        let pick = self.picks.get(self.options.len()).copied().unwrap_or(0);
        let (rank, from) = offers().nth(pick.min(options.checked_sub(1)?))?;
        self.options.push(options);
        self.open[rank] = None;
        self.picked = Some(from);
        Some(rank)
    }
}

impl SchedState {
    /// Panics in `rank` if the cluster has been aborted: with the
    /// deadlock report if it is addressed to `rank`, otherwise with the
    /// abort notice.
    fn check_abort(&mut self, rank: usize) {
        if !self.aborted {
            return;
        }
        match self.deadlock.take_if(|(to, _)| *to == rank) {
            Some((_, report)) => panic!("{report}"),
            None => panic!("event cluster aborted (a sibling rank panicked or deadlocked)"),
        }
    }

    /// Builds the deadlock report (every blocked rank and every
    /// `(tag, sender)` it still misses), addresses it to the rank that
    /// parked last and aborts the cluster.
    fn deadlock(&mut self) {
        let describe = |Awaited { from, tag }| match from {
            Some(from) => format!("tag {tag:#x} from rank {from}"),
            None => format!("tag {tag:#x} from any rank"),
        };
        let blocked: Vec<String> = (0..self.status.len())
            .filter(|&rank| self.status[rank] == RankState::Blocked)
            .map(|rank| {
                let missing: Vec<String> = self.waiting[rank].missing().map(describe).collect();
                format!("rank {rank} ({})", missing.join("; "))
            })
            .collect();
        let report = format!(
            "event backend deadlock: no rank is runnable; blocked waiting for \
             traffic that will never arrive: {}",
            blocked.join(", ")
        );
        self.deadlock = Some((self.last_parked, report));
        self.aborted = true;
    }
}

/// The single-token cooperative scheduler behind
/// [`ClusterBackend::Events`]. Every rank runs on the thread that called
/// [`VirtualCluster::run`](crate::VirtualCluster::run); the lock is never
/// contended, it only keeps [`Shared`] `Sync` for the thread backend.
pub(crate) struct EventSched {
    state: Mutex<SchedState>,
}

impl EventSched {
    /// The scheduler of a [`VirtualCluster::explore`] run that takes
    /// `picks` at its branch points.
    ///
    /// [`VirtualCluster::explore`]: crate::VirtualCluster::explore
    pub(crate) fn branching(ranks: usize, picks: &[usize]) -> Self {
        let sched = Self::new(ranks);
        sched.lock().branching = Some(Branching {
            // xtask: allow(payload-copy) — a few picks, not a payload.
            picks: picks.to_vec(),
            options: Vec::new(),
            open: vec![None; ranks],
            picked: None,
        });
        sched
    }

    /// How many options each branch point of an explore run had.
    pub(crate) fn options(&self) -> Vec<usize> {
        let mut st = self.lock();
        st.branching
            .as_mut()
            .map(|b| std::mem::take(&mut b.options))
            .unwrap_or_default()
    }

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
                last_parked: 0,
                aborted: false,
                deadlock: None,
                branching: None,
            }),
        }
    }

    /// Locks the scheduler, recovering from poisoning: the one panic
    /// raised under the lock, [`SchedState::check_abort`]'s, comes before
    /// any update.
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The host loop's step: the rank to resume next, or `None` once
    /// every rank is done. Called only while **no** rank is running.
    ///
    /// Normally that is the runnable rank with the smallest
    /// `(block time, rank)`, which now holds the run token. With the
    /// queue empty, an explore run resolves a parked `recv_any`. Else,
    /// with live ranks left, it is a deadlock: the cluster aborts, and
    /// from then on every live rank is resumed, the deadlock report's
    /// addressee first and then in rank order, to panic where it parked.
    fn next(&self) -> Option<usize> {
        let mut st = self.lock();
        if !st.aborted {
            if let Some(next) = st.queue.pop() {
                st.status[next.rank] = RankState::Running;
                return Some(next.rank);
            }
            if st.done == st.status.len() {
                return None;
            }
            if let Some(rank) = st.branching.as_mut().and_then(Branching::resolve) {
                st.status[rank] = RankState::Running;
                return Some(rank);
            }
            st.deadlock();
        }
        let addressee = st.deadlock.as_ref().map(|&(to, _)| to);
        addressee.or_else(|| st.status.iter().position(|&s| s != RankState::Done))
    }

    /// Parks the calling rank at simulated time `now` until everything
    /// `waiting` names has been delivered (the set trades places with
    /// this rank's slot — whatever comes back is scratch) and switches
    /// to the host loop, which resumes it once it is dispatched again.
    ///
    /// A `recv_any` of an explore run passes `open`: its tag and the
    /// senders of the matches it holds. It waits for the host's pick,
    /// not for a delivery, and gets the picked sender back.
    pub(crate) fn park(
        &self,
        rank: usize,
        now: f64,
        waiting: &mut WaitSet,
        open: Option<(u32, Vec<usize>)>,
    ) -> Option<usize> {
        {
            let mut st = self.lock();
            st.check_abort(rank);
            st.status[rank] = RankState::Blocked;
            st.block_time[rank] = now;
            st.parks[rank] += 1;
            st.last_parked = rank;
            std::mem::swap(&mut st.waiting[rank], waiting);
            if let Some(branching) = st.branching.as_mut() {
                branching.open[rank] = open;
            }
        }
        fiber::suspend();
        let mut st = self.lock();
        st.check_abort(rank);
        st.branching.as_mut().and_then(|b| b.picked.take())
    }

    /// Checks `from`'s `tag` message off what `rank` is parked for and
    /// makes it runnable if nothing it named is missing any more (a
    /// no-op for ranks that are ready, running or done, and for traffic a
    /// parked rank did not name: it drains its channel before it next
    /// parks, so nothing is lost). The caller keeps the run token; the
    /// woken rank resumes at its own recorded block time once dispatched.
    /// A rank parked in an explore run's `recv_any` gains an option
    /// instead, if the message matches.
    pub(crate) fn signal(&self, rank: usize, from: usize, tag: u32) {
        let mut st = self.lock();
        if st.status[rank] != RankState::Blocked {
            return;
        }
        let open = st.branching.as_mut().and_then(|b| b.open[rank].as_mut());
        if let Some((want, senders)) = open {
            if *want == tag && !senders.contains(&from) {
                senders.push(from);
            }
        } else if st.waiting[rank].deliver(from, tag) {
            st.status[rank] = RankState::Ready;
            let time = st.block_time[rank];
            st.queue.push(Runnable { time, rank });
        }
    }

    /// Records that `rank`'s fiber ended; a panic aborts the cluster.
    fn retire(&self, rank: usize, panicked: bool) {
        let mut st = self.lock();
        st.status[rank] = RankState::Done;
        st.done += 1;
        st.aborted |= panicked;
    }
}

/// Hosts one cluster run on the backend recorded in `shared.exec` and
/// returns the per-rank results in rank order, or the message of the
/// first rank panic. Every rank that returns passes
/// [`Comm::check_exit`] first.
///
/// The ranks compute under the caller's thread budget `B`
/// ([`par::current_threads`]): on threads, where all `P` ranks compute
/// at once, each rank's thread installs `max(1, B/P)`; on the event
/// backend one rank runs at a time and every rank shares the caller's
/// thread, so one `B` is installed around the whole host loop. The
/// kernels inside a rank's step fork within that share and no further.
pub(crate) fn host<R, F>(
    shared: Arc<Shared>,
    receivers: Vec<Receiver<Message>>,
    f: F,
) -> Result<Vec<R>, String>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let budget = par::current_threads();
    let sched = match &shared.exec {
        Executor::Threads => None,
        Executor::Events(s) => Some(Arc::clone(s)),
    };
    match sched {
        None => {
            let share = (budget / receivers.len().max(1)).max(1);
            host_threads(shared, receivers, &|comm: &mut Comm| {
                par::with_budget(share, || f(comm))
            })
        }
        Some(sched) => par::with_budget(budget, || host_events(&sched, shared, receivers, &f)),
    }
}

/// The seed hosting model: one preemptive OS thread per rank.
fn host_threads<R, F>(
    shared: Arc<Shared>,
    receivers: Vec<Receiver<Message>>,
    f: &F,
) -> Result<Vec<R>, String>
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
                let result = f(&mut comm);
                comm.check_exit();
                result
            }));
        }
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(panic_message)
    })
}

/// The text of a panic payload (`panic!` with a message carries one).
fn panic_message(panic: Box<dyn Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(text) => *text,
        Err(panic) => match panic.downcast_ref::<&str>() {
            Some(text) => text.to_string(),
            None => "a panic without a message".to_string(),
        },
    }
}

/// Event hosting: each rank is a [`Fiber`] on the calling thread, and
/// this loop is the scheduler's other half. It resumes whichever rank
/// [`EventSched::next`] names; the rank runs until it parks (and
/// switches back here) or its fiber ends. A rank that panicked aborts
/// the cluster: every parked sibling is resumed into a panic, so every
/// fiber ends and every stack is unmapped; then the run fails with the
/// first panic's message, exactly like the thread backend's join.
fn host_events<R, F>(
    sched: &EventSched,
    shared: Arc<Shared>,
    receivers: Vec<Receiver<Message>>,
    f: &F,
) -> Result<Vec<R>, String>
where
    F: Fn(&mut Comm) -> R,
{
    let stack = shared.config.event_stack_bytes;
    let results: Vec<Cell<Option<R>>> = receivers.iter().map(|_| Cell::new(None)).collect();
    let mut fibers: Vec<Fiber<'_>> = receivers
        .into_iter()
        .zip(&results)
        .enumerate()
        .map(|(rank, (rx, slot))| {
            let shared = Arc::clone(&shared);
            Fiber::new(
                stack,
                Box::new(move || {
                    // A rank first resumed after an abort runs none of its
                    // own code.
                    sched.lock().check_abort(rank);
                    let mut comm = Comm::new(rank, rx, shared);
                    let result = f(&mut comm);
                    comm.check_exit();
                    slot.set(Some(result));
                }),
            )
        })
        .collect();
    let mut first_panic = None;
    while let Some(rank) = sched.next() {
        let fiber = &mut fibers[rank];
        fiber.resume();
        if fiber.is_done() {
            let panic = fiber.take_panic();
            sched.retire(rank, panic.is_some());
            first_panic = first_panic.or(panic);
        }
    }
    drop(fibers);
    if let Some(panic) = first_panic {
        return Err(panic_message(panic));
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.into_inner().expect("a rank ended without a result"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeCategory;
    use crate::cluster::{ClusterConfig, VirtualCluster};
    use crate::collectives::{barrier, tree_allreduce_sum, tree_broadcast, tree_reduce_sum};
    use crate::trace::TraceOp;

    impl EventSched {
        /// How often `rank` has parked so far.
        pub(crate) fn parks(&self, rank: usize) -> u64 {
            self.lock().parks[rank]
        }

        /// The allocated capacity of `rank`'s wait-set slot.
        pub(crate) fn waiting_capacity(&self, rank: usize) -> usize {
            self.lock().waiting[rank].capacity()
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
    fn ranks_run_under_their_share_of_the_callers_budget() {
        // Threads: P ranks compute at once, each gets max(1, B/P).
        // Events: one rank runs at a time, each gets all of B.
        for (budget, p, threads_share) in [(8usize, 4usize, 2usize), (5, 2, 2), (2, 4, 1)] {
            let read = |cfg: &ClusterConfig| {
                par::with_budget(budget, || {
                    VirtualCluster::run(cfg, |_| par::current_threads())
                })
            };
            assert_eq!(
                read(&ClusterConfig::new(p)),
                vec![threads_share; p],
                "threads, B={budget}"
            );
            assert_eq!(read(&events(p)), vec![budget; p], "events, B={budget}");
        }
    }

    #[test]
    fn ranks_finishing_out_of_order_leave_the_callers_budget_alone() {
        // Rank 0 starts first and finishes first while rank 1, started
        // second, is still parked: per-rank budget guards would restore
        // out of order and leave one installed on the caller's thread.
        let body = |comm: &mut Comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 1 {
                comm.send(peer, 1, &[1.0], TimeCategory::Other);
            }
            let got = recv(comm, peer, 1);
            if comm.rank() == 0 {
                comm.send(peer, 1, &[0.0], TimeCategory::Other);
            }
            (got, par::installed_budget())
        };
        assert_eq!(par::installed_budget(), None);
        let out = VirtualCluster::run(&events(2), body);
        let budget = Some(par::max_threads());
        assert_eq!(out, vec![(vec![1.0], budget), (vec![0.0], budget)]);
        assert_eq!(par::installed_budget(), None);
    }

    #[test]
    fn event_ranks_see_the_callers_thread_locals_and_thread_ranks_start_fresh() {
        use easgd_tensor::{active_tier, with_scalar_kernels};
        let threads = |p| ClusterConfig::new(p).with_backend(ClusterBackend::Threads);
        let native = active_tier();
        // simd's scalar override.
        let (on_events, on_threads) = with_scalar_kernels(|| {
            (
                VirtualCluster::run(&events(3), |_| active_tier()),
                VirtualCluster::run(&threads(3), |_| active_tier()),
            )
        });
        assert_eq!(on_events, vec!["scalar"; 3]);
        assert_eq!(on_threads, vec![native; 3]);
        // The default backend.
        let (on_events, on_threads) = ClusterBackend::Events.with_default(|| {
            let read = |_: &mut Comm| ClusterBackend::default_backend();
            (
                VirtualCluster::run(&events(2), read),
                VirtualCluster::run(&threads(2), read),
            )
        });
        assert_eq!(on_events, vec![ClusterBackend::Events; 2]);
        assert_eq!(on_threads, vec![ClusterBackend::Threads; 2]);
    }

    #[test]
    fn event_ranks_count_their_work_on_the_callers_thread() {
        use easgd_tensor::{gemm, Transpose};
        let calls = |c: gemm::Counts| {
            [c.standard, c.skinny, c.stream, c.transposed_stream]
                .iter()
                .map(|n| n.calls)
                .sum::<u64>()
        };
        // One 2×2×2 product and one two-job fork per rank.
        let body = |_: &mut Comm| {
            let mut c = [0.0f32; 4];
            let (ta, tb) = (Transpose::No, Transpose::No);
            gemm::gemm(ta, tb, 2, 2, 2, 1.0, &[1.0; 4], &[1.0; 4], 0.0, &mut c);
            par::fan_out([0, 1], |_| {});
            c
        };
        let read = || (gemm::counts(), par::threads_spawned());
        let before = read();
        let on_events = VirtualCluster::run(&events(3), body);
        let after_events = read();
        let on_threads = VirtualCluster::run(&ClusterConfig::new(3), body);
        assert_eq!(on_events, vec![[2.0; 4]; 3]);
        assert_eq!(on_threads, on_events);
        // On events the three ranks' products and spawns land in the
        // caller's counts; on threads they died with the rank threads.
        assert_eq!(calls(after_events.0.since(&before.0)), 3);
        assert_eq!(after_events.1 - before.1, 3);
        assert_eq!(read(), after_events);
    }

    #[test]
    fn a_rank_runs_an_inner_event_cluster() {
        let inner = || {
            VirtualCluster::run(&events(4), |comm| {
                comm.charge(TimeCategory::ForwardBackward, comm.rank() as f64 * 0.5);
                let mut sum = vec![comm.rank() as f32, 1.0];
                tree_allreduce_sum(comm, &mut sum, TimeCategory::GpuGpuParam);
                (sum, comm.now().to_bits())
            })
        };
        let alone = inner();
        let outs = VirtualCluster::run(&events(3), |comm| {
            let mut before = vec![1.0f32];
            tree_allreduce_sum(comm, &mut before, TimeCategory::GpuGpuParam);
            let nested = (comm.rank() == 1).then(inner);
            barrier(comm);
            (before[0], nested)
        });
        assert_eq!(outs[0], (3.0, None));
        assert_eq!(outs[1], (3.0, Some(alone)));
        assert_eq!(outs[2], (3.0, None));
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
            let mut sum = vec![comm.rank() as f32, 1.0];
            tree_allreduce_sum(comm, &mut sum, TimeCategory::GpuGpuParam);
            barrier(comm);
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
            let mut sum = vec![1.0f32];
            tree_allreduce_sum(comm, &mut sum, TimeCategory::GpuGpuParam);
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
        // Rank 2 waits for a broadcast while its peers allreduce. Reduce
        // partials and broadcasts ride different tags, so nothing
        // matches: the root starves on rank 2's partial and the engine
        // reports who waits for what.
        let cat = TimeCategory::GpuGpuParam;
        let seen = rank_panics(3, |comm| {
            let mut data = vec![1.0];
            if comm.rank() == 2 {
                tree_broadcast(comm, 0, &mut data, cat);
            } else {
                tree_allreduce_sum(comm, &mut data, cat);
            }
        });
        let report = seen
            .iter()
            .find(|m| m.contains("event backend deadlock"))
            .unwrap_or_else(|| panic!("no deadlock report among {seen:?}"));
        let (reduce, bcast) = (crate::tags::TREE_REDUCE, crate::tags::TREE_BCAST);
        for waiter in [
            format!("rank 0 (tag {:#x} from rank 2)", reduce | 2),
            format!("rank 1 (tag {:#x} from rank 0)", bcast | 1),
            format!("rank 2 (tag {:#x} from rank 0)", bcast | 2),
        ] {
            assert!(report.contains(&waiter), "{waiter:?} not in {report:?}");
        }
    }

    #[test]
    fn deadlock_report_names_every_message_a_gather_still_misses() {
        // Ranks 1 and 2 wait for a broadcast instead of contributing:
        // the root's one park misses both partials.
        let seen = rank_panics(4, |comm| {
            let mut data = vec![1.0];
            if comm.rank() == 1 || comm.rank() == 2 {
                tree_broadcast(comm, 0, &mut data, TimeCategory::Other);
            } else {
                tree_allreduce_sum(comm, &mut data, TimeCategory::Other);
            }
        });
        let reduce = crate::tags::TREE_REDUCE;
        let want = format!(
            "rank 0 (tag {:#x} from rank 1; tag {:#x} from rank 2)",
            reduce | 1,
            reduce | 2
        );
        assert!(seen.iter().any(|m| m.contains(&want)), "{seen:?}");
    }

    #[test]
    fn tree_allreduce_parks_once_per_wait_that_must_block() {
        // Every non-root waits once for the broadcast and every rank with
        // a child (the even ones below P-1) once for all its children:
        // the floor for run-to-block on a binomial tree. A count, so it
        // holds the hand-off saving on any host.
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
            // Per rank: once for all its children's partials (a gather
            // parks once, not once per child) and once for the broadcast
            // unless it is the root.
            for (rank, &n) in parks.iter().enumerate() {
                let waits =
                    usize::from(rank.is_multiple_of(2) && rank + 1 < p) + usize::from(rank != 0);
                assert_eq!(n, (ROUNDS * waits) as u64, "p={p} rank {rank}");
            }
        }
    }

    #[test]
    fn an_event_host_hands_off_without_a_condvar_wake() {
        // Event ranks park in the scheduler, never in the channel's
        // recv, so no send has a sleeper to wake; the fibers run on this
        // thread, so its wake count is theirs.
        const ROUNDS: usize = 3;
        let p = 64;
        let before = crate::channel::wakes();
        let parks = VirtualCluster::run(&events(p), |comm| {
            for _ in 0..ROUNDS {
                let mut data = vec![1.0f32; 8];
                tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam);
            }
            comm.parks()
        });
        assert_eq!(crate::channel::wakes() - before, 0);
        let per_round = (p - 1) + p / 2;
        assert_eq!(parks.iter().sum::<u64>(), (ROUNDS * per_round) as u64);
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
    fn unequal_reduce_contributions_panic() {
        let seen = rank_panics(3, |comm| {
            let mut mine = vec![1.0f32; 1 + comm.rank() / 2];
            tree_allreduce_sum(comm, &mut mine, TimeCategory::GpuGpuParam);
        });
        assert!(
            seen.iter()
                .any(|m| m.contains("tree reduce length mismatch")),
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
                let (mut r, mut b, mut a) = (vec![1.0, me], vec![7.0 + me], vec![1.0]);
                barrier(comm);
                tree_reduce_sum(comm, 0, &mut r, cat);
                tree_broadcast(comm, 0, &mut b, cat);
                tree_allreduce_sum(comm, &mut a, cat);
                (r, b, a, comm.now())
            });
            let rank_sum: f32 = (0..p).map(|r| r as f32).sum();
            // At a power of two every tree leaves all ranks together, so
            // the hops of the four collectives add up.
            let tree = |bytes| reduce_tree(&link, p, bytes) + broadcast_tree(&link, p, bytes);
            let want_time =
                tree(0) + reduce_tree(&link, p, 8) + broadcast_tree(&link, p, 4) + tree(4);
            assert_eq!(outs.len(), p);
            assert_eq!(
                outs[0].0,
                vec![p as f32, rank_sum],
                "the root holds the sum"
            );
            for (_, b, a, t) in outs {
                assert_eq!(b, vec![7.0]);
                assert_eq!(a, vec![p as f32]);
                assert!((t - want_time).abs() < 1e-12, "p={p}: {t} vs {want_time}");
            }
        }
    }

    #[test]
    fn explore_defers_every_recv_any_and_run_never_does() {
        // Rank 0's recv_any finds rank 1's message queued; rank 2's is
        // still to come. `run` takes the queued one at once; `explore`
        // parks until no rank can run, then lets the pick decide.
        let tag = 3;
        let body = |comm: &mut Comm| match comm.rank() {
            0 => {
                let _ = recv(comm, 1, tag + 1);
                let first = comm.recv_any_into(tag, TimeCategory::Other, &mut Vec::new());
                let second = comm.recv_any_into(tag, TimeCategory::Other, &mut Vec::new());
                vec![first, second]
            }
            me => {
                comm.send(0, tag, &[], TimeCategory::Other);
                if me == 1 {
                    comm.send(0, tag + 1, &[], TimeCategory::Other);
                }
                Vec::new()
            }
        };
        assert_eq!(VirtualCluster::run(&events(3), body)[0], [1, 2]);
        // A pick past the last option takes the last.
        for (picks, order) in [(vec![], [1, 2]), (vec![1], [2, 1]), (vec![7, 7], [2, 1])] {
            let run = VirtualCluster::explore(&events(3), &picks, body);
            assert_eq!(run.options, [2, 1], "{picks:?}");
            assert_eq!(run.outcome.expect("the run passes")[0], order);
            let any = |from| TraceOp::RecvAny { from, tag };
            assert!(run.traces[0].ends_with(&[any(order[1]), TraceOp::Recycle]));
        }
        // Whatever the backend `config` names, explore runs on events.
        let wildcard_free = VirtualCluster::explore(&ClusterConfig::new(4), &[], |comm| {
            let mut sum = vec![1.0f32];
            tree_allreduce_sum(comm, &mut sum, TimeCategory::Other);
            sum[0]
        });
        assert!(wildcard_free.options.is_empty());
        assert_eq!(wildcard_free.outcome, Ok(vec![4.0; 4]));
    }

    #[test]
    fn explore_reports_the_deadlock_instead_of_panicking() {
        let run = VirtualCluster::explore(&events(2), &[], |comm| {
            let peer = 1 - comm.rank();
            recv(comm, peer, 9)
        });
        assert!(run.options.is_empty());
        let report = run.outcome.expect_err("both ranks wait for each other");
        for waiter in [
            "rank 0 (tag 0x9 from rank 1)",
            "rank 1 (tag 0x9 from rank 0)",
        ] {
            assert!(report.contains(waiter), "{report}");
        }
        assert_eq!(run.traces, [Vec::new(), Vec::new()]);
    }

    #[test]
    fn an_unreceived_message_fails_the_run_on_both_backends() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for backend in [ClusterBackend::Threads, ClusterBackend::Events] {
            let cfg = ClusterConfig::new(2).with_backend(backend);
            let run = catch_unwind(AssertUnwindSafe(|| {
                VirtualCluster::run(&cfg, |comm| {
                    if comm.rank() == 0 {
                        comm.send(1, 1, &[1.0], TimeCategory::Other);
                        comm.send(1, 2, &[2.0], TimeCategory::Other);
                    } else {
                        let _ = recv(comm, 0, 2);
                    }
                })
            }));
            let panic = run.expect_err("the leftover fails the run");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            let want = "rank 1 exited with 1 unreceived message(s): tag 0x1 from rank 0";
            assert!(message.contains(want), "{backend:?}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn event_backend_propagates_rank_panics() {
        let _ = VirtualCluster::run(&events(4), |comm| {
            barrier(comm);
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
