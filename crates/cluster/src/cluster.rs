//! Cluster configuration and construction.

use crate::backend::{self, ClusterBackend, EventSched, Executor};
use crate::channel;
use crate::comm::{Comm, Message};
use crate::pool::BufferPool;
use crate::trace::TraceOp;
use easgd_hardware::net::AlphaBeta;
use std::sync::{Arc, Mutex};

/// Configuration of a virtual cluster.
///
/// Cheap to share: the only non-`Copy` field (the link model) sits
/// behind an `Arc`, so `Clone`/[`ClusterConfig::handle`] hand out
/// references to one allocation rather than deep copies.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of ranks.
    pub ranks: usize,
    /// Inter-rank link model (shared, not copied, between handles).
    pub link: Arc<AlphaBeta>,
    /// Execution substrate hosting the ranks (threads vs events).
    pub backend: ClusterBackend,
    /// Per-fiber stack size for the event backend (ignored by the
    /// thread backend). Lazily committed, so large rank counts cost
    /// virtual address space, not resident memory.
    pub event_stack_bytes: usize,
}

impl ClusterConfig {
    /// `ranks` ranks over FDR InfiniBand, hosted on the thread-local
    /// default backend (threads unless scoped with
    /// [`ClusterBackend::with_default`]).
    pub fn new(ranks: usize) -> Self {
        assert!(ranks > 0, "cluster needs at least one rank");
        Self {
            ranks,
            link: Arc::new(AlphaBeta::fdr_infiniband()),
            backend: ClusterBackend::default_backend(),
            event_stack_bytes: backend::DEFAULT_EVENT_STACK_BYTES,
        }
    }

    /// Replaces the link model.
    pub fn with_link(mut self, link: AlphaBeta) -> Self {
        self.link = Arc::new(link);
        self
    }

    /// Replaces the execution backend.
    pub fn with_backend(mut self, backend: ClusterBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Replaces the event-backend fiber stack size.
    pub fn with_event_stack(mut self, bytes: usize) -> Self {
        self.event_stack_bytes = bytes;
        self
    }

    /// A handle to the same configuration: `Copy` fields plus a shared
    /// reference to the link model. Equivalent to `Clone`, spelled out
    /// so readers (and the payload-copy lint) can see no payload-sized
    /// data is duplicated.
    pub fn handle(&self) -> ClusterConfig {
        ClusterConfig {
            ranks: self.ranks,
            link: Arc::clone(&self.link),
            backend: self.backend,
            event_stack_bytes: self.event_stack_bytes,
        }
    }
}

/// Shared state of one virtual cluster.
pub(crate) struct Shared {
    pub(crate) config: Arc<ClusterConfig>,
    pub(crate) senders: Vec<channel::Sender<Message>>,
    /// Cluster-wide payload buffer pool (see [`crate::pool`]).
    pub(crate) pool: BufferPool,
    /// How ranks block and wake on this run's backend.
    pub(crate) exec: Executor,
}

/// A virtual cluster: P ranks over a priced interconnect, hosted on
/// the backend named by [`ClusterConfig::backend`].
pub struct VirtualCluster;

impl VirtualCluster {
    /// Runs `f` on every rank and returns the per-rank results in rank
    /// order.
    ///
    /// Each rank receives its own [`Comm`]; real data flows between ranks
    /// through in-memory channels while simulated time is charged per the
    /// cluster's [`ClusterConfig`]. Whether the ranks are preemptive OS
    /// threads or event-scheduled fibers is the backend's business — the
    /// closure cannot tell the difference (see [`crate::backend`]).
    ///
    /// # Panics
    /// Panics with `rank panicked` and the first rank panic's message if
    /// a rank panics, deadlocks (event backend), or returns with a
    /// message it never received.
    pub fn run<R, F>(config: &ClusterConfig, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let exec = config.backend.executor(config.ranks);
        host(config, exec, f).unwrap_or_else(|panic| panic!("rank panicked: {panic}"))
    }

    /// One run of `f` on the event backend (whatever `config` names)
    /// that lets `picks` decide every order a run can observe — the
    /// protocol checker's seam (DESIGN.md §12).
    ///
    /// Sends never block and every other receive names its sender, so
    /// only a `recv_any` can see the schedule. Here a `recv_any` parks
    /// even when a match is queued. Once no rank can run, the host
    /// resolves one parked `recv_any`: entry `i` of `picks` (0 past the
    /// end) names the rank that goes and the sender whose oldest
    /// matching message it takes, counting every rank's senders in rank
    /// order and then arrival order. [`VirtualCluster::run`] never
    /// defers: it takes the oldest match.
    pub fn explore<R, F>(config: &ClusterConfig, picks: &[usize], f: F) -> Explored<R>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let p = config.ranks;
        let sched = Arc::new(EventSched::branching(p, picks));
        let traces: Vec<Mutex<Vec<TraceOp>>> = (0..p).map(|_| Mutex::default()).collect();
        let outcome = host(config, Executor::Events(Arc::clone(&sched)), |comm| {
            comm.trace_start();
            let result = f(comm);
            *traces[comm.rank()]
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = comm.trace_take();
            result
        });
        Explored {
            options: sched.options(),
            outcome,
            traces: traces
                .into_iter()
                .map(|t| t.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect(),
        }
    }
}

/// What one [`VirtualCluster::explore`] run did.
#[derive(Debug)]
pub struct Explored<R> {
    /// How many options each branch point had, in the order the host
    /// met them: a run branches only at a `recv_any`.
    pub options: Vec<usize>,
    /// The ranks' results in rank order, or the message of the panic
    /// that ended the run: a rank's own, the host's deadlock report, or
    /// its exit check's unreceived message.
    pub outcome: Result<Vec<R>, String>,
    /// Each rank's recorded operations; empty for a rank that did not
    /// return.
    pub traces: Vec<Vec<TraceOp>>,
}

/// Builds the channels and shared state of one run on `exec` and hosts
/// `f` on every rank.
fn host<R, F>(config: &ClusterConfig, exec: Executor, f: F) -> Result<Vec<R>, String>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let p = config.ranks;
    let mut senders = Vec::with_capacity(p);
    let mut receivers = Vec::with_capacity(p);
    for _ in 0..p {
        let (tx, rx) = channel::unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared {
        exec,
        config: Arc::new(config.handle()),
        senders,
        pool: BufferPool::new(),
    });
    backend::host(shared, receivers, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TimeCategory;
    use crate::collectives::{barrier, tree_allreduce_sum, tree_reduce_sum};

    fn allreduce(comm: &mut Comm, x: &[f32], category: TimeCategory) -> Vec<f32> {
        let mut out = x.to_vec();
        tree_allreduce_sum(comm, &mut out, category);
        out
    }

    #[test]
    fn run_returns_results_in_rank_order() {
        let cfg = ClusterConfig::new(6);
        let out = VirtualCluster::run(&cfg, |comm| comm.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let cfg = ClusterConfig::new(5);
        let out = VirtualCluster::run(&cfg, |comm| {
            let x = vec![comm.rank() as f32, 1.0];
            allreduce(comm, &x, TimeCategory::GpuGpuParam)
        });
        for v in out {
            assert_eq!(v, vec![0.0 + 1.0 + 2.0 + 3.0 + 4.0, 5.0]);
        }
    }

    #[test]
    fn reduce_delivers_sum_to_the_root() {
        let cfg = ClusterConfig::new(3);
        let out = VirtualCluster::run(&cfg, |comm| {
            let mut sum = vec![1.0f32];
            tree_reduce_sum(comm, 0, &mut sum, TimeCategory::GpuGpuParam);
            sum
        });
        assert_eq!(out[0], vec![3.0]);
    }

    #[test]
    fn collectives_synchronize_clocks() {
        let cfg = ClusterConfig::new(4);
        let times = VirtualCluster::run(&cfg, |comm| {
            // Rank r does r seconds of compute, then a barrier.
            comm.charge(TimeCategory::ForwardBackward, comm.rank() as f64);
            barrier(comm);
            comm.now()
        });
        // Everyone ends at the slowest rank's time + barrier cost.
        let t0 = times[0];
        assert!(t0 >= 3.0);
        for t in &times {
            assert!((t - t0).abs() < 1e-12);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_cross_match() {
        let cfg = ClusterConfig::new(3);
        let out = VirtualCluster::run(&cfg, |comm| {
            let mut acc = 0.0;
            for i in 0..10 {
                let s = allreduce(comm, &[i as f32], TimeCategory::Other);
                acc += s[0];
            }
            acc
        });
        // Σ 3i for i in 0..10 = 3·45 = 135.
        for v in out {
            assert_eq!(v, 135.0);
        }
    }

    #[test]
    fn single_rank_cluster_works() {
        let cfg = ClusterConfig::new(1);
        let out = VirtualCluster::run(&cfg, |comm| {
            let s = allreduce(comm, &[7.0], TimeCategory::Other);
            barrier(comm);
            s[0]
        });
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = ClusterConfig::new(0);
    }
}
