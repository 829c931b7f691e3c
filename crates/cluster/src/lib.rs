//! # easgd-cluster
//!
//! A virtual HPC cluster for the `knl-easgd` reproduction of *“Scaling
//! Deep Learning on GPU and Knights Landing clusters”* (SC '17).
//!
//! The paper runs its algorithms over MPI + NCCL on InfiniBand/Aries
//! fabrics. Here every rank executes real code (gradients are genuinely
//! computed), while every communication operation is **charged against
//! an α-β cost model** on a per-rank **simulated clock**. The result:
//! algorithmic schedules (round-robin vs FCFS vs tree reduction) produce
//! exactly the relative timings the paper analyses, without the physical
//! cluster. Two execution [`backend`]s host the ranks: OS threads (the
//! default, real parallelism at small P) or a single-token discrete-event
//! engine that runs every rank as a fiber on the calling thread
//! (thousands of ranks for the Table 4 / Figure 13 weak-scaling sweeps)
//! — trainer code is identical on both.
//!
//! * [`backend`] — the thread/event execution seam
//!   ([`backend::ClusterBackend`]), the event scheduler and its host
//!   loop.
//! * [`clock`] — per-rank simulated time plus the Table 3 time-category
//!   breakdown (`cpu-gpu para comm`, `for/backward`, …).
//! * [`comm`] — the per-rank communicator: blocking and nonblocking
//!   point-to-point send / recv / recv-any (FCFS) into caller buffers.
//! * [`cluster`] — [`cluster::VirtualCluster::run`]:
//!   starts the ranks, hands each a [`comm::Comm`], collects results.
//! * [`collectives`] — every collective: binomial-tree reduce /
//!   broadcast / allreduce and a barrier, the ring allreduce and the
//!   flat gather baseline, all message programs over `comm` whose
//!   simulated time is what their messages cost.
//! * [`pool`] — the cluster-wide payload buffer pool behind the
//!   zero-allocation exchange path (DESIGN.md §10).
//! * [`tags`] — the named tag-range registry every subsystem draws its
//!   point-to-point tags from (enforced by xtask lint rule 7).
//! * [`trace`] — the comm-operation vocabulary behind [`comm::Comm`]'s
//!   trace-recording shim, which the xtask protocol checker's ledger
//!   reads (DESIGN.md §12).
//!
//! ```
//! use easgd_cluster::{tree_allreduce_sum, ClusterConfig, TimeCategory, VirtualCluster};
//!
//! let config = ClusterConfig::new(4);
//! let sums = VirtualCluster::run(&config, |comm| {
//!     let mut total = vec![comm.rank() as f32];
//!     tree_allreduce_sum(comm, &mut total, TimeCategory::GpuGpuParam);
//!     total[0]
//! });
//! assert_eq!(sums, vec![6.0; 4]);
//! ```

pub mod backend;
pub mod channel;
pub mod clock;
pub mod cluster;
pub mod codec;
pub mod collectives;
pub mod comm;
pub mod pool;
pub mod request;
pub mod tags;
pub mod trace;

pub use backend::ClusterBackend;
pub use clock::{RankReport, SimClock, TimeBreakdown, TimeCategory};
pub use cluster::{ClusterConfig, Explored, VirtualCluster};
pub use codec::{BatchMsg, CodecError};
pub use collectives::{
    flat_gather_sum, ring_allreduce_sum, tree_allreduce_sum, tree_allreduce_sum_among,
    tree_broadcast, tree_broadcast_among, tree_reduce_sum, tree_reduce_sum_among, TreeRole,
};
pub use comm::{Comm, Payload};
pub use pool::PoolStats;
pub use request::{Request, RequestCollection};
pub use trace::TraceOp;
