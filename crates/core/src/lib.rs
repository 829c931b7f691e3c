//! # easgd — the SC '17 algorithm family
//!
//! Rust implementation of the distributed training algorithms from
//! *“Scaling Deep Learning on GPU and Knights Landing clusters”*
//! (You, Buluç, Demmel, SC '17), together with the baselines the paper
//! compares against. The method lineage (Figure 9):
//!
//! ```text
//!                 round-robin            FCFS                lock-free
//! Original EASGD ───────────► Async EASGD ─────► Hogwild EASGD
//!      │   tree reduce              │ momentum
//!      └────────► Sync EASGD   Async MEASGD
//!
//! Async SGD ──momentum──► Async MSGD        Hogwild SGD   (existing)
//! ```
//!
//! Two execution substrates:
//!
//! * **Shared-memory, wall-clock** ([`shared`], [`hogwild`]) — the
//!   asynchronous family (Async SGD/MSGD/EASGD/MEASGD, Hogwild
//!   SGD/EASGD, turn-based Original EASGD, barrier-based Sync EASGD) run
//!   on real threads against a real clock, because lock-freedom and FCFS
//!   vs round-robin ordering are *concurrency* phenomena (Figures 6, 8).
//! * **Simulated cluster** ([`sync`], [`original`], [`async_sim`]) — the
//!   deterministic multi-GPU schedules (Original EASGD*/pipelined, Sync
//!   EASGD1/2/3, the FCFS server under every [`AsyncVariant`]) run on
//!   `easgd-cluster`'s virtual ranks with α-β-priced
//!   communication, reproducing the Table 3 / Figure 11 time breakdowns
//!   and the Figure 13 scaling curves.
//!
//! Plus the two co-design studies:
//!
//! * [`knl_partition`] — the §6.2 divide-and-conquer chip partitioning
//!   (Figure 12), gated by the MCDRAM capacity rule.
//! * [`weak_scaling`] — the Table 4 weak-scaling model for
//!   GoogLeNet/VGG on up to 4352 KNL cores.

pub mod async_sim;
pub mod config;
pub mod convex;
pub mod dispatch;
pub mod engine;
pub mod hierarchical;
pub mod hogwild;
pub mod knl_partition;
pub mod lineage;
pub mod metrics;
pub mod model_parallel;
pub mod original;
pub mod schedule;
pub mod serial;
pub mod shared;
pub mod simcost;
pub mod straggler;
pub mod sync;
pub mod weak_scaling;

pub use async_sim::async_server_sim;
pub use config::TrainConfig;
pub use convex::QuadraticProblem;
pub use dispatch::{run_comparison, run_method};
pub use engine::{AsyncVariant, ElasticRule, LocalStep, WorkerShard};
pub use hierarchical::{hierarchical_sync_easgd, GpuClusterTopology};
pub use hogwild::{hogwild_easgd, hogwild_sgd};
pub use knl_partition::{knl_partition_run, KnlPartitionOutcome};
pub use lineage::{lineage, LineageEdge, MethodId};
pub use metrics::{RunResult, TracePoint};
pub use model_parallel::model_parallel_speedup;
pub use original::{original_easgd_sim, OriginalMode};
pub use schedule::LrSchedule;
pub use serial::{serial_sgd, SerialConfig};
pub use shared::{async_measgd, sync_easgd_shared};
pub use simcost::SimCosts;
pub use straggler::{straggler_study, StragglerConfig, StragglerOutcome};
pub use sync::{sync_easgd_sim, sync_easgd_sim_with, sync_sgd_sim, SyncExchange, SyncVariant};
pub use weak_scaling::{WeakScalingModel, WeakScalingRow};
