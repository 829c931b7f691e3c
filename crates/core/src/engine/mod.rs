//! The unified training engine: one worker runtime, one elastic rule,
//! one trace pipeline under every EASGD variant.
//!
//! Every trainer in this crate — wall-clock or simulated — is a thin
//! composition of four layers:
//!
//! * [`shard`] — dataset partitioning and the seed-derivation rule:
//!   which RNG stream each worker/rank draws its batches from.
//! * [`local`] — [`LocalStep`]: the per-worker network replica and its
//!   step kernels (forward/backward, SGD, momentum, elastic forms).
//! * [`elastic`] / [`server`] — [`ElasticRule`]: Equations (1), (2),
//!   (5)–(6) and the Σ-form, keyed by `(η, ρ, µ)`; [`AsyncVariant`]: the
//!   asynchronous family's exchange, for both of its servers.
//! * [`trace`] / [`sim`] / [`wall`] — the measurement layer: off-clock
//!   evaluation, accuracy traces, loss traces, center fingerprints, and
//!   [`crate::metrics::RunResult`] assembly for the thread-pool and
//!   virtual-cluster substrates respectively.
//!
//! What remains in each trainer module is only the method itself: the
//! synchronization discipline (lock, turn, barrier, FCFS server, tree
//! reduce) and the schedule of communication charges. A new async
//! method is one [`AsyncVariant`] arm and one [`crate::MethodId`] arm;
//! any other picks a runtime ([`wall::run_exchange_loop`] or a
//! `VirtualCluster` closure returning [`sim::RankOutcome`]s), writes the
//! exchange, and registers it.
//!
//! [`crate::run_method`] maps every [`crate::MethodId`] of the Figure 9
//! lineage to its wall-clock implementation, exhaustively — there is no
//! fallback arm, so adding a `MethodId` without a trainer is a compile
//! error.

pub mod elastic;
pub mod local;
pub mod server;
pub mod shard;
pub mod sim;
pub mod trace;
pub mod wall;

pub use elastic::ElasticRule;
pub use local::LocalStep;
pub use server::AsyncVariant;
pub use shard::{
    additive_rng, derive_seed, rank_rng, worker_rng, WorkerShard, SALT_HOGWILD, SALT_PHI,
};
pub use sim::{assemble_sim, RankOutcome};
pub use trace::{center_fingerprint, evaluate_center, RunAssembler, TraceRecorder};
pub use wall::{run_exchange_loop, run_worker_loop, WallRun};
