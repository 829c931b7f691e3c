//! # easgd-hardware
//!
//! Analytic hardware cost models for the `knl-easgd` reproduction of
//! *“Scaling Deep Learning on GPU and Knights Landing clusters”* (SC '17).
//!
//! The paper analyses communication with the classic α-β model (§5.2,
//! Table 2) and reasons about devices through peak compute, memory
//! capacity and bandwidth (KNL's MCDRAM, GPU on-chip memory, PCIe links).
//! This crate encodes those models so the simulated cluster can charge
//! realistic costs without the physical hardware:
//!
//! * [`net`] — α-β links with the Table 2 presets (FDR/QDR InfiniBand,
//!   10 GbE), PCIe switches, and Cori's Aries interconnect.
//! * [`collective`] — closed-form costs of the communication patterns the
//!   algorithms use: round-robin / linear Θ(P) vs binomial-tree Θ(log P),
//!   the crux of Sync EASGD1 (§6.1.1).
//! * [`compute`] — device compute rates (K80, M40, KNL 7250, Haswell) for
//!   converting model flops into simulated seconds.
//! * [`gpu`] — GPU device descriptors (memory capacity gates what can be
//!   resident, §6.1.2).
//! * [`knl`] — the KNL chip: 68 cores, 16 GB MCDRAM at 475 GB/s vs DDR4
//!   at 90 GB/s, and the §6.2 partition-capacity rule.

pub mod collective;
pub mod compute;
pub mod gpu;
pub mod knl;
pub mod net;

pub use collective::{
    allreduce_rabenseifner, broadcast_tree, linear_exchange, reduce_tree, round_robin_exchange,
};
pub use compute::ComputeModel;
pub use gpu::GpuDevice;
pub use knl::KnlChip;
pub use net::AlphaBeta;
