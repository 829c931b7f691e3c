//! `easgd-xtask` — workspace static analysis and model checking.
//!
//! Two subsystems, exposed as a library (so the root test suite can drive
//! them) and as a `cargo run -p easgd-xtask` CLI:
//!
//! * [`lint`] — a source-level lint pass over every workspace `.rs` file
//!   enforcing the repo's concurrency/determinism rules (no `unsafe`, no
//!   wall-clock reads in simulated-clock code, justified atomic orderings,
//!   no `unwrap` in library hot paths).
//! * [`interleave`] — a bounded, exhaustive, deterministic interleaving
//!   explorer for the Hogwild CAS kernels (`fetch_add`, elastic center
//!   update), with a deliberately racy kernel as a negative self-test.
//! * [`protocol`] — a protocol checker for the comm layer: the
//!   *production* collectives, trainer exchanges and FCFS server run on
//!   the event backend once per order their `recv_any`s can see, and
//!   every execution is checked for deadlock, unreceived messages,
//!   buffer-pool leaks and lost completions (DESIGN.md §12).

pub mod interleave;
pub mod lint;
pub mod protocol;
