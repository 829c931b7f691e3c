//! The abstract comm-operation vocabulary shared between [`Comm`]'s
//! trace recorder and the xtask protocol model checker.
//!
//! A [`TraceOp`] is one observable communicator action, abstracted away
//! from payload contents and simulated time. [`Comm::trace_start`] /
//! [`Comm::trace_take`] record the exact sequence a rank executes, so
//! the model checker's per-rank programs are *generated from the
//! production code paths* rather than hand-transcribed — the model can
//! never drift from the implementation (DESIGN.md §12).
//!
//! The buffer-ledger reading of the ops: `TakeBuf` acquires one pooled
//! buffer; `Send` moves a held buffer into the in-flight message (the
//! receiver inherits the obligation); `Recv`/`RecvAny` acquire the
//! arriving message's buffer; `Recycle` returns a held buffer to the
//! pool (`recv_into` keeps the arrived buffer and recycles the one it
//! displaced — one credit either way). A shared payload is **one**
//! obligation however many ranks read it: `Share` turns a held buffer
//! into a payload with one reference, `Fork` adds the reference the
//! following `Send` carries, a receive of such a message acquires a
//! reference instead of a buffer, and `Release` drops one — the *last*
//! release cluster-wide discharges the obligation. `Isend`
//! consumes a held buffer at post time exactly like `Send`; an `Irecv`'s
//! obligation materializes at its `Wait`, which acquires the matched
//! message's buffer and recycles the posted one. In every terminal state
//! the checker requires each rank to hold no buffer and no payload
//! reference, a balanced ledger, and every posted `Irecv` discharged by
//! a `Wait` (no lost completions).
//!
//! [`Comm`]: crate::Comm
//! [`Comm::trace_start`]: crate::Comm::trace_start
//! [`Comm::trace_take`]: crate::Comm::trace_take

use std::fmt;

/// One communicator operation, as recorded by the trace shim and
/// replayed by the xtask protocol model checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// [`Comm::take_buffer`](crate::Comm::take_buffer): acquire one
    /// pooled buffer.
    TakeBuf,
    /// [`Comm::recycle_buffer`](crate::Comm::recycle_buffer): return one
    /// held buffer to the pool.
    Recycle,
    /// A message posted to rank `to` with `tag`, consuming one held
    /// buffer — or the reference a preceding `Fork` added (all send
    /// variants funnel here).
    Send { to: usize, tag: u32 },
    /// [`Comm::make_payload`](crate::Comm::make_payload) (or an owned
    /// message received as a payload): one held buffer becomes a shared
    /// payload, this rank holding its first reference.
    Share,
    /// [`Comm::send_payload_costed`](crate::Comm::send_payload_costed):
    /// one more reference to a held payload, carried by the `Send` that
    /// follows.
    Fork,
    /// One reference to a shared payload dropped
    /// ([`Comm::release_payload`](crate::Comm::release_payload), or a
    /// `recv_into`/`wait` that copied or moved it out).
    Release,
    /// A blocking source- and tag-selective receive completed.
    Recv { from: usize, tag: u32 },
    /// A blocking tag-selective FCFS receive from any source completed.
    RecvAny { tag: u32 },
    /// [`Comm::isend`](crate::Comm::isend) /
    /// [`Comm::isend_from`](crate::Comm::isend_from): a nonblocking send
    /// posted. The message is deposited *at post time* (consuming one
    /// held buffer, exactly like `Send`); only the sender's completion
    /// wait is deferred, which is a pure clock effect the model does not
    /// track. Waiting on a send request therefore records nothing.
    Isend { to: usize, tag: u32 },
    /// [`Comm::irecv_into`](crate::Comm::irecv_into): a nonblocking
    /// receive posted. Matching is deferred to the `Wait`, so this op is
    /// rank-local; the model counts it against the rank's outstanding
    /// requests so a dropped (never-waited) completion is detected.
    Irecv { from: usize, tag: u32 },
    /// [`Comm::wait`](crate::Comm::wait) completing a posted `Irecv`:
    /// matches the oldest in-flight `(from, tag)` message exactly like
    /// `Recv`, and discharges one outstanding request.
    Wait { from: usize, tag: u32 },
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::TakeBuf => write!(f, "take_buf"),
            TraceOp::Recycle => write!(f, "recycle"),
            TraceOp::Send { to, tag } => write!(f, "send(to={to}, tag={tag:#x})"),
            TraceOp::Share => write!(f, "share"),
            TraceOp::Fork => write!(f, "fork"),
            TraceOp::Release => write!(f, "release"),
            TraceOp::Recv { from, tag } => write!(f, "recv(from={from}, tag={tag:#x})"),
            TraceOp::RecvAny { tag } => write!(f, "recv_any(tag={tag:#x})"),
            TraceOp::Isend { to, tag } => write!(f, "isend(to={to}, tag={tag:#x})"),
            TraceOp::Irecv { from, tag } => write!(f, "irecv(from={from}, tag={tag:#x})"),
            TraceOp::Wait { from, tag } => write!(f, "wait(from={from}, tag={tag:#x})"),
        }
    }
}

impl TraceOp {
    /// Whether this op is purely rank-local (no message-queue effect):
    /// the model checker folds local ops into the preceding scheduling
    /// point, since they commute with every other rank's ops. `Irecv` is
    /// local — posting a receive is invisible to other ranks; the
    /// blocking point is its `Wait`.
    pub fn is_local(&self) -> bool {
        matches!(
            self,
            TraceOp::TakeBuf
                | TraceOp::Recycle
                | TraceOp::Share
                | TraceOp::Fork
                | TraceOp::Release
                | TraceOp::Irecv { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, TimeCategory, VirtualCluster};

    #[test]
    fn roundtrip_records_balanced_ledger_ops() {
        let cfg = ClusterConfig::new(2);
        let traces = VirtualCluster::run(&cfg, |comm| {
            comm.trace_start();
            if comm.rank() == 0 {
                let mut buf = comm.take_buffer(4);
                buf.resize(4, 1.0);
                comm.send_from(1, crate::tags::SYNC_DATA, buf, TimeCategory::Other);
            } else {
                let mut out = Vec::new();
                comm.recv_into(0, crate::tags::SYNC_DATA, TimeCategory::Other, &mut out);
            }
            comm.trace_take()
        });
        assert_eq!(
            traces[0],
            vec![
                TraceOp::TakeBuf,
                TraceOp::Send {
                    to: 1,
                    tag: crate::tags::SYNC_DATA
                }
            ]
        );
        assert_eq!(
            traces[1],
            vec![
                TraceOp::Recv {
                    from: 0,
                    tag: crate::tags::SYNC_DATA
                },
                TraceOp::Recycle
            ]
        );
    }

    #[test]
    fn copying_send_and_any_source_receive_record_take_and_recycle() {
        let cfg = ClusterConfig::new(2);
        let traces = VirtualCluster::run(&cfg, |comm| {
            comm.trace_start();
            if comm.rank() == 0 {
                comm.send(1, crate::tags::SYNC_DATA, &[1.0, 2.0], TimeCategory::Other);
            } else {
                let mut data = Vec::new();
                comm.recv_any_into(crate::tags::SYNC_DATA, TimeCategory::Other, &mut data);
            }
            comm.trace_take()
        });
        // `send` copies into a pooled buffer: TakeBuf then Send.
        assert_eq!(
            traces[0],
            vec![
                TraceOp::TakeBuf,
                TraceOp::Send {
                    to: 1,
                    tag: crate::tags::SYNC_DATA
                }
            ]
        );
        // `recv_any_into` keeps the arrived buffer and recycles the one
        // it displaced.
        assert_eq!(
            traces[1],
            vec![
                TraceOp::RecvAny {
                    tag: crate::tags::SYNC_DATA
                },
                TraceOp::Recycle
            ]
        );
    }

    #[test]
    fn tracing_is_off_by_default_and_take_stops_it() {
        let cfg = ClusterConfig::new(2);
        let traces = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, crate::tags::SYNC_DATA, &[1.0], TimeCategory::Other);
                Vec::new()
            } else {
                comm.trace_start();
                let first = comm.trace_take();
                // After take, recording is off again.
                let mut data = Vec::new();
                comm.recv_into(0, crate::tags::SYNC_DATA, TimeCategory::Other, &mut data);
                assert!(comm.trace_take().is_empty());
                first
            }
        });
        assert!(traces[1].is_empty());
    }
}
