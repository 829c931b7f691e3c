//! Typed handles for nonblocking point-to-point operations.
//!
//! [`Comm::isend`] / [`Comm::isend_from`] / [`Comm::irecv_into`] return a
//! [`Request`]; completion happens at [`Comm::wait`] (or
//! [`Comm::wait_all`] over a [`RequestCollection`]), which is where
//! simulated time is settled and — for receives — where the matched
//! message's buffer is moved in and the posted one recycled, exactly
//! like the blocking `_into` forms (DESIGN.md §13).
//!
//! The semantics mirror MPI's request objects:
//!
//! * a nonblocking **send** deposits its message at post time (the
//!   payload buffer migrates with it, as in [`Comm::send_from`]); the
//!   sender's NIC injects outstanding sends serially, and `wait` merely
//!   advances the sender's clock to the injection's completion — free if
//!   local compute already ran past it. That residual-only accounting is
//!   the §6.3 overlap mechanism.
//! * a nonblocking **receive** takes ownership of the caller's
//!   destination buffer; matching is deferred to `wait`, which serves
//!   the oldest in-flight `(from, tag)` message FCFS (the same
//!   pending-queue discipline as [`Comm::recv_into`]), hands back the
//!   message's own buffer, and recycles the posted one in its place.
//! * waiting twice on the same request is a bug and panics; dropping a
//!   request without waiting is flagged by a debug assertion (a lost
//!   completion; the protocol checker's ledger pairs every `Irecv` with
//!   a `Wait` in release builds too).
//!
//! [`Comm::isend`]: crate::Comm::isend
//! [`Comm::isend_from`]: crate::Comm::isend_from
//! [`Comm::irecv_into`]: crate::Comm::irecv_into
//! [`Comm::wait`]: crate::Comm::wait
//! [`Comm::wait_all`]: crate::Comm::wait_all
//! [`Comm::send_from`]: crate::Comm::send_from
//! [`Comm::recv_into`]: crate::Comm::recv_into

use crate::clock::TimeCategory;

/// What an outstanding [`Request`] is waiting for.
#[derive(Debug)]
pub(crate) enum ReqState {
    /// A posted nonblocking send: the message is already in flight;
    /// `completion` is the simulated time at which this rank's NIC
    /// finishes injecting it.
    Send { completion: f64 },
    /// A posted nonblocking receive: matching is deferred to the wait.
    /// `out` is the caller's destination buffer, owned by the request
    /// until completion hands it back.
    Recv {
        from: usize,
        tag: u32,
        out: Vec<f32>,
    },
}

/// A handle to one outstanding nonblocking operation (see the module
/// docs for the completion contract).
#[derive(Debug)]
pub struct Request {
    /// `None` once completed; `wait` on a completed request panics.
    pub(crate) state: Option<ReqState>,
    /// Time category the completion wait is charged to (fixed at post
    /// time, so xtask's tag discipline sees the tag at the call site).
    pub(crate) category: TimeCategory,
}

impl Request {
    pub(crate) fn new(state: ReqState, category: TimeCategory) -> Self {
        Self {
            state: Some(state),
            category,
        }
    }

    /// Whether this is a receive request (false: send).
    ///
    /// # Panics
    /// Panics if the request has already completed.
    pub fn is_recv(&self) -> bool {
        match self.state.as_ref() {
            Some(ReqState::Recv { .. }) => true,
            Some(ReqState::Send { .. }) => false,
            None => panic!("is_recv on a completed request"),
        }
    }
}

/// Drop-without-wait detection: completing a request is the only way its
/// clock accounting and (for receives) its matched message are settled.
/// A request dropped while still outstanding means the schedule lost a
/// completion — flagged in debug builds, mirroring the protocol
/// checker's terminal outstanding-request check.
impl Drop for Request {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            debug_assert!(
                self.state.is_none(),
                "request dropped without wait: {:?}",
                self.state
            );
        }
    }
}

/// An ordered set of [`Request`]s, for bulk completion via
/// [`Comm::wait_all`](crate::Comm::wait_all) (the shape of an MPI
/// request collection: push handles as operations are posted, complete
/// them together at the synchronization point).
#[derive(Debug, Default)]
pub struct RequestCollection {
    pub(crate) reqs: Vec<Request>,
}

impl RequestCollection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an outstanding request.
    pub fn push(&mut self, req: Request) {
        self.reqs.push(req);
    }

    /// Number of requests currently held.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether the collection holds no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Reserves capacity for at least `n` requests (so steady-state
    /// schedules can push without reallocating).
    pub fn reserve(&mut self, n: usize) {
        self.reqs.reserve(n);
    }
}
