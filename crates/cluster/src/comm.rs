//! The per-rank communicator.
//!
//! Steady-state data movement is zero-allocation and zero-copy:
//! point-to-point payloads ride in pool-recycled buffers that migrate
//! with the message and are *moved* into the receiver's output (whose
//! previous storage is recycled), fan-out rides one reference-counted
//! [`Payload`], and collectives write into caller-provided buffers
//! (DESIGN.md §10).
//!
//! There is one transport and no collective here: the collectives in
//! [`crate::collectives`] are message programs over these point-to-point
//! primitives, so the pool, the trace recorder, the FIFO checks, the
//! protocol checker and the event scheduler see every inter-rank byte, and every simulated second is what those messages cost.

use crate::clock::{RankReport, SimClock, TimeCategory};
use crate::cluster::Shared;
use crate::pool::{FreeList, PoolStats};
use crate::request::{ReqState, Request, RequestCollection};
use crate::trace::TraceOp;
#[cfg(feature = "strict-invariants")]
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// How many recycled buffers a rank keeps privately before spilling to
/// the cluster-wide pool. Small: the exchange path needs at most a couple
/// of in-flight buffers per rank, and anything beyond that should be
/// visible to other ranks.
const LOCAL_FREE_MAX: usize = 4;

/// ...and how many bytes. The private list spares small messages the
/// shared mutex; next to touching this much memory the lock is noise, so
/// parameter-sized buffers always go where every rank can reuse them
/// (the tree root must not hoard what the leaves are allocating).
const LOCAL_FREE_MAX_BYTES: usize = 64 * 1024;

/// Backing storage of a message payload: either a pool-recycled buffer
/// owned by the message (the common case), or a shared reference-counted
/// buffer for one-copy fan-out of the same data to many destinations
/// (§5.2's packed center broadcast from the master).
#[derive(Debug)]
pub(crate) enum PayloadBuf {
    Owned(Vec<f32>),
    Shared(Arc<Vec<f32>>),
}

/// A reusable, reference-counted payload for fanning the same data out to
/// several destinations with one copy (see [`Comm::make_payload`] and
/// [`Comm::send_payload_costed`]).
#[derive(Clone)]
pub struct Payload(Arc<Vec<f32>>);

impl Payload {
    /// The payload's contents.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A point-to-point message between ranks.
#[derive(Debug)]
pub(crate) struct Message {
    pub(crate) from: usize,
    pub(crate) tag: u32,
    pub(crate) data: PayloadBuf,
    /// Simulated arrival time at the receiver (sender's clock after the
    /// α-β send cost).
    pub(crate) arrival: f64,
    /// Per-(sender, receiver) post sequence number, for the
    /// strict-invariants per-(src,dst,tag) FIFO delivery check.
    #[cfg(feature = "strict-invariants")]
    pub(crate) seq: u64,
}

/// One kind of message a blocked rank waits for: the next with `tag`
/// from rank `from`, or — `None` — from any rank.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Awaited {
    pub(crate) from: Option<usize>,
    pub(crate) tag: u32,
}

impl Awaited {
    fn matches(&self, msg: &Message) -> bool {
        msg.tag == self.tag && self.from.is_none_or(|from| msg.from == from)
    }
}

/// Everything a rank needs delivered before it can proceed, handed to
/// the backend when the rank blocks. The event engine checks deliveries
/// off it, makes the rank runnable on the one that empties it, and names
/// what is left in its deadlock report.
///
/// A sorted vector whose entries are marked done, never removed: it
/// trades places with the scheduler's slot at every park, so both keep
/// their capacity and a warm park allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct WaitSet {
    /// Every named `(from, tag)` once, in order, and whether it has
    /// been delivered.
    entries: Vec<(Awaited, bool)>,
    /// How many entries are not delivered yet.
    remaining: usize,
}

impl WaitSet {
    fn reset(&mut self, wanted: impl IntoIterator<Item = (Option<usize>, u32)>) {
        self.entries.clear();
        let named = wanted
            .into_iter()
            .map(|(from, tag)| (Awaited { from, tag }, false));
        self.entries.extend(named);
        self.entries.sort_unstable();
        self.entries.dedup();
        self.remaining = self.entries.len();
    }

    /// Whether everything named has been delivered.
    fn is_complete(&self) -> bool {
        self.remaining == 0
    }

    /// Checks a delivered `(from, tag)` off — `Some(from)` first, then
    /// the wildcard — in O(log k) even for a gather missing thousands of
    /// senders. True when it was the last one missing; a repeat, or
    /// traffic the set does not name, changes nothing.
    pub(crate) fn deliver(&mut self, from: usize, tag: u32) -> bool {
        for from in [Some(from), None] {
            let key = Awaited { from, tag };
            if let Ok(i) = self.entries.binary_search_by_key(&key, |&(a, _)| a) {
                if !std::mem::replace(&mut self.entries[i].1, true) {
                    self.remaining -= 1;
                    return self.remaining == 0;
                }
            }
        }
        false
    }

    /// What has not been delivered yet, in `(from, tag)` order.
    pub(crate) fn missing(&self) -> impl Iterator<Item = Awaited> + '_ {
        self.entries
            .iter()
            .filter(|(_, done)| !done)
            .map(|&(a, _)| a)
    }
}

/// A rank's handle to the cluster: identity, simulated clock and
/// point-to-point messaging.
///
/// Not `Clone` — each rank owns exactly one, mirroring an MPI
/// communicator.
pub struct Comm {
    rank: usize,
    rx: crate::channel::Receiver<Message>,
    /// Messages received but not yet matched by a `recv(from, tag)`.
    pending: VecDeque<Message>,
    /// What this rank last blocked for (scratch: it trades places with
    /// the event scheduler's slot at every park).
    waiting: WaitSet,
    clock: SimClock,
    shared: Arc<Shared>,
    /// Private free list in front of the cluster-wide pool: the
    /// steady-state p2p path pops and pushes here without touching the
    /// shared mutex.
    local_free: FreeList,
    /// When `Some`, every comm operation appends its [`TraceOp`] — the
    /// trace-recording shim whose ops the xtask protocol checker's ledger
    /// reads (DESIGN.md §12). `None` (the default) costs one branch per op.
    trace: Option<Vec<TraceOp>>,
    /// Simulated time at which this rank's NIC finishes injecting its
    /// last posted message. Nonblocking sends queue behind it (their
    /// completion is `max(now, nic_free) + cost`), and blocking sends
    /// drain it first — so per-sender arrival times stay monotone even
    /// when `isend` and `send` interleave. Always `<= now` while no
    /// nonblocking send is outstanding, making the drain a no-op on the
    /// purely blocking paths.
    nic_free: f64,
    /// Latest arrival time ingested per sender, for the strict-invariants
    /// per-sender FCFS check (the channel is FIFO per sender, and each
    /// sender's simulated clock is monotone, so arrivals from one rank
    /// must reach us in non-decreasing arrival order). Sparse: most ranks
    /// talk to O(1) peers, and a dense per-rank vector would cost O(P²)
    /// memory cluster-wide at event-backend scales (P = 8192).
    #[cfg(feature = "strict-invariants")]
    last_arrival: HashMap<usize, f64>,
    /// Next post sequence number per destination rank (stamped onto
    /// outgoing messages for the receiver's FIFO check). Sparse, like
    /// `last_arrival`.
    #[cfg(feature = "strict-invariants")]
    send_seq: HashMap<usize, u64>,
    /// Highest sequence number matched per (sender, tag): selective
    /// receives may reorder across tags, but within one (src,dst,tag)
    /// stream delivery must follow post order.
    #[cfg(feature = "strict-invariants")]
    matched_seq: HashMap<(usize, u32), u64>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        rx: crate::channel::Receiver<Message>,
        shared: Arc<Shared>,
    ) -> Self {
        Self {
            rank,
            rx,
            pending: VecDeque::new(),
            waiting: WaitSet::default(),
            clock: SimClock::new(),
            shared,
            local_free: FreeList::default(),
            trace: None,
            nic_free: 0.0,
            #[cfg(feature = "strict-invariants")]
            last_arrival: HashMap::new(),
            #[cfg(feature = "strict-invariants")]
            send_seq: HashMap::new(),
            #[cfg(feature = "strict-invariants")]
            matched_seq: HashMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Trace recording (the protocol checker's shim)
    // ------------------------------------------------------------------

    /// Starts recording every comm operation as a [`TraceOp`].
    /// [`VirtualCluster::explore`](crate::VirtualCluster::explore)
    /// records every rank this way.
    pub fn trace_start(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Stops recording and returns the operations since
    /// [`trace_start`](Self::trace_start) (empty if recording was off).
    pub fn trace_take(&mut self) -> Vec<TraceOp> {
        self.trace.take().unwrap_or_default()
    }

    #[inline]
    fn note(&mut self, op: TraceOp) {
        if let Some(t) = self.trace.as_mut() {
            t.push(op);
        }
    }

    /// Strict-invariants per-(src,dst,tag) FIFO check on a matched
    /// message: within one (sender, tag) stream, matched sequence
    /// numbers must be strictly increasing.
    #[cfg(feature = "strict-invariants")]
    fn check_fifo(&mut self, msg: &Message) {
        let last = self.matched_seq.insert((msg.from, msg.tag), msg.seq);
        debug_assert!(
            last.is_none_or(|l| msg.seq > l),
            "per-(src,dst,tag) FIFO violation: rank {} matched seq {} from \
             rank {} tag {:#x} after seq {:?}",
            self.rank,
            msg.seq,
            msg.from,
            msg.tag,
            last
        );
    }

    #[cfg(not(feature = "strict-invariants"))]
    #[inline]
    fn check_fifo(&mut self, _msg: &Message) {}

    /// Strict-invariants ingest check, applied to every message pulled
    /// off the channel: per-sender FCFS arrival-order monotonicity.
    #[cfg(feature = "strict-invariants")]
    fn check_ingest(&mut self, msg: &Message) {
        let last = self
            .last_arrival
            .entry(msg.from)
            .or_insert(f64::NEG_INFINITY);
        debug_assert!(
            msg.arrival >= *last,
            "FCFS violation: rank {} received a message from rank {} with \
             arrival {} after one with arrival {}",
            self.rank,
            msg.from,
            msg.arrival,
            *last
        );
        *last = msg.arrival;
    }

    #[cfg(not(feature = "strict-invariants"))]
    #[inline]
    fn check_ingest(&mut self, _msg: &Message) {}

    /// This rank's id in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.shared.config.ranks
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charges `seconds` of local work to `category` (how compute phases
    /// — forward/backward, weight updates — enter simulated time).
    pub fn charge(&mut self, category: TimeCategory, seconds: f64) {
        self.clock.charge(category, seconds);
    }

    /// The cluster link's α-β price for a `bytes`-sized message.
    pub fn link_time(&self, bytes: usize) -> f64 {
        self.shared.config.link.time(bytes)
    }

    /// Final accounting for this rank.
    pub fn report(&self) -> RankReport {
        RankReport {
            rank: self.rank,
            time: self.clock.now(),
            // xtask: allow(payload-copy) — TimeBreakdown, not a payload.
            breakdown: self.clock.breakdown().clone(),
        }
    }

    // ------------------------------------------------------------------
    // Buffer pool
    // ------------------------------------------------------------------

    /// Takes a cleared buffer with capacity ≥ `len`: the best fit on this
    /// rank's private free list, else on the cluster-wide pool, else a
    /// fresh allocation of `len`.
    pub fn take_buffer(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_stale(len);
        buf.clear();
        buf
    }

    /// Takes a buffer of exactly `len` elements with unspecified contents
    /// (its previous user's, zeros where extended): for outputs written
    /// before they are read, it spares `take_buffer` + `resize`'s fill.
    pub fn take_buffer_sized(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_stale(len);
        buf.resize(len, 0.0);
        buf
    }

    fn take_stale(&mut self, len: usize) -> Vec<f32> {
        self.note(TraceOp::TakeBuf);
        match self.local_free.take(len) {
            Some(buf) => buf,
            None => self.shared.pool.take_stale(len),
        }
    }

    /// Returns a buffer for reuse: to the private free list, which then
    /// spills its largest buffers to the cluster-wide pool until it is
    /// within `LOCAL_FREE_MAX` buffers and `LOCAL_FREE_MAX_BYTES`.
    pub fn recycle_buffer(&mut self, buf: Vec<f32>) {
        // Recorded even for capacity-0 buffers: the recycle call is what
        // discharges the ledger obligation, whether or not the pool keeps
        // the storage.
        self.note(TraceOp::Recycle);
        self.stash(buf);
    }

    /// [`recycle_buffer`](Self::recycle_buffer) without the ledger entry.
    fn stash(&mut self, buf: Vec<f32>) {
        let free = &mut self.local_free;
        free.put(buf);
        while free.len > LOCAL_FREE_MAX || free.bytes > LOCAL_FREE_MAX_BYTES {
            let Some(largest) = free.take_largest() else {
                break;
            };
            self.shared.pool.put(largest);
        }
    }

    /// Snapshot of the cluster-wide pool counters (allocations and bytes
    /// copied across *all* ranks — the numbers the allocation gates read).
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.pool.stats()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Posts an already-built payload to `to`; the arrival carries this
    /// rank's current simulated time, so charge costs *before* posting.
    fn post(&mut self, to: usize, tag: u32, data: PayloadBuf) {
        self.note(TraceOp::Send { to, tag });
        let arrival = self.clock.now();
        self.nic_free = self.nic_free.max(arrival);
        self.deliver(to, tag, data, arrival);
    }

    /// Hands a message to `to`'s channel with an explicit simulated
    /// arrival time, stamping the per-destination sequence number.
    fn deliver(&mut self, to: usize, tag: u32, data: PayloadBuf, arrival: f64) {
        #[cfg(feature = "strict-invariants")]
        let seq = {
            let next = self.send_seq.entry(to).or_insert(0);
            *next += 1;
            *next
        };
        let msg = Message {
            from: self.rank,
            tag,
            data,
            arrival,
            #[cfg(feature = "strict-invariants")]
            seq,
        };
        if self.shared.senders[to].send(msg).is_err() {
            panic!(
                "rank {} sent tag {tag:#x} to rank {to}, which has already exited",
                self.rank
            );
        }
        // On the event backend the destination may be a parked fiber —
        // the channel alone cannot wake it.
        self.shared.exec.notify_delivery(to, self.rank, tag);
    }

    /// Blocks (in simulated time) until the NIC has injected every
    /// outstanding nonblocking send — a no-op unless `isend`s are
    /// pending. Blocking sends call this first so their arrival can
    /// never precede an earlier-posted nonblocking message.
    fn drain_nic(&mut self, category: TimeCategory) {
        self.clock.advance_to(self.nic_free, category);
    }

    /// Copies `data` into a pooled buffer for sending. The copy is
    /// counted in the pool's `bytes_copied`.
    fn pooled_copy(&mut self, data: &[f32]) -> Vec<f32> {
        let mut buf = self.take_buffer(data.len());
        buf.extend_from_slice(data);
        self.shared.pool.note_copy(data.len() * 4);
        buf
    }

    /// Blocking send of `data` to `to` with a user `tag`, charged to
    /// `category` at the α-β cost of one message. Copies `data` once into
    /// a pooled buffer; to send without any copy, build the buffer with
    /// [`take_buffer`](Self::take_buffer) and use
    /// [`send_from`](Self::send_from).
    ///
    /// # Panics
    /// Panics if `to` is out of range or is this rank.
    pub fn send(&mut self, to: usize, tag: u32, data: &[f32], category: TimeCategory) {
        let cost = self.link_time(data.len() * 4);
        self.send_costed(to, tag, data, cost, category);
    }

    /// Zero-copy send: `buf` (typically from
    /// [`take_buffer`](Self::take_buffer)) migrates with the message and
    /// is recycled by the *receiver*. Charged like [`send`](Self::send).
    pub fn send_from(&mut self, to: usize, tag: u32, buf: Vec<f32>, category: TimeCategory) {
        let cost = self.link_time(buf.len() * 4);
        self.send_from_costed(to, tag, buf, cost, category);
    }

    /// Builds a reusable shared payload from `data` (one pooled copy
    /// plus a constant-size reference count), for fanning the same data
    /// out to several destinations via
    /// [`send_payload_costed`](Self::send_payload_costed). Hand it back
    /// with [`release_payload`](Self::release_payload) when done.
    pub fn make_payload(&mut self, data: &[f32]) -> Payload {
        let buf = self.pooled_copy(data);
        self.share(buf)
    }

    /// Turns a held pooled buffer into a shared payload.
    fn share(&mut self, buf: Vec<f32>) -> Payload {
        self.note(TraceOp::Share);
        Payload(Arc::new(buf))
    }

    /// Like [`send_costed`](Self::send_costed) but posts a shared
    /// [`Payload`] without copying it: N destinations cost one copy
    /// total. The backing buffer returns to the pool with whichever
    /// holder releases the last reference.
    pub fn send_payload_costed(
        &mut self,
        to: usize,
        tag: u32,
        payload: &Payload,
        seconds: f64,
        category: TimeCategory,
    ) {
        assert!(to < self.size(), "send to rank {to} out of range");
        assert_ne!(to, self.rank, "send to self");
        self.drain_nic(category);
        self.clock.charge(category, seconds);
        self.note(TraceOp::Fork);
        self.post(to, tag, PayloadBuf::Shared(Arc::clone(&payload.0)));
    }

    /// Blocking receive of the next `(from, tag)` message *as a shared
    /// payload*: a fan-out reference arrives as it was sent (no copy), to
    /// be read in place and forwarded with
    /// [`send_payload_costed`](Self::send_payload_costed); an owned
    /// message is wrapped.
    pub fn recv_payload(&mut self, from: usize, tag: u32, category: TimeCategory) -> Payload {
        match self.recv_message(from, tag, category).data {
            PayloadBuf::Shared(a) => Payload(a),
            PayloadBuf::Owned(v) => self.share(v),
        }
    }

    /// Gives up this rank's reference to `payload`; the last release
    /// cluster-wide returns the backing buffer to the pool.
    pub fn release_payload(&mut self, payload: Payload) {
        self.note(TraceOp::Release);
        // `into_inner`, not `try_unwrap`: of two ranks releasing the last
        // two references at once, exactly one must get the buffer.
        if let Some(buf) = Arc::into_inner(payload.0) {
            self.stash(buf);
        }
    }

    /// [`release_payload`](Self::release_payload) that leaves the
    /// contents in `out`: moved when this was the last reference, copied
    /// while other holders remain.
    pub fn release_payload_into(&mut self, payload: Payload, out: &mut Vec<f32>) {
        self.payload_into(PayloadBuf::Shared(payload.0), out);
    }

    /// Moves everything the channel holds into `pending`.
    fn drain(&mut self) {
        while let Ok(msg) = self.rx.try_recv() {
            self.check_ingest(&msg);
            self.pending.push_back(msg);
        }
    }

    /// Blocks until more traffic may be available, naming `self.waiting`
    /// to the backend; a message it hands back (threads) is buffered.
    fn block(&mut self) {
        let now = self.clock.now();
        let exec = &self.shared.exec;
        if let Some(msg) = exec.wait_message(self.rank, &self.rx, now, &mut self.waiting) {
            self.check_ingest(&msg);
            self.pending.push_back(msg);
        }
    }

    /// Pulls the next message `awaited` matches — from `pending` first
    /// (FCFS), then the channel, buffering non-matches.
    ///
    /// The channel is drained into `pending` before every scan so the
    /// scan always sees the full arrival order, and — crucially for the
    /// event backend — so a message delivered while this rank last ran
    /// cannot be missed before parking (its sender has already spent its
    /// wake-up signal). Only when nothing buffered matches does the
    /// backend block this rank.
    fn next_matching(&mut self, awaited: Awaited) -> Message {
        loop {
            self.drain();
            if let Some(pos) = self.pending.iter().position(|m| awaited.matches(m)) {
                return self.pending.remove(pos).expect("indexed message present");
            }
            self.waiting.reset([(awaited.from, awaited.tag)]);
            self.block();
        }
    }

    /// Announces a gather: this rank is about to receive a message for
    /// every `(from, tag)` in `wanted` and can do nothing before the last.
    /// The event backend parks it **once**, until the delivery that
    /// completes the set, not once per message; on threads this is one of
    /// the blocking receives the gather would do anyway. The receives
    /// that follow still drain, scan and block for themselves, so this
    /// only ever saves hand-offs: no [`TraceOp`], no clock movement.
    pub fn await_all(&mut self, wanted: impl IntoIterator<Item = (usize, u32)>) {
        let wanted = wanted.into_iter().map(|(from, tag)| (Some(from), tag));
        self.waiting.reset(wanted);
        self.drain();
        let mut complete = self.waiting.is_complete();
        for m in &self.pending {
            complete |= self.waiting.deliver(m.from, m.tag);
        }
        if !complete {
            self.block();
        }
    }

    /// Moves a received payload into `out` by swapping storage —
    /// `out`'s previous buffer is what gets recycled — copying only when
    /// a shared payload still has other holders.
    fn payload_into(&mut self, data: PayloadBuf, out: &mut Vec<f32>) {
        let shared = match data {
            PayloadBuf::Owned(v) => {
                let previous = std::mem::replace(out, v);
                self.recycle_buffer(previous);
                return;
            }
            PayloadBuf::Shared(a) => a,
        };
        match Arc::try_unwrap(shared) {
            Ok(v) => {
                self.note(TraceOp::Release);
                let previous = std::mem::replace(out, v);
                self.stash(previous);
            }
            Err(held_elsewhere) => {
                self.copy_out(&held_elsewhere, out);
                self.release_payload(Payload(held_elsewhere));
            }
        }
    }

    /// Copies `data` into `out`, counting the bytes and any growth.
    fn copy_out(&mut self, data: &[f32], out: &mut Vec<f32>) {
        out.clear();
        if out.capacity() < data.len() {
            self.shared.pool.note_external_alloc();
        }
        out.extend_from_slice(data);
        self.shared.pool.note_copy(data.len() * 4);
    }

    /// Blocks for the next `(from, tag)` message, records the `Recv` and
    /// advances the clock to its arrival (waiting charged to `category`).
    fn recv_message(&mut self, from: usize, tag: u32, category: TimeCategory) -> Message {
        let msg = self.pull(from, tag);
        self.clock.advance_to(msg.arrival, category);
        msg
    }

    /// Blocks for the next `(from, tag)` message and records the `Recv`,
    /// leaving the clock where it is.
    fn pull(&mut self, from: usize, tag: u32) -> Message {
        let msg = self.next_matching(Awaited {
            from: Some(from),
            tag,
        });
        self.check_fifo(&msg);
        self.note(TraceOp::Recv { from, tag });
        msg
    }

    /// Blocking receive of the next message from `from` with `tag` into
    /// `out`: the message's buffer is moved in and `out`'s previous
    /// storage is recycled — the zero-copy, zero-allocation receive.
    /// Simulated time advances to the message's arrival (waiting charged
    /// to `category`).
    pub fn recv_into(&mut self, from: usize, tag: u32, category: TimeCategory, out: &mut Vec<f32>) {
        let msg = self.recv_message(from, tag, category);
        // `payload_into` recycles `out`'s old storage (the Recycle).
        self.payload_into(msg.data, out);
    }

    /// Blocking receive into `out` of the next message with `tag` from
    /// *any* rank — the FCFS order of a parameter server (§3.1). Returns
    /// the sender.
    pub fn recv_any_into(&mut self, tag: u32, category: TimeCategory, out: &mut Vec<f32>) -> usize {
        let from = self.picked_sender(tag);
        let msg = self.next_matching(Awaited { from, tag });
        self.check_fifo(&msg);
        let from = msg.from;
        self.note(TraceOp::RecvAny { from, tag });
        self.clock.advance_to(msg.arrival, category);
        self.payload_into(msg.data, out);
        from
    }

    /// The sender a `recv_any` for `tag` takes. Under
    /// [`VirtualCluster::explore`](crate::VirtualCluster::explore) the
    /// rank parks even when a match is queued, and the host picks one of
    /// the senders with a match; on every other run `None`: the oldest
    /// match, FCFS.
    fn picked_sender(&mut self, tag: u32) -> Option<usize> {
        let sched = self.shared.exec.branching()?;
        self.drain();
        let mut queued = Vec::new();
        for m in self.pending.iter().filter(|m| m.tag == tag) {
            if !queued.contains(&m.from) {
                queued.push(m.from);
            }
        }
        self.waiting.reset([(None, tag)]);
        let now = self.clock.now();
        sched.park(self.rank, now, &mut self.waiting, Some((tag, queued)))
    }

    // ------------------------------------------------------------------
    // Nonblocking point-to-point (request handles; DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Nonblocking [`send_from`](Self::send_from): posts the message
    /// immediately (the buffer migrates with it and is recycled by the
    /// receiver) and returns a [`Request`]. The NIC injects outstanding
    /// sends serially — this message's injection completes at
    /// `max(now, nic_free) + α-β cost`, which is also its arrival time
    /// at the receiver. [`wait`](Self::wait) advances this rank's clock
    /// to that completion, charging only the residual not already hidden
    /// behind local compute (charged to `category`).
    pub fn isend_from(
        &mut self,
        to: usize,
        tag: u32,
        buf: Vec<f32>,
        category: TimeCategory,
    ) -> Request {
        assert!(to < self.size(), "isend to rank {to} out of range");
        assert_ne!(to, self.rank, "isend to self");
        let cost = self.shared.config.link.time(buf.len() * 4);
        let completion = self.nic_free.max(self.clock.now()) + cost;
        self.nic_free = completion;
        self.note(TraceOp::Isend { to, tag });
        self.deliver(to, tag, PayloadBuf::Owned(buf), completion);
        Request::new(ReqState::Send { completion }, category)
    }

    /// Nonblocking [`send`](Self::send): copies `data` once into a
    /// pooled buffer, then posts like [`isend_from`](Self::isend_from).
    pub fn isend(&mut self, to: usize, tag: u32, data: &[f32], category: TimeCategory) -> Request {
        let buf = self.pooled_copy(data);
        self.isend_from(to, tag, buf, category)
    }

    /// Nonblocking [`recv_into`](Self::recv_into): registers interest in
    /// the next `(from, tag)` message, taking ownership of `out` until
    /// completion. [`wait`](Self::wait) matches FCFS against the pending
    /// queue (exactly like the blocking form) and returns the message's
    /// buffer, recycling `out` in its place.
    pub fn irecv_into(
        &mut self,
        from: usize,
        tag: u32,
        category: TimeCategory,
        out: Vec<f32>,
    ) -> Request {
        assert!(from < self.size(), "irecv from rank {from} out of range");
        assert_ne!(from, self.rank, "irecv from self");
        self.note(TraceOp::Irecv { from, tag });
        Request::new(ReqState::Recv { from, tag, out }, category)
    }

    /// Completes a nonblocking operation. For a send request: advances
    /// the clock to the NIC injection's completion (free if local work
    /// already ran past it) and returns `None`. For a receive request:
    /// blocks for the matching message, advances the clock to its
    /// arrival, and returns its payload.
    ///
    /// # Panics
    /// Panics if the request was already completed (double wait).
    pub fn wait(&mut self, req: &mut Request) -> Option<Vec<f32>> {
        let state = req.state.take().unwrap_or_else(|| {
            panic!(
                "rank {}: wait on an already-completed request (double wait)",
                self.rank
            )
        });
        match state {
            ReqState::Send { completion } => {
                self.clock.advance_to(completion, req.category);
                None
            }
            ReqState::Recv { from, tag, mut out } => {
                let msg = self.next_matching(Awaited {
                    from: Some(from),
                    tag,
                });
                self.check_fifo(&msg);
                self.note(TraceOp::Wait { from, tag });
                self.clock.advance_to(msg.arrival, req.category);
                // Identical custody to the blocking `recv_into`.
                self.payload_into(msg.data, &mut out);
                Some(out)
            }
        }
    }

    /// Completes every request in `reqs` (drained, in insertion order).
    /// Entry `i` of the result is the filled buffer of the `i`-th
    /// request if it was a receive, `None` for sends. An empty
    /// collection is a no-op returning an empty vec.
    pub fn wait_all(&mut self, reqs: &mut RequestCollection) -> Vec<Option<Vec<f32>>> {
        self.await_all(reqs.reqs.iter().filter_map(|r| match r.state {
            Some(ReqState::Recv { from, tag, .. }) => Some((from, tag)),
            _ => None,
        }));
        let mut done = Vec::with_capacity(reqs.reqs.len());
        for mut req in reqs.reqs.drain(..) {
            done.push(self.wait(&mut req));
        }
        done
    }

    // ------------------------------------------------------------------
    // Cost-override variants
    //
    // Device-level schedules (PCIe unpinned vs pinned paths, §6.1) need
    // finer pricing than one cluster-wide link. These variants move the same data but charge an explicit
    // caller-computed cost.
    // ------------------------------------------------------------------

    /// Like [`send`](Self::send) but charges `seconds` instead of the
    /// cluster link's α-β price. Use when the sender-side cost of this
    /// edge differs from the cluster default (e.g. a host-driven PCIe
    /// push).
    pub fn send_costed(
        &mut self,
        to: usize,
        tag: u32,
        data: &[f32],
        seconds: f64,
        category: TimeCategory,
    ) {
        let buf = self.pooled_copy(data);
        self.send_from_costed(to, tag, buf, seconds, category);
    }

    /// [`send_from`](Self::send_from) with an explicit cost.
    pub fn send_from_costed(
        &mut self,
        to: usize,
        tag: u32,
        buf: Vec<f32>,
        seconds: f64,
        category: TimeCategory,
    ) {
        assert!(to < self.size(), "send to rank {to} out of range");
        assert_ne!(to, self.rank, "send to self");
        self.drain_nic(category);
        self.clock.charge(category, seconds);
        self.post(to, tag, PayloadBuf::Owned(buf));
    }

    /// Receiver-driven transfer into `out`: waits for the message (the
    /// wait — e.g. the sender still computing — is attributed to
    /// `wait_category`), then charges `seconds` of transfer to
    /// `transfer_category`. Models a host-initiated DMA pull, where the
    /// receiver's timeline carries the transfer cost (how Table 3
    /// accounts CPU↔GPU traffic).
    pub fn recv_costed_into(
        &mut self,
        from: usize,
        tag: u32,
        seconds: f64,
        wait_category: TimeCategory,
        transfer_category: TimeCategory,
        out: &mut Vec<f32>,
    ) {
        self.recv_into(from, tag, wait_category, out);
        self.clock.charge(transfer_category, seconds);
    }

    /// The host's exit check, run when this rank's closure returns: hangs
    /// up its channel (a later send to this rank panics, naming both
    /// ranks) and panics if anything sent to it was never received,
    /// naming this rank and each message's sender and tag: a message
    /// left behind is a tag or peer mismatch, lost without a trace.
    pub(crate) fn check_exit(&mut self) {
        self.pending.extend(self.rx.hang_up());
        if self.pending.is_empty() {
            return;
        }
        let unreceived: Vec<String> = self
            .pending
            .iter()
            .map(|m| format!("tag {:#x} from rank {}", m.tag, m.from))
            .collect();
        panic!(
            "rank {} exited with {} unreceived message(s): {}",
            self.rank,
            unreceived.len(),
            unreceived.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, VirtualCluster};
    use crate::collectives::{barrier, tree_allreduce_sum};

    const TAG: u32 = 7;

    fn recv(comm: &mut Comm, from: usize, tag: u32, category: TimeCategory) -> Vec<f32> {
        let mut out = Vec::new();
        comm.recv_into(from, tag, category, &mut out);
        out
    }

    impl Comm {
        /// How often this rank has parked in the event scheduler.
        pub(crate) fn parks(&self) -> u64 {
            match &self.shared.exec {
                crate::backend::Executor::Events(sched) => sched.parks(self.rank),
                crate::backend::Executor::Threads => 0,
            }
        }
    }

    fn recv_any(comm: &mut Comm, tag: u32, category: TimeCategory) -> (usize, Vec<f32>) {
        let mut out = Vec::new();
        let from = comm.recv_any_into(tag, category, &mut out);
        (from, out)
    }

    #[test]
    fn p2p_roundtrip_carries_data() {
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, TAG, &[1.0, 2.0, 3.0], TimeCategory::CpuGpuParam);
                recv(comm, 1, TAG, TimeCategory::CpuGpuParam)
            } else {
                let got = recv(comm, 0, TAG, TimeCategory::CpuGpuParam);
                let doubled: Vec<f32> = got.iter().map(|x| x * 2.0).collect();
                comm.send(0, TAG, &doubled, TimeCategory::CpuGpuParam);
                got
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn recv_advances_clock_to_arrival() {
        let cfg = ClusterConfig::new(2);
        let times = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.charge(TimeCategory::ForwardBackward, 1.0);
                comm.send(1, TAG, &[0.0; 1024], TimeCategory::CpuGpuParam);
                comm.now()
            } else {
                let _ = recv(comm, 0, TAG, TimeCategory::CpuGpuParam);
                comm.now()
            }
        });
        // Receiver ends exactly at sender's post-send time.
        assert!((times[1] - times[0]).abs() < 1e-12);
        assert!(times[0] > 1.0);
    }

    #[test]
    fn recv_filters_by_source_and_tag() {
        let cfg = ClusterConfig::new(3);
        let out = VirtualCluster::run(&cfg, |comm| match comm.rank() {
            0 => {
                // Expect specifically rank 2's message even if rank 1's
                // arrives first.
                let from2 = recv(comm, 2, TAG, TimeCategory::Other);
                let from1 = recv(comm, 1, TAG, TimeCategory::Other);
                vec![from2[0], from1[0]]
            }
            r => {
                comm.send(0, TAG, &[r as f32], TimeCategory::Other);
                vec![]
            }
        });
        assert_eq!(out[0], vec![2.0, 1.0]);
    }

    #[test]
    fn recv_selects_by_tag_preserving_per_tag_fifo() {
        // One sender interleaves tags X, Y, X; the receiver pulls Y first
        // (buffering the first X in `pending`), then both X's — which
        // must come back in send order.
        const X: u32 = 10;
        const Y: u32 = 11;
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, X, &[1.0], TimeCategory::Other);
                comm.send(1, Y, &[2.0], TimeCategory::Other);
                comm.send(1, X, &[3.0], TimeCategory::Other);
                vec![]
            } else {
                let y = recv(comm, 0, Y, TimeCategory::Other);
                let x1 = recv(comm, 0, X, TimeCategory::Other);
                let x2 = recv(comm, 0, X, TimeCategory::Other);
                vec![y[0], x1[0], x2[0]]
            }
        });
        assert_eq!(out[1], vec![2.0, 1.0, 3.0]);
    }

    #[test]
    fn recv_any_drains_buffered_messages_in_arrival_order() {
        // Three TAG messages get buffered while the receiver waits for an
        // OTHER-tagged message; recv_any must then serve them FCFS.
        const OTHER: u32 = 42;
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                for v in [1.0, 2.0, 3.0] {
                    comm.send(1, TAG, &[v], TimeCategory::Other);
                }
                comm.send(1, OTHER, &[9.0], TimeCategory::Other);
                vec![]
            } else {
                let marker = recv(comm, 0, OTHER, TimeCategory::Other);
                assert_eq!(marker, vec![9.0]);
                let mut seen = Vec::new();
                for _ in 0..3 {
                    let (from, data) = recv_any(comm, TAG, TimeCategory::Other);
                    assert_eq!(from, 0);
                    seen.push(data[0]);
                }
                seen
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn recv_any_serves_fcfs() {
        let cfg = ClusterConfig::new(4);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut seen = Vec::new();
                for _ in 0..3 {
                    let (from, data) = recv_any(comm, TAG, TimeCategory::Other);
                    assert_eq!(data[0] as usize, from);
                    seen.push(from);
                }
                seen.sort_unstable();
                seen
            } else {
                comm.send(0, TAG, &[comm.rank() as f32], TimeCategory::Other);
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn send_charges_alpha_beta_cost() {
        let cfg = ClusterConfig::new(2);
        let link = cfg.link.clone();
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, TAG, &[0.0; 1000], TimeCategory::CpuGpuParam);
                comm.now()
            } else {
                let _ = recv(comm, 0, TAG, TimeCategory::CpuGpuParam);
                0.0
            }
        });
        assert!((out[0] - link.time(4000)).abs() < 1e-15);
    }

    #[test]
    fn send_from_and_recv_into_roundtrip() {
        let cfg = ClusterConfig::new(2);
        let link = cfg.link.clone();
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut buf = comm.take_buffer(3);
                buf.extend_from_slice(&[4.0, 5.0, 6.0]);
                comm.send_from(1, TAG, buf, TimeCategory::CpuGpuParam);
                (comm.now(), vec![])
            } else {
                let mut scratch = comm.take_buffer(3);
                comm.recv_into(0, TAG, TimeCategory::CpuGpuParam, &mut scratch);
                (comm.now(), scratch)
            }
        });
        // send_from charges the same α-β price as send.
        assert!((out[0].0 - link.time(12)).abs() < 1e-15);
        assert_eq!(out[1].1, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn shared_payload_fans_out_with_one_copy() {
        let cfg = ClusterConfig::new(3);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let before = comm.pool_stats().bytes_copied;
                let payload = comm.make_payload(&[1.0, 2.0]);
                let copied = comm.pool_stats().bytes_copied - before;
                comm.send_payload_costed(1, TAG, &payload, 0.0, TimeCategory::Other);
                comm.send_payload_costed(2, TAG, &payload, 0.0, TimeCategory::Other);
                vec![copied as f32]
            } else {
                recv(comm, 0, TAG, TimeCategory::Other)
            }
        });
        // Building the payload copied it exactly once (8 bytes).
        assert_eq!(out[0], vec![8.0]);
        assert_eq!(out[1], vec![1.0, 2.0]);
        assert_eq!(out[2], vec![1.0, 2.0]);
    }

    #[test]
    fn recv_into_moves_the_message_buffer_without_copying() {
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            let before = comm.pool_stats();
            if comm.rank() == 0 {
                let mut buf = comm.take_buffer(1000);
                buf.resize(1000, 2.5);
                let sent_at = buf.as_ptr() as usize;
                comm.send_from(1, TAG, buf, TimeCategory::Other);
                barrier(comm);
                (sent_at, comm.pool_stats().since(&before).bytes_copied)
            } else {
                let mut dest = vec![9.0f32; 7];
                comm.recv_into(0, TAG, TimeCategory::Other, &mut dest);
                assert_eq!(dest, vec![2.5; 1000]);
                let landed_at = dest.as_ptr() as usize;
                barrier(comm);
                (landed_at, 0)
            }
        });
        assert_eq!(
            out[0].0, out[1].0,
            "the receiver holds the sender's storage"
        );
        assert_eq!(out[0].1, 0, "a moved payload copies no payload bytes");
    }

    #[test]
    fn private_list_keeps_small_buffers_and_spills_large_ones() {
        // Rank 0 recycles one small and one parameter-sized buffer. The
        // small one stays private (rank 0 reuses it without touching the
        // shared pool's counters); the large one must be visible to
        // rank 1, whose same-size take is then a reuse, not a fresh
        // allocation.
        let big = LOCAL_FREE_MAX_BYTES / 4 + 1;
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let bufs = [comm.take_buffer(16), comm.take_buffer(big)];
                for b in bufs {
                    comm.recycle_buffer(b);
                }
            }
            barrier(comm);
            let before = comm.pool_stats();
            barrier(comm);
            let taken = if comm.rank() == 0 {
                comm.take_buffer(16)
            } else {
                comm.take_buffer(big)
            };
            barrier(comm);
            (taken.capacity(), comm.pool_stats().since(&before))
        });
        assert!(out[0].0 >= 16 && out[1].0 >= big);
        // Cluster-wide: no allocation, and exactly one shared-pool hit —
        // rank 1's (private hits are not pool traffic).
        for (_, delta) in &out {
            assert_eq!((delta.allocations(), delta.reused), (0, 1), "{out:?}");
        }
    }

    #[test]
    fn private_list_never_exceeds_its_count_and_byte_bounds() {
        let cfg = ClusterConfig::new(1);
        VirtualCluster::run(&cfg, |comm| {
            let small: Vec<_> = (0..10).map(|_| comm.take_buffer(100)).collect();
            for b in small {
                comm.recycle_buffer(b);
                assert!(comm.local_free.len <= LOCAL_FREE_MAX);
            }
            let quarter = LOCAL_FREE_MAX_BYTES / 16;
            let mid: Vec<_> = (0..6).map(|_| comm.take_buffer(quarter)).collect();
            for b in mid {
                comm.recycle_buffer(b);
                assert!(comm.local_free.bytes <= LOCAL_FREE_MAX_BYTES);
                assert!(comm.local_free.len <= LOCAL_FREE_MAX);
            }
        });
    }

    #[test]
    fn forwarded_payload_is_read_in_place_and_recycled_by_the_last_release() {
        // 0 → 1 → 2 along a chain: one pooled copy at rank 0, the same
        // storage read by all three, and after the last release the
        // buffer is back in the pool (the next same-size take reuses it).
        let n = LOCAL_FREE_MAX_BYTES; // floats: 4x the private byte bound
        let cfg = ClusterConfig::new(3);
        let out = VirtualCluster::run(&cfg, |comm| {
            let before = comm.pool_stats();
            let me = comm.rank();
            let payload = if me == 0 {
                comm.make_payload(&vec![1.5f32; n])
            } else {
                comm.recv_payload(me - 1, TAG, TimeCategory::Other)
            };
            if me < 2 {
                comm.send_payload_costed(me + 1, TAG, &payload, 0.0, TimeCategory::Other);
            }
            assert!(payload.as_slice().iter().all(|&x| x == 1.5));
            let at = payload.as_slice().as_ptr() as usize;
            comm.release_payload(payload);
            barrier(comm);
            let again = comm.take_buffer(if me == 0 { n } else { 0 });
            barrier(comm);
            let delta = comm.pool_stats().since(&before);
            (at, again.capacity(), delta)
        });
        assert!(
            out.iter().all(|o| o.0 == out[0].0),
            "one storage, three readers"
        );
        assert_eq!(out[0].2.bytes_copied, (n * 4) as u64, "one copy in total");
        assert_eq!(
            out[0].2.fresh, 1,
            "the released payload served the second take"
        );
        assert_eq!(out[0].2.reused, 1);
    }

    #[test]
    fn steady_state_pooled_exchange_does_not_allocate() {
        let cfg = ClusterConfig::new(2);
        let allocs = VirtualCluster::run(&cfg, |comm| {
            // All buffers share one arena size, mirroring a parameter
            // exchange.
            let n = 512;
            let mut scratch = comm.take_buffer(n);
            scratch.resize(n, 0.5);
            let mut sum = comm.take_buffer(n);
            let exchange = |comm: &mut Comm, scratch: &mut Vec<f32>, sum: &mut Vec<f32>| {
                if comm.rank() == 0 {
                    let mut buf = comm.take_buffer(n);
                    buf.resize(n, 1.0);
                    comm.send_from(1, TAG, buf, TimeCategory::Other);
                } else {
                    comm.recv_into(0, TAG, TimeCategory::Other, scratch);
                }
                sum.clear();
                sum.extend_from_slice(&scratch[..]);
                tree_allreduce_sum(comm, sum, TimeCategory::Other);
            };
            // Warm up buffer capacities, then measure. Rank 0 also parks
            // a few spares: the pool's steady state needs one buffer of
            // slack per pipeline stage (the result payload returns to
            // the pool on its *last* release, which can land after the
            // fastest rank has already started the next step).
            for _ in 0..4 {
                exchange(comm, &mut scratch, &mut sum);
            }
            if comm.rank() == 0 {
                let spares: Vec<_> = (0..4).map(|_| comm.take_buffer(n)).collect();
                for s in spares {
                    comm.recycle_buffer(s);
                }
            }
            barrier(comm);
            let before = comm.pool_stats();
            for _ in 0..8 {
                exchange(comm, &mut scratch, &mut sum);
            }
            barrier(comm);
            comm.pool_stats().since(&before)
        });
        assert_eq!(
            (allocs[0].allocations(), allocs[1].allocations()),
            (0, 0),
            "warm pooled exchange must not allocate: {allocs:?}"
        );
    }

    #[test]
    fn report_carries_breakdown() {
        let cfg = ClusterConfig::new(1);
        let out = VirtualCluster::run(&cfg, |comm| {
            comm.charge(TimeCategory::ForwardBackward, 2.0);
            comm.charge(TimeCategory::GpuUpdate, 1.0);
            comm.report()
        });
        let r = &out[0];
        assert_eq!(r.rank, 0);
        assert!((r.time - 3.0).abs() < 1e-12);
        assert!((r.breakdown.get(TimeCategory::ForwardBackward) - 2.0).abs() < 1e-12);
        assert_eq!(r.breakdown.comm_ratio(), 0.0);
    }

    #[test]
    fn requests_complete_out_of_order() {
        // Rank 0 posts two sends; rank 1 posts both receives up front and
        // waits the *second* one first — each wait must match its own
        // tag, independent of post order.
        const A: u32 = 21;
        const B: u32 = 22;
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut ra = comm.isend(1, A, &[1.0], TimeCategory::Other);
                let mut rb = comm.isend(1, B, &[2.0], TimeCategory::Other);
                comm.wait(&mut rb);
                comm.wait(&mut ra);
                vec![]
            } else {
                let mut ra = comm.irecv_into(0, A, TimeCategory::Other, Vec::new());
                let mut rb = comm.irecv_into(0, B, TimeCategory::Other, Vec::new());
                let b = comm.wait(&mut rb).expect("recv request returns its buffer");
                let a = comm.wait(&mut ra).expect("recv request returns its buffer");
                vec![b[0], a[0]]
            }
        });
        assert_eq!(out[1], vec![2.0, 1.0]);
    }

    #[test]
    fn wait_all_on_empty_collection_is_a_noop() {
        let cfg = ClusterConfig::new(1);
        let out = VirtualCluster::run(&cfg, |comm| {
            let mut reqs = crate::request::RequestCollection::new();
            assert!(reqs.is_empty());
            let done = comm.wait_all(&mut reqs);
            (done.len(), comm.now())
        });
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1, 0.0, "empty wait_all must not advance the clock");
    }

    #[test]
    fn wait_all_returns_buffers_in_insertion_order() {
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            let mut reqs = crate::request::RequestCollection::new();
            if comm.rank() == 0 {
                reqs.push(comm.isend(1, TAG, &[7.0], TimeCategory::Other));
                let done = comm.wait_all(&mut reqs);
                assert_eq!(done, vec![None], "send requests complete to None");
                vec![]
            } else {
                reqs.push(comm.irecv_into(0, TAG, TimeCategory::Other, Vec::new()));
                let done = comm.wait_all(&mut reqs);
                assert!(reqs.is_empty(), "wait_all drains the collection");
                done[0].clone().expect("recv buffer")
            }
        });
        assert_eq!(out[1], vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn double_wait_is_rejected() {
        let cfg = ClusterConfig::new(2);
        let _ = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut r = comm.isend(1, TAG, &[1.0], TimeCategory::Other);
                comm.wait(&mut r);
                comm.wait(&mut r); // panics: already completed
            } else {
                let _ = recv(comm, 0, TAG, TimeCategory::Other);
            }
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rank panicked")]
    fn drop_without_wait_is_flagged() {
        // An outstanding send request dropped without wait is a lost
        // completion; the Request Drop impl flags it in debug builds.
        let cfg = ClusterConfig::new(2);
        let _ = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let r = comm.isend(1, TAG, &[1.0], TimeCategory::Other);
                drop(r);
            } else {
                let _ = recv(comm, 0, TAG, TimeCategory::Other);
            }
        });
    }

    #[test]
    fn irecv_wait_serves_the_pending_queue_fcfs() {
        // Two same-tag messages get buffered in `pending` while rank 1
        // waits for a marker; the irecv wait must then match the OLDEST
        // buffered message, exactly like the blocking recv.
        const MARKER: u32 = 33;
        let cfg = ClusterConfig::new(2);
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                comm.send(1, TAG, &[1.0], TimeCategory::Other);
                comm.send(1, TAG, &[2.0], TimeCategory::Other);
                comm.send(1, MARKER, &[0.0], TimeCategory::Other);
                vec![]
            } else {
                let _ = recv(comm, 0, MARKER, TimeCategory::Other);
                let mut r = comm.irecv_into(0, TAG, TimeCategory::Other, Vec::new());
                let first = comm.wait(&mut r).expect("recv buffer");
                let second = recv(comm, 0, TAG, TimeCategory::Other);
                vec![first[0], second[0]]
            }
        });
        assert_eq!(
            out[1],
            vec![1.0, 2.0],
            "irecv must respect pending-queue FCFS"
        );
    }

    #[test]
    fn isend_wait_after_compute_is_free() {
        // The §6.3 overlap mechanism: if local compute runs past the NIC
        // injection's completion, waiting costs nothing; the receiver
        // still sees the early arrival.
        let cfg = ClusterConfig::new(2);
        let link = cfg.link.clone();
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut r = comm.isend(1, TAG, &[0.0; 1024], TimeCategory::CpuGpuParam);
                comm.charge(TimeCategory::ForwardBackward, 1.0);
                let before = comm.now();
                comm.wait(&mut r);
                (before, comm.now())
            } else {
                let _ = recv(comm, 0, TAG, TimeCategory::Other);
                (comm.now(), comm.now())
            }
        });
        // Sender: the wait was free (clock already past completion).
        assert_eq!(out[0].0, out[0].1);
        assert!((out[0].1 - 1.0).abs() < 1e-12, "only compute was charged");
        // Receiver: arrival is the injection completion, not compute end.
        assert!((out[1].0 - link.time(4096)).abs() < 1e-12);
    }

    #[test]
    fn outstanding_isends_serialize_on_the_nic() {
        // Two back-to-back isends of equal size: the second's completion
        // (and arrival) queues behind the first.
        let cfg = ClusterConfig::new(2);
        let link = cfg.link.clone();
        let out = VirtualCluster::run(&cfg, |comm| {
            if comm.rank() == 0 {
                let mut r1 = comm.isend(1, TAG, &[0.0; 256], TimeCategory::Other);
                let mut r2 = comm.isend(1, TAG, &[0.0; 256], TimeCategory::Other);
                comm.wait(&mut r1);
                comm.wait(&mut r2);
                comm.now()
            } else {
                let mut a = comm.irecv_into(0, TAG, TimeCategory::Other, Vec::new());
                let _ = comm.wait(&mut a);
                let t1 = comm.now();
                let mut b = comm.irecv_into(0, TAG, TimeCategory::Other, Vec::new());
                let _ = comm.wait(&mut b);
                comm.now() - t1
            }
        });
        let cost = link.time(1024);
        assert!(
            (out[0] - 2.0 * cost).abs() < 1e-12,
            "sender drains both injections"
        );
        assert!(
            (out[1] - cost).abs() < 1e-12,
            "arrivals are one injection apart"
        );
    }

    #[test]
    fn steady_state_nonblocking_exchange_does_not_allocate() {
        // The pooled zero-allocation guarantee must survive the request
        // path: isend takes pooled buffers, the receiver's wait keeps the
        // arrived one and recycles the destination buffer it displaced.
        let cfg = ClusterConfig::new(2);
        let allocs = VirtualCluster::run(&cfg, |comm| {
            let n = 512;
            let mut dest = vec![0.0f32; n];
            let peer = 1 - comm.rank();
            let exchange = |comm: &mut Comm, dest: &mut Vec<f32>| {
                let mut buf = comm.take_buffer(n);
                buf.resize(n, comm.rank() as f32);
                let mut s = comm.isend_from(peer, TAG, buf, TimeCategory::Other);
                let mut r = comm.irecv_into(peer, TAG, TimeCategory::Other, std::mem::take(dest));
                *dest = comm.wait(&mut r).expect("recv buffer");
                comm.wait(&mut s);
            };
            for _ in 0..4 {
                exchange(comm, &mut dest);
            }
            barrier(comm);
            let before = comm.pool_stats();
            for _ in 0..8 {
                exchange(comm, &mut dest);
            }
            barrier(comm);
            comm.pool_stats().since(&before)
        });
        assert_eq!(
            (allocs[0].allocations(), allocs[1].allocations()),
            (0, 0),
            "warm nonblocking exchange must not allocate: {allocs:?}"
        );
    }

    #[test]
    fn nonblocking_ops_record_their_trace_vocabulary() {
        let cfg = ClusterConfig::new(2);
        let traces = VirtualCluster::run(&cfg, |comm| {
            comm.trace_start();
            if comm.rank() == 0 {
                let mut r = comm.isend(1, crate::tags::SYNC_DATA, &[1.0], TimeCategory::Other);
                comm.wait(&mut r);
            } else {
                let mut r =
                    comm.irecv_into(0, crate::tags::SYNC_DATA, TimeCategory::Other, Vec::new());
                let _ = comm.wait(&mut r);
            }
            comm.trace_take()
        });
        assert_eq!(
            traces[0],
            vec![
                TraceOp::TakeBuf,
                TraceOp::Isend {
                    to: 1,
                    tag: crate::tags::SYNC_DATA
                }
            ],
            "send-side: pooled copy + post; the send wait is clock-only"
        );
        assert_eq!(
            traces[1],
            vec![
                TraceOp::Irecv {
                    from: 0,
                    tag: crate::tags::SYNC_DATA
                },
                TraceOp::Wait {
                    from: 0,
                    tag: crate::tags::SYNC_DATA
                },
                TraceOp::Recycle
            ],
            "recv-side: post, completing wait, recycle of the displaced buffer"
        );
    }

    #[test]
    // The panic happens on the rank thread; the join surfaces it as
    // "rank panicked".
    #[should_panic(expected = "rank panicked")]
    fn send_to_self_rejected() {
        let cfg = ClusterConfig::new(1);
        let _ = VirtualCluster::run(&cfg, |comm| {
            comm.send(0, TAG, &[1.0], TimeCategory::Other);
        });
    }

    impl WaitSet {
        /// The entries' allocated capacity.
        pub(crate) fn capacity(&self) -> usize {
            self.entries.capacity()
        }
    }

    fn wait_set(wanted: &[(Option<usize>, u32)]) -> WaitSet {
        let mut set = WaitSet::default();
        set.reset(wanted.iter().copied());
        set
    }

    fn missing(set: &WaitSet) -> Vec<(Option<usize>, u32)> {
        set.missing().map(|a| (a.from, a.tag)).collect()
    }

    #[test]
    fn a_wait_set_names_each_message_once() {
        let mut set = wait_set(&[(Some(2), 7), (Some(1), 7), (Some(2), 7)]);
        assert_eq!(missing(&set), [(Some(1), 7), (Some(2), 7)]);
        assert!(!set.deliver(2, 7));
        assert!(set.deliver(1, 7), "the duplicate is not still missing");
    }

    #[test]
    fn a_repeat_or_an_unnamed_delivery_changes_nothing() {
        let mut set = wait_set(&[(Some(1), 7), (Some(2), 7)]);
        assert!(!set.deliver(1, 7));
        for (from, tag) in [(1, 7), (2, 8), (3, 7), (1, 7)] {
            assert!(!set.deliver(from, tag), "({from}, {tag}) completed the set");
            assert!(!set.is_complete());
            assert_eq!(missing(&set), [(Some(2), 7)]);
        }
        assert!(set.deliver(2, 7));
        assert!(set.is_complete());
        assert!(!set.deliver(2, 7), "a repeat after completion");
    }

    #[test]
    fn a_wildcard_entry_is_completed_by_any_sender() {
        for from in [0, 5, 4095] {
            let mut set = wait_set(&[(None, 9)]);
            assert!(!set.deliver(from, 8), "another tag");
            assert!(set.deliver(from, 9), "rank {from}");
        }
        // A named sender is checked off before the wildcard.
        let mut set = wait_set(&[(None, 9), (Some(3), 9)]);
        assert!(!set.deliver(3, 9));
        assert_eq!(missing(&set), [(None, 9)]);
        assert!(set.deliver(3, 9));
    }

    #[test]
    fn missing_yields_from_then_tag_order() {
        let set = wait_set(&[
            (Some(4), 1),
            (Some(2), 9),
            (None, 5),
            (Some(2), 3),
            (None, 2),
        ]);
        assert_eq!(
            missing(&set),
            [
                (None, 2),
                (None, 5),
                (Some(2), 3),
                (Some(2), 9),
                (Some(4), 1)
            ]
        );
    }

    #[test]
    fn a_wait_set_that_trades_places_at_every_park_does_not_regrow() {
        // Every rank's set and its scheduler slot swap at each park, so
        // it takes two rounds before each has held the largest set.
        let sizes = |comm: &Comm| {
            let crate::backend::Executor::Events(sched) = &comm.shared.exec else {
                unreachable!("an event cluster")
            };
            (comm.waiting.capacity(), sched.waiting_capacity(comm.rank))
        };
        let cfg = ClusterConfig::new(64).with_backend(crate::ClusterBackend::Events);
        let out = VirtualCluster::run(&cfg, |comm| {
            let mut data = vec![1.0f32; 4];
            let mut round = |comm: &mut Comm| {
                tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam);
            };
            round(comm);
            round(comm);
            let warm = sizes(comm);
            let parks = comm.parks();
            for _ in 0..3 {
                round(comm);
            }
            (warm, sizes(comm), comm.parks() > parks)
        });
        for (rank, (warm, after, parked)) in out.into_iter().enumerate() {
            assert_eq!(warm, after, "rank {rank}");
            assert!(parked || rank == 0, "rank {rank} never parked");
        }
    }
}
