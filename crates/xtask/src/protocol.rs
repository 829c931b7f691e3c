//! Protocol model checker for the comm layer (DESIGN.md §12).
//!
//! Verifies the tree collectives, the hub collectives behind
//! `Comm::barrier`/`allreduce_sum_into`/… and the Sync EASGD exchange
//! against deadlock, message-loss, buffer-pool-leak, and FIFO-delivery
//! invariants by exhaustively exploring rank interleavings of an
//! abstract comm model.
//!
//! ## The abstract model
//!
//! A rank's behaviour is a straight-line **program** of
//! [`TraceOp`]s. The global state is, per rank: a program counter, a
//! count of held pooled-buffer credits, a count of held shared-payload
//! references, and an in-order queue of delivered-but-unmatched
//! messages. The semantics mirror
//! `easgd_cluster::channel` exactly: a send deposits the message
//! directly into the receiver's queue (the production channel pushes
//! into the receiver's mutex-protected queue inside `send`, so arrival
//! order *is* the global interleaving order of sends — there is no
//! separate in-flight delivery transition to model); `recv(from, tag)`
//! matches the oldest queued message from that source with that tag;
//! `recv_any(tag)` matches the oldest with that tag from *any* source
//! (FCFS, like `Comm::next_matching`).
//!
//! The nonblocking request-handle ops (DESIGN.md §13) map onto the same
//! state: `isend` deposits at post time exactly like `send` (the
//! production `isend` hands the payload to the channel when posted —
//! only the *sender clock* settles later, which the untimed model does
//! not track); `irecv` is a rank-local op that records one outstanding
//! receive obligation; `wait(from, tag)` matches like `recv` and
//! discharges the oldest matching obligation. A rank that finishes with
//! an undischarged obligation dropped a request without waiting — the
//! model form of a lost completion.
//!
//! A shared payload (`make_payload` → `send_payload_costed` fan-out →
//! `recv_payload` → `release_payload`) is **one** pool obligation held by
//! reference: `share` turns a held credit into a payload with one
//! reference, `fork` adds the reference the next send carries, a receive
//! of such a message acquires a reference, `release` drops one. The
//! model counts live references cluster-wide (held, staged, in flight);
//! when the count returns to zero every outstanding payload is
//! discharged. A rank that finishes holding a reference has leaked the
//! payload's buffer.
//!
//! ## Trace-from-production guarantee
//!
//! Programs are not hand-transcribed: [`record_traces`] runs the real
//! collectives / trainer exchange on a [`VirtualCluster`] with
//! [`Comm`]'s trace recorder switched on, and checks the recorded
//! per-rank op sequences. The model can therefore never drift from the
//! implementation — if a refactor changes the message pattern, the
//! checker re-verifies the new pattern automatically.
//!
//! ## Reduction
//!
//! [`check`] with `reduce = true` runs a sleep-set partial-order
//! reduction (Godefroid) over a static independence relation: two
//! visible ops commute unless one can affect what the other matches
//! (sends to the same destination with the same tag when that
//! destination does a `recv_any` on it; a send and the receive that can
//! match it). Sleep sets prune *redundant interleavings* of commuting
//! ops while still visiting every reachable state, so all deadlocks and
//! all terminal states — where the loss/leak/ledger invariants are
//! evaluated — are preserved. Local ops (`TakeBuf`/`Recycle`,
//! `Share`/`Fork`/`Release`) commute with everything and are folded into
//! the preceding scheduling point; their violations (double-discharge,
//! releasing a payload not held) depend only on the rank's own prefix,
//! so folding cannot mask one.
//!
//! [`TraceOp`]: easgd_cluster::TraceOp
//! [`Comm`]: easgd_cluster::Comm
//! [`VirtualCluster`]: easgd_cluster::VirtualCluster

use easgd_cluster::collectives::{
    flat_gather_sum, ring_allreduce_sum, tree_allreduce_sum, tree_broadcast_among,
    tree_reduce_sum_among,
};
use easgd_cluster::{tags, BatchMsg, ClusterConfig, Comm, TimeCategory, TraceOp, VirtualCluster};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Exploration counters for one [`check`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Complete executions reaching a terminal or deadlocked state.
    pub executions: u64,
    /// Visible (scheduling-point) steps taken across all executions.
    pub steps: u64,
    /// Branch points where more than one rank was explored.
    pub branches: u64,
    /// Transitions pruned by the sleep-set reduction.
    pub slept: u64,
    /// Whether the execution cap stopped the search early.
    pub truncated: bool,
}

/// A failed invariant with the schedule that reaches it: the sequence
/// of ranks whose visible ops were executed, in order.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Ranks of the visible steps leading to the violation.
    pub schedule: Vec<usize>,
    /// What went wrong, with per-rank detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.message)?;
        write!(
            f,
            "  schedule (ranks of visible steps): {:?}",
            self.schedule
        )
    }
}

/// Result of exploring one scenario.
#[derive(Debug)]
pub enum Outcome {
    /// Every explored execution satisfied all invariants.
    Pass(Stats),
    /// Some execution violated an invariant.
    Fail(Box<Violation>, Stats),
}

impl Outcome {
    /// The exploration counters, pass or fail.
    pub fn stats(&self) -> &Stats {
        match self {
            Outcome::Pass(s) => s,
            Outcome::Fail(_, s) => s,
        }
    }
}

/// One message sitting in a receiver's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InFlight {
    from: usize,
    tag: u32,
    /// Per-(src, dst) send sequence number, for the FIFO invariant.
    seq: u64,
    /// Carries a shared-payload reference rather than an owned buffer.
    shared: bool,
}

/// The abstract global state.
#[derive(Debug, Clone)]
struct State {
    /// Next op index per rank.
    pc: Vec<usize>,
    /// Pooled-buffer credits currently held per rank.
    held: Vec<u64>,
    /// Shared-payload references currently held per rank.
    shared: Vec<u64>,
    /// References a `Fork` staged for the rank's next send.
    forked: Vec<u64>,
    /// Live payload references cluster-wide (held, staged, in flight)
    /// and the payload obligations they keep open.
    live_refs: u64,
    payloads: u64,
    /// Delivered-but-unmatched messages, per receiving rank, in arrival
    /// order.
    queues: Vec<VecDeque<InFlight>>,
    /// Next send sequence number per (sender, destination).
    next_seq: Vec<Vec<u64>>,
    /// Highest matched sequence per (receiver, sender, tag) — the FIFO
    /// invariant requires strictly increasing matches.
    matched: HashMap<(usize, usize, u32), u64>,
    /// Outstanding nonblocking-receive obligations per rank, keyed by
    /// `(from, tag)`: incremented by `Irecv`, discharged by `Wait`.
    /// Prefix-determined by the rank's own `pc` (like `matched`), so it
    /// stays out of the fingerprint.
    outstanding: Vec<HashMap<(usize, u32), u64>>,
    /// Total pool credits acquired (TakeBuf) and discharged (Recycle,
    /// or a payload's last Release) across all ranks.
    taken: u64,
    discharged: u64,
}

impl State {
    fn new(p: usize) -> Self {
        State {
            pc: vec![0; p],
            held: vec![0; p],
            shared: vec![0; p],
            forked: vec![0; p],
            live_refs: 0,
            payloads: 0,
            queues: vec![VecDeque::new(); p],
            next_seq: vec![vec![0; p]; p],
            matched: HashMap::new(),
            outstanding: vec![HashMap::new(); p],
            taken: 0,
            discharged: 0,
        }
    }

    /// A hashable fingerprint for BFS deduplication. `matched` is
    /// excluded: it is a monotone audit log that never changes
    /// enabledness, and FIFO violations are impossible in the model by
    /// construction (receives match the *oldest* candidate), so two
    /// states equal elsewhere behave identically.
    fn fingerprint(&self) -> (Vec<usize>, Vec<u64>, Vec<u64>, Vec<Vec<InFlight>>) {
        (
            self.pc.clone(),
            self.held.clone(),
            self.shared.clone(),
            self.queues
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
        )
    }
}

/// Index of the oldest message in `queue` matching the receive op.
fn match_index(queue: &VecDeque<InFlight>, from: Option<usize>, tag: u32) -> Option<usize> {
    queue
        .iter()
        .position(|m| m.tag == tag && from.is_none_or(|f| m.from == f))
}

/// Executes rank `r`'s next (visible) op. The caller guarantees it is
/// enabled. Returns the invariant-violation message on failure.
fn apply_visible(state: &mut State, r: usize, op: TraceOp) -> Result<(), String> {
    match op {
        TraceOp::Send { to, tag } | TraceOp::Isend { to, tag } => {
            // A staged fork rides this send; otherwise a held buffer does.
            let shared = state.forked[r] > 0;
            if shared {
                state.forked[r] -= 1;
            } else if state.held[r] == 0 {
                return Err(format!(
                    "rank {r} sent {op} without a held pool buffer (send_from of a non-pooled Vec?)"
                ));
            } else {
                state.held[r] -= 1;
            }
            let seq = state.next_seq[r][to];
            state.next_seq[r][to] += 1;
            state.queues[to].push_back(InFlight {
                from: r,
                tag,
                seq,
                shared,
            });
        }
        TraceOp::Wait { from, tag } => {
            let posted = state.outstanding[r].entry((from, tag)).or_insert(0);
            if *posted == 0 {
                return Err(format!(
                    "rank {r} ran {op} with no matching posted irecv (wait without a request)"
                ));
            }
            *posted -= 1;
            let i = match_index(&state.queues[r], Some(from), tag)
                .unwrap_or_else(|| panic!("wait scheduled while disabled (rank {r})"));
            let msg = state.queues[r].remove(i).unwrap_or_else(|| unreachable!());
            acquire(state, r, &msg)?;
        }
        TraceOp::Recv { from, tag } => {
            let i = match_index(&state.queues[r], Some(from), tag)
                .unwrap_or_else(|| panic!("recv scheduled while disabled (rank {r})"));
            let msg = state.queues[r].remove(i).unwrap_or_else(|| unreachable!());
            acquire(state, r, &msg)?;
        }
        TraceOp::RecvAny { tag } => {
            let i = match_index(&state.queues[r], None, tag)
                .unwrap_or_else(|| panic!("recv_any scheduled while disabled (rank {r})"));
            let msg = state.queues[r].remove(i).unwrap_or_else(|| unreachable!());
            acquire(state, r, &msg)?;
        }
        local => panic!("local op {local} reached the scheduler"),
    }
    state.pc[r] += 1;
    Ok(())
}

/// Rank `r` matched `msg`: FIFO-check it and take over what it carries —
/// a payload reference or the buffer itself.
fn acquire(state: &mut State, r: usize, msg: &InFlight) -> Result<(), String> {
    check_fifo(state, r, msg)?;
    if msg.shared {
        state.shared[r] += 1;
    } else {
        state.held[r] += 1;
    }
    Ok(())
}

/// Per-(src, dst, tag) FIFO delivery: matched sequence numbers must be
/// strictly increasing. Impossible to violate given oldest-first
/// matching — kept as a model self-check mirroring the
/// `strict-invariants` runtime assertion in `Comm`.
fn check_fifo(state: &mut State, receiver: usize, msg: &InFlight) -> Result<(), String> {
    let key = (receiver, msg.from, msg.tag);
    if let Some(&last) = state.matched.get(&key) {
        if msg.seq <= last {
            return Err(format!(
                "FIFO violation: rank {receiver} matched seq {} from rank {} (tag {:#x}) after seq {last}",
                msg.seq, msg.from, msg.tag
            ));
        }
    }
    state.matched.insert(key, msg.seq);
    Ok(())
}

/// Folds every rank's pending local ops (they commute with everything).
/// Local violations — discharging a buffer that was never taken — are
/// prefix-determined, so folding cannot mask or reorder them.
fn fold_locals(state: &mut State, programs: &[Vec<TraceOp>]) -> Result<(), String> {
    for (r, program) in programs.iter().enumerate() {
        while let Some(op) = program.get(state.pc[r]) {
            if !op.is_local() {
                break;
            }
            match op {
                TraceOp::TakeBuf => {
                    state.held[r] += 1;
                    state.taken += 1;
                }
                TraceOp::Irecv { from, tag } => {
                    *state.outstanding[r].entry((*from, *tag)).or_insert(0) += 1;
                }
                TraceOp::Recycle | TraceOp::Share => {
                    if state.held[r] == 0 {
                        return Err(format!(
                            "rank {r} ran {op} holding no buffer (double recycle, \
                             or recycling a buffer never taken from the pool)"
                        ));
                    }
                    state.held[r] -= 1;
                    if matches!(op, TraceOp::Share) {
                        state.shared[r] += 1;
                        state.live_refs += 1;
                        state.payloads += 1;
                    } else {
                        state.discharged += 1;
                    }
                }
                TraceOp::Fork | TraceOp::Release => {
                    if state.shared[r] == 0 {
                        return Err(format!(
                            "rank {r} ran {op} holding no payload reference (double release, \
                             or forwarding a payload never received)"
                        ));
                    }
                    if matches!(op, TraceOp::Fork) {
                        state.forked[r] += 1;
                        state.live_refs += 1;
                    } else {
                        state.shared[r] -= 1;
                        state.live_refs -= 1;
                        // The last release returns every open payload's
                        // buffer to the pool.
                        if state.live_refs == 0 {
                            state.discharged += state.payloads;
                            state.payloads = 0;
                        }
                    }
                }
                _ => unreachable!(),
            }
            state.pc[r] += 1;
        }
    }
    Ok(())
}

/// Rank `r`'s next visible op, if any (call after [`fold_locals`]).
fn next_visible(state: &State, programs: &[Vec<TraceOp>], r: usize) -> Option<TraceOp> {
    programs[r].get(state.pc[r]).copied()
}

/// Whether rank `r`'s next visible op can execute now.
fn is_enabled(state: &State, op: TraceOp, r: usize) -> bool {
    match op {
        TraceOp::Send { .. } | TraceOp::Isend { .. } => true,
        TraceOp::Recv { from, tag } | TraceOp::Wait { from, tag } => {
            match_index(&state.queues[r], Some(from), tag).is_some()
        }
        TraceOp::RecvAny { tag } => match_index(&state.queues[r], None, tag).is_some(),
        _ => unreachable!("local op after fold"),
    }
}

/// Static independence: `true` when executing `a` (on rank `ra`) and
/// `b` (on rank `rb`, co-enabled) in either order reaches the same
/// state. `recv_any_tags[r]` holds every tag rank `r` ever receives
/// with `recv_any` — the one case where the *relative order* of two
/// same-tag sends to one destination is observable.
fn independent(
    a: TraceOp,
    ra: usize,
    b: TraceOp,
    rb: usize,
    recv_any_tags: &[HashSet<u32>],
) -> bool {
    use TraceOp::{Recv, RecvAny, Send};
    // The nonblocking ops touch the same state as their blocking
    // counterparts: an isend deposits like a send, a wait matches like a
    // selective recv.
    let normalize = |op: TraceOp| match op {
        TraceOp::Isend { to, tag } => Send { to, tag },
        TraceOp::Wait { from, tag } => Recv { from, tag },
        other => other,
    };
    let (a, b) = (normalize(a), normalize(b));
    match (a, b) {
        (Send { to: ta, tag: ga }, Send { to: tb, tag: gb }) => {
            !(ta == tb && ga == gb && recv_any_tags[ta].contains(&ga))
        }
        (Send { to, tag: gs }, Recv { from, tag: gr }) => !(to == rb && from == ra && gs == gr),
        (Recv { from, tag: gr }, Send { to, tag: gs }) => !(to == ra && from == rb && gs == gr),
        (Send { to, tag: gs }, RecvAny { tag: gr }) => !(to == rb && gs == gr),
        (RecvAny { tag: gr }, Send { to, tag: gs }) => !(to == ra && gs == gr),
        // Receives touch only their own rank's queue.
        _ => true,
    }
}

/// Checks a terminal state (every rank finished): no undelivered
/// messages, no held buffers, balanced pool ledger.
fn check_terminal(state: &State) -> Result<(), String> {
    let mut problems = Vec::new();
    for (r, q) in state.queues.iter().enumerate() {
        for m in q {
            problems.push(format!(
                "message from rank {} to rank {r} (tag {:#x}) was never received",
                m.from, m.tag
            ));
        }
    }
    for (r, &h) in state.held.iter().enumerate() {
        if h > 0 {
            problems.push(format!(
                "rank {r} finished still holding {h} pooled buffer(s)"
            ));
        }
    }
    for (r, &k) in state.shared.iter().enumerate() {
        if k + state.forked[r] > 0 {
            problems.push(format!(
                "rank {r} finished still holding {} shared payload reference(s): the \
                 payload's buffer never returns to the pool",
                k + state.forked[r]
            ));
        }
    }
    for (r, posted) in state.outstanding.iter().enumerate() {
        let mut dangling: Vec<_> = posted.iter().filter(|(_, &k)| k > 0).collect();
        dangling.sort();
        for (&(from, tag), &k) in dangling {
            problems.push(format!(
                "rank {r} finished with {k} outstanding irecv(from={from}, tag={tag:#x}) \
                 never waited (lost completion)"
            ));
        }
    }
    // With empty queues and all-zero held counts the global ledger must
    // balance; an imbalance here means the model itself miscounted.
    if problems.is_empty() && state.taken != state.discharged {
        problems.push(format!(
            "pool ledger imbalance: {} taken vs {} recycled",
            state.taken, state.discharged
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Describes a deadlock: each blocked rank's wait, plus the wait-for
/// cycle over selective receives when one exists.
fn deadlock_message(state: &State, programs: &[Vec<TraceOp>], runnable: &[usize]) -> String {
    let mut waits = Vec::new();
    let mut wait_for: HashMap<usize, usize> = HashMap::new();
    for &r in runnable {
        match next_visible(state, programs, r) {
            Some(TraceOp::Recv { from, tag }) => {
                waits.push(format!(
                    "rank {r} blocked on recv(from={from}, tag={tag:#x})"
                ));
                wait_for.insert(r, from);
            }
            Some(TraceOp::Wait { from, tag }) => {
                waits.push(format!(
                    "rank {r} blocked on wait(irecv from={from}, tag={tag:#x}) — \
                     the matching send is never posted"
                ));
                wait_for.insert(r, from);
            }
            Some(TraceOp::RecvAny { tag }) => {
                waits.push(format!(
                    "rank {r} blocked on recv_any(tag={tag:#x}) — no matching message will ever arrive"
                ));
            }
            other => waits.push(format!("rank {r} blocked on {other:?}")),
        }
    }
    // Follow recv edges to surface a wait-for cycle when present.
    let mut cycle = None;
    'outer: for &start in wait_for.keys() {
        let mut path = vec![start];
        let mut cur = start;
        while let Some(&next) = wait_for.get(&cur) {
            if let Some(pos) = path.iter().position(|&x| x == next) {
                cycle = Some(path[pos..].to_vec());
                break 'outer;
            }
            path.push(next);
            cur = next;
        }
    }
    let mut msg = format!("deadlock: {}", waits.join("; "));
    if let Some(mut c) = cycle {
        c.push(c[0]);
        let arrows: Vec<String> = c.iter().map(|r| r.to_string()).collect();
        msg.push_str(&format!("; wait-for cycle: {}", arrows.join(" → ")));
    }
    msg
}

/// DFS exploration context.
struct Explorer<'a> {
    programs: &'a [Vec<TraceOp>],
    recv_any_tags: Vec<HashSet<u32>>,
    reduce: bool,
    max_executions: Option<u64>,
    stats: Stats,
    violation: Option<Box<Violation>>,
}

impl Explorer<'_> {
    fn done(&self) -> bool {
        self.violation.is_some()
            || self
                .max_executions
                .is_some_and(|cap| self.stats.executions >= cap)
    }

    /// Explores every schedule from `state`. `sleep` is the sleep-set
    /// bitmask over ranks; `schedule` the visible steps so far.
    fn dfs(&mut self, mut state: State, sleep: u64, schedule: &mut Vec<usize>) {
        if let Err(message) = fold_locals(&mut state, self.programs) {
            self.stats.executions += 1;
            self.violation = Some(Box::new(Violation {
                schedule: schedule.clone(),
                message,
            }));
            return;
        }
        let runnable: Vec<usize> = (0..self.programs.len())
            .filter(|&r| next_visible(&state, self.programs, r).is_some())
            .collect();
        if runnable.is_empty() {
            self.stats.executions += 1;
            if let Err(message) = check_terminal(&state) {
                self.violation = Some(Box::new(Violation {
                    schedule: schedule.clone(),
                    message,
                }));
            }
            return;
        }
        let enabled: Vec<(usize, TraceOp)> = runnable
            .iter()
            .filter_map(|&r| {
                let op = next_visible(&state, self.programs, r)?;
                is_enabled(&state, op, r).then_some((r, op))
            })
            .collect();
        if enabled.is_empty() {
            self.stats.executions += 1;
            self.violation = Some(Box::new(Violation {
                schedule: schedule.clone(),
                message: deadlock_message(&state, self.programs, &runnable),
            }));
            return;
        }
        if enabled.len() > 1 {
            self.stats.branches += 1;
        }
        let mut slept = sleep;
        for &(r, op) in &enabled {
            if self.done() {
                if self.violation.is_none() {
                    self.stats.truncated = true;
                }
                return;
            }
            if self.reduce && slept & (1 << r) != 0 {
                self.stats.slept += 1;
                continue;
            }
            // Child sleep set: previously slept/explored transitions
            // that commute with the chosen one stay redundant below it.
            let mut child_sleep = 0u64;
            if self.reduce {
                for &(s, sop) in &enabled {
                    if slept & (1 << s) != 0 && independent(sop, s, op, r, &self.recv_any_tags) {
                        child_sleep |= 1 << s;
                    }
                }
            }
            let mut child = state.clone();
            self.stats.steps += 1;
            schedule.push(r);
            match apply_visible(&mut child, r, op) {
                Ok(()) => self.dfs(child, child_sleep, schedule),
                Err(message) => {
                    self.stats.executions += 1;
                    self.violation = Some(Box::new(Violation {
                        schedule: schedule.clone(),
                        message,
                    }));
                }
            }
            schedule.pop();
            if self.violation.is_some() {
                return;
            }
            slept |= 1 << r;
        }
    }
}

/// Explores every rank interleaving of `programs` (one straight-line op
/// list per rank) and checks the deadlock / loss / leak / FIFO
/// invariants in every execution. `reduce` switches the sleep-set
/// partial-order reduction on; `max_executions` caps the search (the
/// cap trips `Stats::truncated` rather than erroring).
pub fn check(programs: &[Vec<TraceOp>], reduce: bool, max_executions: Option<u64>) -> Outcome {
    assert!(
        programs.len() <= 64,
        "rank count exceeds the sleep-set bitmask"
    );
    let mut recv_any_tags = vec![HashSet::new(); programs.len()];
    for (r, prog) in programs.iter().enumerate() {
        for op in prog {
            if let TraceOp::RecvAny { tag } = op {
                recv_any_tags[r].insert(*tag);
            }
        }
    }
    let mut ex = Explorer {
        programs,
        recv_any_tags,
        reduce,
        max_executions,
        stats: Stats::default(),
        violation: None,
    };
    ex.dfs(State::new(programs.len()), 0, &mut Vec::new());
    match ex.violation {
        Some(v) => Outcome::Fail(v, ex.stats),
        None => Outcome::Pass(ex.stats),
    }
}

/// Breadth-first search for a violation with the fewest visible steps —
/// the *minimal counterexample schedule* reported for the negative
/// controls. Returns `None` if no violation is reachable within
/// `max_states` explored states.
pub fn shortest_violation(programs: &[Vec<TraceOp>], max_states: u64) -> Option<Box<Violation>> {
    // BFS explores unreduced: minimality over all schedules.
    let mut queue: VecDeque<(State, Vec<usize>)> = VecDeque::new();
    let mut seen = HashSet::new();
    queue.push_back((State::new(programs.len()), Vec::new()));
    let mut explored = 0u64;
    while let Some((mut state, schedule)) = queue.pop_front() {
        explored += 1;
        if explored > max_states {
            return None;
        }
        if let Err(message) = fold_locals(&mut state, programs) {
            return Some(Box::new(Violation { schedule, message }));
        }
        if !seen.insert(state.fingerprint()) {
            continue;
        }
        let runnable: Vec<usize> = (0..programs.len())
            .filter(|&r| next_visible(&state, programs, r).is_some())
            .collect();
        if runnable.is_empty() {
            if let Err(message) = check_terminal(&state) {
                return Some(Box::new(Violation { schedule, message }));
            }
            continue;
        }
        let enabled: Vec<(usize, TraceOp)> = runnable
            .iter()
            .filter_map(|&r| {
                let op = next_visible(&state, programs, r)?;
                is_enabled(&state, op, r).then_some((r, op))
            })
            .collect();
        if enabled.is_empty() {
            return Some(Box::new(Violation {
                schedule,
                message: deadlock_message(&state, programs, &runnable),
            }));
        }
        for (r, op) in enabled {
            let mut child = state.clone();
            let mut child_schedule = schedule.clone();
            child_schedule.push(r);
            match apply_visible(&mut child, r, op) {
                Ok(()) => queue.push_back((child, child_schedule)),
                Err(message) => {
                    return Some(Box::new(Violation {
                        schedule: child_schedule,
                        message,
                    }))
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Program recording: run the production code, keep its trace.
// ---------------------------------------------------------------------------

/// Runs `body` on a `p`-rank [`VirtualCluster`] with trace recording on
/// and returns each rank's recorded op sequence — the per-rank programs
/// the checker explores.
pub fn record_traces<F>(p: usize, body: F) -> Vec<Vec<TraceOp>>
where
    F: Fn(&mut Comm) + Send + Sync,
{
    let cfg = ClusterConfig::new(p);
    VirtualCluster::run(&cfg, |comm| {
        comm.trace_start();
        body(comm);
        comm.trace_take()
    })
}

/// Programs of [`tree_reduce_sum_among`] over all `p` ranks.
pub fn trace_tree_reduce(p: usize, root: usize) -> Vec<Vec<TraceOp>> {
    let ranks: Vec<usize> = (0..p).collect();
    record_traces(p, move |comm| {
        let mut data = vec![comm.rank() as f32 + 1.0; 4];
        tree_reduce_sum_among(comm, &ranks, root, &mut data, TimeCategory::Other);
    })
}

/// Programs of [`tree_broadcast_among`] over all `p` ranks.
pub fn trace_tree_broadcast(p: usize, root: usize) -> Vec<Vec<TraceOp>> {
    let ranks: Vec<usize> = (0..p).collect();
    record_traces(p, move |comm| {
        let mut data = if comm.rank() == root {
            vec![7.0; 4]
        } else {
            Vec::new()
        };
        tree_broadcast_among(comm, &ranks, root, &mut data, TimeCategory::Other);
    })
}

/// Programs of the executable allreduce ([`tree_allreduce_sum`]).
pub fn trace_tree_allreduce(p: usize) -> Vec<Vec<TraceOp>> {
    record_traces(p, |comm| {
        let mut data = vec![comm.rank() as f32; 4];
        tree_allreduce_sum(comm, &mut data, TimeCategory::Other);
    })
}

/// Programs of [`flat_gather_sum`] over all `p` ranks.
pub fn trace_flat_gather(p: usize, root: usize) -> Vec<Vec<TraceOp>> {
    record_traces(p, move |comm| {
        let mut data = vec![1.0; 4];
        flat_gather_sum(comm, root, &mut data, TimeCategory::Other);
    })
}

/// Programs of [`ring_allreduce_sum`] over all `p` ranks.
pub fn trace_ring_allreduce(p: usize) -> Vec<Vec<TraceOp>> {
    record_traces(p, |comm| {
        let mut data = vec![comm.rank() as f32; 8];
        ring_allreduce_sum(comm, &mut data, TimeCategory::Other);
    })
}

/// Programs of the hub [`Comm::allreduce_sum_into`] over all `p` ranks.
pub fn trace_hub_allreduce(p: usize) -> Vec<Vec<TraceOp>> {
    record_traces(p, |comm| {
        let mut sum = Vec::new();
        comm.allreduce_sum_into(&[comm.rank() as f32; 4], TimeCategory::Other, &mut sum);
    })
}

/// Programs of [`Comm::barrier`] over all `p` ranks.
pub fn trace_hub_barrier(p: usize) -> Vec<Vec<TraceOp>> {
    record_traces(p, Comm::barrier)
}

/// The Sync EASGD batch fan-out that opens every exchange scenario: rank
/// 0 (the data CPU) sends a packed [`BatchMsg`] to GPUs `1..=g` through
/// the pool; each GPU receives and decodes its batch.
fn fan_out_batch(comm: &mut Comm, g: usize) {
    let pixels = [0.25f32; 4];
    let labels = [1usize];
    if comm.rank() == 0 {
        for j in 1..=g {
            let mut buf = comm.take_buffer(3 + labels.len() + pixels.len());
            BatchMsg::encode_into(&pixels, &labels, &mut buf);
            comm.send_from_costed(j, tags::SYNC_DATA, buf, 0.0, TimeCategory::CpuGpuData);
        }
    } else {
        let mut payload = Vec::new();
        comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut payload);
        let mut got_labels = Vec::new();
        let decoded = BatchMsg::decode_into(&payload, 1, &mut got_labels);
        assert!(decoded.is_ok(), "batch codec: {:?}", decoded.err());
    }
}

/// Programs of one Sync EASGD2/3 round on `g` GPUs plus the data CPU
/// (`P = g + 1`): after the batch fan-out the GPU set runs the
/// production [`tree_exchange_round`](easgd::sync::tree_exchange_round)
/// (tree broadcast of the center + tree reduce of the contributions,
/// center on rank 1) — exactly the per-iteration comm structure of the
/// `SyncExchange::ExecutableTree` trainer.
pub fn trace_sync_exchange(g: usize) -> Vec<Vec<TraceOp>> {
    let participants: Vec<usize> = (1..=g).collect();
    record_traces(g + 1, move |comm| {
        fan_out_batch(comm, g);
        if comm.rank() == 0 {
            return;
        }
        let center = vec![0.5f32; 4];
        let mut center_t = Vec::new();
        let mut weight_sum = vec![0.0f32; 4];
        easgd::sync::tree_exchange_round(
            comm,
            &participants,
            1,
            &center,
            &mut center_t,
            &mut weight_sum,
            TimeCategory::GpuGpuParam,
            |center_t, weight_sum| {
                weight_sum.clear();
                weight_sum.extend_from_slice(center_t);
            },
        );
    })
}

/// Programs of one *pipelined* Sync EASGD round on `g` GPUs plus the
/// data CPU: the same shape as [`trace_sync_exchange`], but the GPU set
/// runs the production
/// [`tree_exchange_pipelined`](easgd::sync::tree_exchange_pipelined) —
/// the segmented nonblocking broadcast/reduce built on
/// `isend`/`irecv_into`/`wait` — exactly the per-iteration comm
/// structure of the `SyncExchange::PipelinedTree` trainer.
pub fn trace_pipelined_exchange(g: usize, segments: usize) -> Vec<Vec<TraceOp>> {
    let participants: Vec<usize> = (1..=g).collect();
    record_traces(g + 1, move |comm| {
        fan_out_batch(comm, g);
        if comm.rank() == 0 {
            return;
        }
        let center = vec![0.5f32; 4];
        let mut center_t = vec![0.0f32; 4];
        let mut weight_sum = vec![0.0f32; 4];
        easgd::sync::tree_exchange_pipelined(
            comm,
            &participants,
            1,
            &center,
            &mut center_t,
            &mut weight_sum,
            TimeCategory::GpuGpuParam,
            segments,
            |_comm: &mut Comm, _s| {},
            |_range, center_seg, sum_seg: &mut [f32]| sum_seg.copy_from_slice(center_seg),
        );
    })
}

// ---------------------------------------------------------------------------
// Negative controls: deliberately broken protocols the checker must catch.
// ---------------------------------------------------------------------------

/// Two ranks that each receive before sending: deadlocked from the
/// start, with a 0 → 1 → 0 wait-for cycle.
pub fn negative_cyclic_pair() -> Vec<Vec<TraceOp>> {
    let t = tags::SYNC_DATA;
    vec![
        vec![
            TraceOp::Recv { from: 1, tag: t },
            TraceOp::Recycle,
            TraceOp::TakeBuf,
            TraceOp::Send { to: 1, tag: t },
        ],
        vec![
            TraceOp::Recv { from: 0, tag: t },
            TraceOp::Recycle,
            TraceOp::TakeBuf,
            TraceOp::Send { to: 0, tag: t },
        ],
    ]
}

/// A schedule-dependent deadlock: rank 0 takes *any* message first and
/// then insists on one from rank 1 specifically. If the FCFS `recv_any`
/// happens to consume rank 1's message, the selective receive starves.
/// Only some interleavings fail — the case partial-order reduction must
/// not prune away.
pub fn negative_recv_any_starvation() -> Vec<Vec<TraceOp>> {
    let t = tags::SYNC_DATA;
    vec![
        vec![
            TraceOp::RecvAny { tag: t },
            TraceOp::Recycle,
            TraceOp::Recv { from: 1, tag: t },
            TraceOp::Recycle,
        ],
        vec![TraceOp::TakeBuf, TraceOp::Send { to: 0, tag: t }],
        vec![TraceOp::TakeBuf, TraceOp::Send { to: 0, tag: t }],
    ]
}

/// A tree reduce whose root drops its `Recycle`: the production trace
/// of [`trace_tree_reduce`] with the final local op removed — the last
/// child's buffer leaks in every terminal state.
pub fn negative_leaky_reduce() -> Vec<Vec<TraceOp>> {
    let mut programs = trace_tree_reduce(4, 0);
    let leaked = programs[0].pop();
    assert_eq!(
        leaked,
        Some(TraceOp::Recycle),
        "fixture drift: expected a trailing recycle"
    );
    programs
}

/// A tree broadcast whose interior rank forwards the shared payload but
/// never releases its own reference: the production trace of
/// [`trace_tree_broadcast`] with rank 2's `Release` removed. Every other
/// holder releases, yet the payload's buffer never returns to the pool.
pub fn negative_unreleased_forward() -> Vec<Vec<TraceOp>> {
    let mut programs = trace_tree_broadcast(4, 0);
    let interior = &mut programs[2];
    assert!(
        interior.contains(&TraceOp::Fork),
        "fixture drift: rank 2 should forward the payload"
    );
    let before = interior.len();
    interior.retain(|op| *op != TraceOp::Release);
    assert_eq!(
        interior.len() + 1,
        before,
        "fixture drift: expected one release"
    );
    programs
}

/// A hub allreduce that rank 2 never enters: the production trace of
/// [`trace_hub_allreduce`] with that rank's program emptied. The hub
/// starves on the missing contribution and every other rank on the
/// result.
pub fn negative_skipped_collective() -> Vec<Vec<TraceOp>> {
    let mut programs = trace_hub_allreduce(4);
    assert!(
        !programs[2].is_empty(),
        "fixture drift: rank 2 should take part"
    );
    programs[2].clear();
    programs
}

/// A sender that posts two messages where the receiver only ever takes
/// one: the second is undelivered in every terminal state.
pub fn negative_lost_message() -> Vec<Vec<TraceOp>> {
    let a = tags::SYNC_DATA;
    let b = tags::ORIG_DATA;
    vec![
        vec![
            TraceOp::TakeBuf,
            TraceOp::Send { to: 1, tag: a },
            TraceOp::TakeBuf,
            TraceOp::Send { to: 1, tag: b },
        ],
        vec![TraceOp::Recv { from: 0, tag: a }, TraceOp::Recycle],
    ]
}

/// A wait on an irecv whose matching send is never posted: rank 0
/// pre-posts a segment receive and blocks in `wait` forever while
/// rank 1 does nothing — the minimal nonblocking deadlock. The checker
/// must report it with an *empty* schedule (no visible step is ever
/// enabled).
pub fn negative_unmatched_wait() -> Vec<Vec<TraceOp>> {
    let t = tags::seg_tree(0, tags::SEG_PHASE_BCAST, 1);
    vec![
        vec![
            TraceOp::TakeBuf,
            TraceOp::Irecv { from: 1, tag: t },
            TraceOp::Wait { from: 1, tag: t },
            TraceOp::Recycle,
            TraceOp::Recycle,
        ],
        Vec::new(),
    ]
}

// ---------------------------------------------------------------------------
// The scenario suite shared by the CLI and the root test-suite.
// ---------------------------------------------------------------------------

/// One named model-checking scenario.
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Per-rank programs to explore.
    pub programs: Vec<Vec<TraceOp>>,
    /// Whether every execution must satisfy the invariants.
    pub expect_pass: bool,
    /// Whether the CLI also runs the unreduced search to report the
    /// partial-order-reduction factor.
    pub compare_naive: bool,
}

/// The scenario suite. `smoke` keeps to the P=4 instances CI runs per
/// push, each passing one also explored unreduced for the reduction
/// factor; the full suite (scheduled / manual CI job, and the acceptance
/// run) adds P=5–6 and the ring.
pub fn suite(smoke: bool) -> Vec<Scenario> {
    let per_push = [
        ("tree_reduce(P=4, root=0)", trace_tree_reduce(4, 0), true),
        (
            "tree_broadcast(P=4, root=0)",
            trace_tree_broadcast(4, 0),
            true,
        ),
        ("tree_allreduce(P=4)", trace_tree_allreduce(4), true),
        (
            "flat_gather_sum(P=4, root=0)",
            trace_flat_gather(4, 0),
            true,
        ),
        ("sync_easgd_exchange(G=3)", trace_sync_exchange(3), true),
        (
            "sync_easgd_pipelined_exchange(G=3, S=2)",
            trace_pipelined_exchange(3, 2),
            true,
        ),
        ("hub_allreduce(P=4)", trace_hub_allreduce(4), true),
        ("hub_barrier(P=4)", trace_hub_barrier(4), true),
        (
            "negative: cyclic send/recv pair",
            negative_cyclic_pair(),
            false,
        ),
        (
            "negative: recv_any starvation",
            negative_recv_any_starvation(),
            false,
        ),
        (
            "negative: leaking reduce root",
            negative_leaky_reduce(),
            false,
        ),
        (
            "negative: payload forwarded, never released",
            negative_unreleased_forward(),
            false,
        ),
        (
            "negative: one rank skips the collective",
            negative_skipped_collective(),
            false,
        ),
        ("negative: lost message", negative_lost_message(), false),
        (
            "negative: wait on a never-matched irecv",
            negative_unmatched_wait(),
            false,
        ),
    ];
    let mut suite: Vec<Scenario> = per_push
        .into_iter()
        .map(|(name, programs, expect_pass)| Scenario {
            name,
            programs,
            expect_pass,
            compare_naive: expect_pass,
        })
        .collect();
    if !smoke {
        let nightly = [
            ("tree_reduce(P=6, root=2)", trace_tree_reduce(6, 2)),
            ("tree_broadcast(P=5, root=1)", trace_tree_broadcast(5, 1)),
            ("tree_allreduce(P=6)", trace_tree_allreduce(6)),
            ("ring_allreduce(P=3)", trace_ring_allreduce(3)),
            ("sync_easgd_exchange(G=5)", trace_sync_exchange(5)),
            (
                "sync_easgd_pipelined_exchange(G=3, S=3)",
                trace_pipelined_exchange(3, 3),
            ),
        ];
        suite.extend(nightly.into_iter().map(|(name, programs)| Scenario {
            name,
            programs,
            expect_pass: true,
            compare_naive: false,
        }));
    }
    suite
}

/// Execution cap for the reduced search (safety net; the suite's
/// scenarios stay far below it).
pub const REDUCED_CAP: u64 = 2_000_000;
/// Execution cap for the naive comparison runs (the unreduced schedule
/// space can be astronomically larger; a truncated naive count still
/// lower-bounds the reduction factor).
pub const NAIVE_CAP: u64 = 200_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn visible_len(programs: &[Vec<TraceOp>]) -> usize {
        programs
            .iter()
            .flatten()
            .filter(|op| !op.is_local())
            .count()
    }

    #[test]
    fn two_rank_handshake_passes() {
        let t = tags::SYNC_DATA;
        let programs = vec![
            vec![TraceOp::TakeBuf, TraceOp::Send { to: 1, tag: t }],
            vec![TraceOp::Recv { from: 0, tag: t }, TraceOp::Recycle],
        ];
        assert!(matches!(check(&programs, true, None), Outcome::Pass(_)));
        assert!(matches!(check(&programs, false, None), Outcome::Pass(_)));
    }

    #[test]
    fn reduction_explores_fewer_executions_same_verdict() {
        let programs = trace_tree_reduce(4, 0);
        let naive = check(&programs, false, None);
        let reduced = check(&programs, true, None);
        assert!(matches!(naive, Outcome::Pass(_)));
        assert!(matches!(reduced, Outcome::Pass(_)));
        assert!(
            reduced.stats().executions <= naive.stats().executions,
            "reduced {} > naive {}",
            reduced.stats().executions,
            naive.stats().executions
        );
    }

    #[test]
    fn cyclic_pair_deadlocks_immediately() {
        let programs = negative_cyclic_pair();
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("cyclic pair must deadlock");
        };
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert!(v.message.contains("wait-for cycle"), "{}", v.message);
        let minimal = shortest_violation(&programs, 10_000).expect("violation");
        assert!(
            minimal.schedule.is_empty(),
            "deadlocked before any visible step"
        );
    }

    #[test]
    fn recv_any_starvation_found_with_and_without_reduction() {
        let programs = negative_recv_any_starvation();
        for reduce in [false, true] {
            let Outcome::Fail(v, _) = check(&programs, reduce, None) else {
                panic!("starvation must be found (reduce={reduce})");
            };
            assert!(v.message.contains("deadlock"), "{}", v.message);
        }
        let minimal = shortest_violation(&programs, 100_000).expect("violation");
        assert_eq!(minimal.schedule.len(), 3, "schedule {:?}", minimal.schedule);
    }

    #[test]
    fn leak_and_loss_are_reported() {
        let Outcome::Fail(v, _) = check(&negative_leaky_reduce(), true, None) else {
            panic!("leak must be found");
        };
        assert!(v.message.contains("holding"), "{}", v.message);
        let Outcome::Fail(v, _) = check(&negative_lost_message(), true, None) else {
            panic!("loss must be found");
        };
        assert!(v.message.contains("never received"), "{}", v.message);
    }

    #[test]
    fn double_recycle_is_a_local_violation() {
        let t = tags::SYNC_DATA;
        let programs = vec![
            vec![TraceOp::TakeBuf, TraceOp::Send { to: 1, tag: t }],
            vec![
                TraceOp::Recv { from: 0, tag: t },
                TraceOp::Recycle,
                TraceOp::Recycle,
            ],
        ];
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("double recycle must be found");
        };
        assert!(v.message.contains("holding no buffer"), "{}", v.message);
    }

    #[test]
    fn shared_payload_is_one_obligation_released_last() {
        // Rank 0 shares one buffer with both peers; whichever release
        // comes last discharges it, in every interleaving.
        let t = tags::SYNC_DATA;
        let reader = |from| vec![TraceOp::Recv { from, tag: t }, TraceOp::Release];
        let mut programs = vec![
            vec![
                TraceOp::TakeBuf,
                TraceOp::Share,
                TraceOp::Fork,
                TraceOp::Send { to: 1, tag: t },
                TraceOp::Fork,
                TraceOp::Send { to: 2, tag: t },
                TraceOp::Release,
            ],
            reader(0),
            reader(0),
        ];
        assert!(matches!(check(&programs, false, None), Outcome::Pass(_)));
        assert!(matches!(check(&programs, true, None), Outcome::Pass(_)));
        // A second release of the same reference is a local violation.
        programs[2].push(TraceOp::Release);
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("double release must be found");
        };
        assert!(
            v.message.contains("holding no payload reference"),
            "{}",
            v.message
        );
    }

    #[test]
    fn unreleased_forward_is_a_pool_leak() {
        let Outcome::Fail(v, _) = check(&negative_unreleased_forward(), true, None) else {
            panic!("unreleased payload must be found");
        };
        assert!(
            v.message.contains("never returns to the pool"),
            "{}",
            v.message
        );
    }

    #[test]
    fn skipped_collective_starves_the_hub() {
        let Outcome::Fail(v, _) = check(&negative_skipped_collective(), true, None) else {
            panic!("a skipped collective must deadlock");
        };
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert!(
            v.message.contains("rank 0 blocked on recv(from=2"),
            "{}",
            v.message
        );
    }

    #[test]
    fn unmatched_wait_is_a_minimal_deadlock() {
        let programs = negative_unmatched_wait();
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("unmatched wait must deadlock");
        };
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert!(v.message.contains("wait(irecv"), "{}", v.message);
        let minimal = shortest_violation(&programs, 10_000).expect("violation");
        assert!(
            minimal.schedule.is_empty(),
            "wait deadlocks before any visible step, got {:?}",
            minimal.schedule
        );
    }

    #[test]
    fn dangling_irecv_is_a_lost_completion() {
        // Rank 0 posts an irecv (then recycles its landing buffer instead
        // of waiting); rank 1's send arrives but is never matched. The
        // terminal state must report both the undelivered message and the
        // never-waited request.
        let t = tags::seg_tree(1, tags::SEG_PHASE_REDUCE, 2);
        let programs = vec![
            vec![
                TraceOp::TakeBuf,
                TraceOp::Irecv { from: 1, tag: t },
                TraceOp::Recycle,
            ],
            vec![TraceOp::TakeBuf, TraceOp::Send { to: 0, tag: t }],
        ];
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("dangling irecv must be found");
        };
        assert!(v.message.contains("lost completion"), "{}", v.message);
        assert!(v.message.contains("never received"), "{}", v.message);
    }

    #[test]
    fn wait_without_a_posted_irecv_is_rejected() {
        // A wait with no matching irecv on the books is a protocol bug
        // even when a message happens to be deliverable.
        let t = tags::SYNC_DATA;
        let programs = vec![
            vec![
                TraceOp::Wait { from: 1, tag: t },
                TraceOp::Recycle,
                TraceOp::Recycle,
            ],
            vec![TraceOp::TakeBuf, TraceOp::Send { to: 0, tag: t }],
        ];
        let Outcome::Fail(v, _) = check(&programs, true, None) else {
            panic!("wait without request must be found");
        };
        assert!(
            v.message.contains("wait without a request"),
            "{}",
            v.message
        );
    }

    #[test]
    fn pipelined_trace_uses_the_nonblocking_vocabulary() {
        let a = trace_pipelined_exchange(3, 2);
        let b = trace_pipelined_exchange(3, 2);
        assert_eq!(a, b, "trace recording must be deterministic");
        let count = |pred: fn(&TraceOp) -> bool| a.iter().flatten().filter(|op| pred(op)).count();
        let isends = count(|op| matches!(op, TraceOp::Isend { .. }));
        let irecvs = count(|op| matches!(op, TraceOp::Irecv { .. }));
        let waits = count(|op| matches!(op, TraceOp::Wait { .. }));
        assert!(isends > 0, "pipelined exchange must post isends");
        assert_eq!(
            irecvs, waits,
            "every pre-posted irecv is waited exactly once"
        );
        assert!(irecvs > 0, "pipelined exchange must pre-post irecvs");
    }

    #[test]
    fn production_scenarios_verify_exhaustively() {
        for sc in suite(true) {
            let outcome = check(&sc.programs, true, Some(REDUCED_CAP));
            assert!(!outcome.stats().truncated, "{} truncated", sc.name);
            match (sc.expect_pass, &outcome) {
                (true, Outcome::Pass(_)) | (false, Outcome::Fail(..)) => {}
                (true, Outcome::Fail(v, _)) => panic!("{} failed: {v}", sc.name),
                (false, Outcome::Pass(_)) => panic!("{} unexpectedly passed", sc.name),
            }
        }
    }

    #[test]
    fn recorded_traces_are_deterministic_and_balanced() {
        let a = trace_sync_exchange(3);
        let b = trace_sync_exchange(3);
        assert_eq!(a, b, "trace recording must be deterministic");
        let sends = a
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Send { .. }))
            .count();
        let recvs = a
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Recv { .. } | TraceOp::RecvAny { .. }))
            .count();
        assert_eq!(sends, recvs, "every send needs a receive");
        assert!(
            visible_len(&a) >= 7,
            "G=3 exchange should have ≥7 visible ops"
        );
    }

    #[test]
    fn ring_allreduce_trace_verifies() {
        let programs = trace_ring_allreduce(3);
        assert!(matches!(
            check(&programs, true, Some(REDUCED_CAP)),
            Outcome::Pass(_)
        ));
    }
}
