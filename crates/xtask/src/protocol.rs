//! Protocol checker for the comm layer (DESIGN.md §12).
//!
//! Runs the shipped rank closures — the tree, flat and ring
//! collectives, the Sync EASGD exchange rounds and the FCFS parameter
//! server — on the event backend under every order a run can observe,
//! and checks each execution for deadlock, message loss, buffer-pool
//! leaks and lost completions.
//!
//! ## Only a `recv_any` branches
//!
//! Sends never block, and every other receive (`recv_into`,
//! `irecv_into` + `wait`) names its sender, so each rank receives the
//! same messages under every schedule (Kahn's determinacy). Only a
//! wildcard receive can see the schedule. [`VirtualCluster::explore`]
//! parks every `recv_any` until no rank can run and then resolves one
//! by a pick, as ISP's POE does for MPI's wildcard receives; [`check`]
//! walks the pick sequences depth first. A program without `recv_any`
//! has one execution.
//!
//! ## What an execution must satisfy
//!
//! - the host's own checks: no deadlock (its report names every blocked
//!   rank and what it waits for), no message left unreceived when a rank
//!   exits, no send to a rank that has exited, no rank panic;
//! - the [`ledger`] over the recorded [`TraceOp`]s: pooled buffers,
//!   shared-payload references and posted irecvs all balance;
//! - the scenario's own judgement of the ranks' results.
//!
//! [`VirtualCluster::explore`]: easgd_cluster::VirtualCluster::explore
//! [`TraceOp`]: easgd_cluster::TraceOp

use easgd::async_sim::fcfs_rank;
use easgd::{AsyncVariant, SimCosts, TrainConfig};
use easgd_cluster::collectives::{
    flat_gather_sum, ring_allreduce_sum, tree_allreduce_sum, tree_broadcast_among,
    tree_reduce_sum_among,
};
use easgd_cluster::{
    tags, BatchMsg, ClusterConfig, Comm, Explored, RankReport, TimeCategory, TraceOp,
    VirtualCluster,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Counters for one [`check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Executions run: one per pick sequence.
    pub executions: u64,
    /// Branch points met, over all executions.
    pub branch_points: u64,
}

/// A failed execution: the picks that reach it, one per branch point,
/// and what went wrong.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The pick taken at each branch point of the execution.
    pub picks: Vec<usize>,
    /// What went wrong, with per-rank detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.message)?;
        write!(f, "  picks: {:?}", self.picks)
    }
}

/// Result of checking one scenario.
#[derive(Debug)]
pub enum Outcome {
    /// Every execution passed.
    Pass(Stats),
    /// Some execution failed; the violation is one reached in the fewest
    /// picks.
    Fail(Box<Violation>, Stats),
}

impl Outcome {
    /// The counters, pass or fail.
    pub fn stats(&self) -> &Stats {
        match self {
            Outcome::Pass(s) => s,
            Outcome::Fail(_, s) => s,
        }
    }
}

/// Runs `body` on `p` ranks once per pick sequence, depth first, and
/// judges every execution: the host's own failure if the run panicked,
/// else the [`ledger`], else `judge` over the ranks' results.
pub fn check<R, F, J>(p: usize, body: F, judge: J) -> Outcome
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
    J: Fn(&[R]) -> Result<(), String>,
{
    let config = ClusterConfig::new(p);
    let mut stats = Stats::default();
    let mut shortest: Option<Box<Violation>> = None;
    let mut picks = Vec::new();
    loop {
        let Explored {
            options,
            outcome,
            traces,
        } = VirtualCluster::explore(&config, &picks, &body);
        stats.executions += 1;
        stats.branch_points += options.len() as u64;
        // Past the prefix, every branch point took pick 0.
        picks.resize(options.len(), 0);
        let verdict = outcome.and_then(|results| {
            ledger(&traces)?;
            judge(&results)
        });
        if let Err(message) = verdict {
            if shortest
                .as_ref()
                .is_none_or(|v| picks.len() < v.picks.len())
            {
                let picks = picks.clone();
                shortest = Some(Box::new(Violation { picks, message }));
            }
        }
        // The next sequence: the deepest pick with an option left, moved on.
        loop {
            let Some(last) = picks.pop() else {
                return match shortest {
                    Some(v) => Outcome::Fail(v, stats),
                    None => Outcome::Pass(stats),
                };
            };
            if last + 1 < options[picks.len()] {
                picks.push(last + 1);
                break;
            }
        }
    }
}

/// Takes one from `count`; false if it held none.
fn take(count: &mut u64) -> bool {
    let held = *count > 0;
    *count -= u64::from(held);
    held
}

/// The ledger over one execution's recorded ops (the reading in
/// [`TraceOp`]'s docs). Per rank: no buffer is recycled, shared or sent
/// that is not held, no payload reference is forked or released that is
/// not held, and at exit nothing is held and every posted irecv was
/// waited. A receive takes what its send carried: messages of one
/// (sender, receiver, tag) match in send order, as the channel delivers
/// them.
pub fn ledger(traces: &[Vec<TraceOp>]) -> Result<(), String> {
    // Whether each send carried a forked payload reference (or a buffer).
    let mut carried: HashMap<(usize, usize, u32), VecDeque<bool>> = HashMap::new();
    for (r, ops) in traces.iter().enumerate() {
        let mut forked = 0;
        for op in ops {
            match *op {
                TraceOp::Fork => forked += 1,
                TraceOp::Send { to, tag } | TraceOp::Isend { to, tag } => {
                    let queue = carried.entry((r, to, tag)).or_default();
                    queue.push_back(take(&mut forked));
                }
                _ => {}
            }
        }
    }
    let mut problems = Vec::new();
    for (r, ops) in traces.iter().enumerate() {
        let (mut held, mut shared, mut forked) = (0u64, 0u64, 0u64);
        let mut posted: BTreeMap<(usize, u32), u64> = BTreeMap::new();
        for &op in ops {
            let fault = match op {
                TraceOp::TakeBuf => {
                    held += 1;
                    None
                }
                TraceOp::Recycle | TraceOp::Share => {
                    shared += u64::from(op == TraceOp::Share);
                    (!take(&mut held)).then_some(
                        "holding no buffer (recycling a buffer never taken from the pool)",
                    )
                }
                TraceOp::Fork => {
                    forked += 1;
                    (shared == 0).then_some("holding no payload reference")
                }
                TraceOp::Release => (!take(&mut shared)).then_some(
                    "holding no payload reference (double release, or forwarding a payload \
                     never received)",
                ),
                TraceOp::Send { .. } | TraceOp::Isend { .. } => (!take(&mut forked)
                    && !take(&mut held))
                .then_some("without a held pool buffer (send_from of a non-pooled Vec?)"),
                TraceOp::Irecv { from, tag } => {
                    *posted.entry((from, tag)).or_default() += 1;
                    None
                }
                TraceOp::Recv { from, tag }
                | TraceOp::RecvAny { from, tag }
                | TraceOp::Wait { from, tag } => {
                    if matches!(op, TraceOp::Wait { .. }) {
                        take(posted.entry((from, tag)).or_default());
                    }
                    let payload = carried
                        .get_mut(&(from, r, tag))
                        .and_then(VecDeque::pop_front);
                    *if payload == Some(true) {
                        &mut shared
                    } else {
                        &mut held
                    } += 1;
                    None
                }
            };
            if let Some(fault) = fault {
                return Err(format!("rank {r} ran {op} {fault}"));
            }
        }
        if held > 0 {
            problems.push(format!(
                "rank {r} finished still holding {held} pooled buffer(s)"
            ));
        }
        if shared + forked > 0 {
            problems.push(format!(
                "rank {r} finished still holding {} shared payload reference(s): the \
                 payload's buffer never returns to the pool",
                shared + forked
            ));
        }
        for (&(from, tag), &k) in posted.iter().filter(|(_, &k)| k > 0) {
            problems.push(format!(
                "rank {r} finished with {k} outstanding irecv(from={from}, tag={tag:#x}) \
                 never waited (lost completion)"
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

// ---------------------------------------------------------------------------
// The shipped rank closures.
// ---------------------------------------------------------------------------

/// [`tree_reduce_sum_among`] over every rank to `root`.
pub fn tree_reduce_rank(root: usize) -> impl Fn(&mut Comm) + Send + Sync {
    move |comm| {
        let ranks: Vec<usize> = (0..comm.size()).collect();
        let mut data = vec![comm.rank() as f32 + 1.0; 4];
        tree_reduce_sum_among(comm, &ranks, root, &mut data, TimeCategory::Other);
    }
}

/// [`tree_broadcast_among`] over every rank from `root`.
pub fn tree_broadcast_rank(root: usize) -> impl Fn(&mut Comm) + Send + Sync {
    move |comm| {
        let ranks: Vec<usize> = (0..comm.size()).collect();
        let mut data = if comm.rank() == root {
            vec![7.0; 4]
        } else {
            Vec::new()
        };
        tree_broadcast_among(comm, &ranks, root, &mut data, TimeCategory::Other);
    }
}

/// The executable allreduce, [`tree_allreduce_sum`].
pub fn tree_allreduce_rank(comm: &mut Comm) {
    let mut data = vec![comm.rank() as f32; 4];
    tree_allreduce_sum(comm, &mut data, TimeCategory::Other);
}

/// [`flat_gather_sum`] to `root`.
pub fn flat_gather_rank(root: usize) -> impl Fn(&mut Comm) + Send + Sync {
    move |comm| {
        let mut data = vec![1.0; 4];
        flat_gather_sum(comm, root, &mut data, TimeCategory::Other);
    }
}

/// [`ring_allreduce_sum`].
pub fn ring_allreduce_rank(comm: &mut Comm) {
    let mut data = vec![comm.rank() as f32; 8];
    ring_allreduce_sum(comm, &mut data, TimeCategory::Other);
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

/// One Sync EASGD2/3 round on `g` GPUs plus the data CPU (`P = g + 1`):
/// after the batch fan-out the GPU set runs the production
/// [`tree_exchange_round`](easgd::sync::tree_exchange_round) (tree
/// broadcast of the center + tree reduce of the contributions, center on
/// rank 1) — exactly the per-iteration comm structure of the
/// `SyncExchange::ExecutableTree` trainer.
pub fn sync_exchange_rank(g: usize) -> impl Fn(&mut Comm) + Send + Sync {
    let participants: Vec<usize> = (1..=g).collect();
    move |comm| {
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
    }
}

/// One *pipelined* Sync EASGD round on `g` GPUs plus the data CPU: the
/// shape of [`sync_exchange_rank`], but the GPU set runs the production
/// [`tree_exchange_pipelined`](easgd::sync::tree_exchange_pipelined) —
/// the segmented nonblocking broadcast/reduce built on
/// `isend`/`irecv_into`/`wait` — exactly the per-iteration comm
/// structure of the `SyncExchange::PipelinedTree` trainer.
pub fn pipelined_exchange_rank(g: usize, segments: usize) -> impl Fn(&mut Comm) + Send + Sync {
    let participants: Vec<usize> = (1..=g).collect();
    move |comm| {
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
    }
}

/// What one rank of [`fcfs_server_rank`] returns: the master's order and
/// report, `None` for a worker.
pub type FcfsRank = Option<(Vec<u16>, RankReport)>;

/// The shipped FCFS parameter server, [`fcfs_rank`]: rank 0 serves
/// `workers` workers `exchanges` exchanges each, whoever asks first.
pub fn fcfs_server_rank(
    workers: usize,
    exchanges: usize,
) -> impl Fn(&mut Comm) -> FcfsRank + Send + Sync {
    let cfg = TrainConfig::figure6(exchanges).with_workers(workers);
    let costs = SimCosts::mnist_lenet_4gpu();
    move |comm| fcfs_rank(comm, &cfg, &costs, AsyncVariant::Easgd)
}

/// The FCFS judgement: the master served every worker exactly
/// `exchanges` times. Every request met its reply, or a worker would
/// have deadlocked or exited with it unreceived.
pub fn fcfs_served_everyone(exchanges: usize) -> impl Fn(&[FcfsRank]) -> Result<(), String> {
    move |results| {
        let Some((Some((order, _)), workers)) = results.split_first() else {
            return Err("the master returned no order".to_string());
        };
        for w in 0..workers.len() {
            let served = order.iter().filter(|&&x| usize::from(x) == w).count();
            if served != exchanges {
                return Err(format!(
                    "worker {w} was served {served} times, not {exchanges}: order {order:?}"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Negative controls: deliberately broken rank closures the checker must
// catch.
// ---------------------------------------------------------------------------

/// Two ranks that each receive before sending: deadlocked from the
/// start, each waiting for the other.
pub fn negative_cyclic_pair(comm: &mut Comm) {
    let peer = 1 - comm.rank();
    comm.recv_into(peer, tags::SYNC_DATA, TimeCategory::Other, &mut Vec::new());
    comm.send(peer, tags::SYNC_DATA, &[], TimeCategory::Other);
}

/// A schedule-dependent deadlock: rank 0 takes *any* message first and
/// then insists on one from rank 1 specifically. If the `recv_any`
/// takes rank 1's message, the selective receive starves; only that
/// pick fails.
pub fn negative_recv_any_starvation(comm: &mut Comm) {
    let mut got = Vec::new();
    if comm.rank() == 0 {
        comm.recv_any_into(tags::SYNC_DATA, TimeCategory::Other, &mut got);
        comm.recv_into(1, tags::SYNC_DATA, TimeCategory::Other, &mut got);
    } else {
        comm.send(
            0,
            tags::SYNC_DATA,
            &[comm.rank() as f32],
            TimeCategory::Other,
        );
    }
}

/// A tree reduce whose root keeps its sum in a pooled buffer and drops
/// it instead of recycling it: the buffer leaks from the pool.
pub fn negative_leaky_reduce(comm: &mut Comm) {
    tree_reduce_rank(0)(comm);
    if comm.rank() == 0 {
        let kept = comm.take_buffer(4);
        drop(kept);
    }
}

/// A payload forwarded down a chain 0 → {1, 2}, 2 → 3 whose interior
/// rank 2 never releases its own reference: every other holder
/// releases, yet the payload's buffer never returns to the pool.
pub fn negative_unreleased_forward(comm: &mut Comm) {
    let t = tags::SYNC_DATA;
    let cat = TimeCategory::Other;
    match comm.rank() {
        0 => {
            let payload = comm.make_payload(&[7.0; 4]);
            for to in [1, 2] {
                comm.send_payload_costed(to, t, &payload, 0.0, cat);
            }
            comm.release_payload(payload);
        }
        2 => {
            let payload = comm.recv_payload(0, t, cat);
            comm.send_payload_costed(3, t, &payload, 0.0, cat);
            drop(payload);
        }
        me => {
            let payload = comm.recv_payload(if me == 1 { 0 } else { 2 }, t, cat);
            comm.release_payload(payload);
        }
    }
}

/// A tree allreduce over four ranks that rank 2 never enters: rank 3's
/// partial goes to a rank that has already exited.
pub fn negative_skipped_collective(comm: &mut Comm) {
    if comm.rank() != 2 {
        tree_allreduce_rank(comm);
    }
}

/// A sender that posts two messages where the receiver only ever takes
/// one: the second is still there when the receiver exits.
pub fn negative_lost_message(comm: &mut Comm) {
    if comm.rank() == 0 {
        comm.send(1, tags::SYNC_DATA, &[1.0], TimeCategory::Other);
        comm.send(1, tags::ORIG_DATA, &[2.0], TimeCategory::Other);
    } else {
        let mut got = Vec::new();
        comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut got);
    }
}

/// A wait on an irecv whose matching send is never posted: rank 0
/// pre-posts a segment receive and blocks in `wait` while rank 1 does
/// nothing — the minimal nonblocking deadlock.
pub fn negative_unmatched_wait(comm: &mut Comm) {
    if comm.rank() == 0 {
        let t = tags::seg_tree(0, tags::SEG_PHASE_BCAST, 1);
        let landing = comm.take_buffer(4);
        let mut req = comm.irecv_into(1, t, TimeCategory::Other, landing);
        if let Some(got) = comm.wait(&mut req) {
            comm.recycle_buffer(got);
        }
    }
}

// ---------------------------------------------------------------------------
// The scenario suite shared by the CLI and the root test-suite.
// ---------------------------------------------------------------------------

/// One named scenario.
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Whether every execution must pass.
    pub expect_pass: bool,
    check: Box<dyn Fn() -> Outcome>,
}

impl Scenario {
    /// Checks the scenario: every execution of its rank closure.
    pub fn check(&self) -> Outcome {
        (self.check)()
    }
}

/// A scenario of `body` on `p` ranks whose results need no judgement.
fn scenario<F>(name: &'static str, expect_pass: bool, p: usize, body: F) -> Scenario
where
    F: Fn(&mut Comm) + Send + Sync + 'static,
{
    Scenario {
        name,
        expect_pass,
        check: Box::new(move || check(p, &body, |_| Ok(()))),
    }
}

/// The scenario suite: the collectives and exchange rounds at small P,
/// the FCFS server, and the seven negative controls.
pub fn suite() -> Vec<Scenario> {
    let mut suite = vec![
        scenario("tree_reduce(P=4, root=0)", true, 4, tree_reduce_rank(0)),
        scenario(
            "tree_broadcast(P=4, root=0)",
            true,
            4,
            tree_broadcast_rank(0),
        ),
        scenario("tree_allreduce(P=4)", true, 4, tree_allreduce_rank),
        scenario("flat_gather_sum(P=4, root=0)", true, 4, flat_gather_rank(0)),
        scenario("sync_easgd_exchange(G=3)", true, 4, sync_exchange_rank(3)),
        scenario(
            "sync_easgd_pipelined_exchange(G=3, S=2)",
            true,
            4,
            pipelined_exchange_rank(3, 2),
        ),
        scenario("tree_reduce(P=6, root=2)", true, 6, tree_reduce_rank(2)),
        scenario(
            "tree_broadcast(P=5, root=1)",
            true,
            5,
            tree_broadcast_rank(1),
        ),
        scenario("tree_allreduce(P=6)", true, 6, tree_allreduce_rank),
        scenario("ring_allreduce(P=3)", true, 3, ring_allreduce_rank),
        scenario("sync_easgd_exchange(G=5)", true, 6, sync_exchange_rank(5)),
        scenario(
            "sync_easgd_pipelined_exchange(G=3, S=3)",
            true,
            4,
            pipelined_exchange_rank(3, 3),
        ),
        Scenario {
            name: "fcfs_server(W=3, E=2)",
            expect_pass: true,
            check: Box::new(|| check(4, fcfs_server_rank(3, 2), fcfs_served_everyone(2))),
        },
    ];
    let negative = |name, p, body: fn(&mut Comm)| scenario(name, false, p, body);
    suite.extend([
        negative("negative: cyclic send/recv pair", 2, negative_cyclic_pair),
        negative(
            "negative: recv_any starvation",
            3,
            negative_recv_any_starvation,
        ),
        negative("negative: leaking reduce root", 4, negative_leaky_reduce),
        negative(
            "negative: payload forwarded, never released",
            4,
            negative_unreleased_forward,
        ),
        negative(
            "negative: one rank skips the collective",
            4,
            negative_skipped_collective,
        ),
        negative("negative: lost message", 2, negative_lost_message),
        negative(
            "negative: wait on a never-matched irecv",
            2,
            negative_unmatched_wait,
        ),
    ]);
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn pass(_: &[()]) -> Result<(), String> {
        Ok(())
    }

    fn fails(p: usize, body: impl Fn(&mut Comm) + Send + Sync) -> Violation {
        match check(p, body, pass) {
            Outcome::Fail(v, _) => *v,
            Outcome::Pass(stats) => panic!("no violation in {stats:?}"),
        }
    }

    fn traces(p: usize, body: impl Fn(&mut Comm) + Send + Sync) -> Vec<Vec<TraceOp>> {
        VirtualCluster::explore(&ClusterConfig::new(p), &[], body).traces
    }

    #[test]
    fn two_rank_handshake_passes() {
        let handshake = |comm: &mut Comm| {
            if comm.rank() == 0 {
                comm.send(1, tags::SYNC_DATA, &[1.0], TimeCategory::Other);
            } else {
                comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut Vec::new());
            }
        };
        let stats = Stats {
            executions: 1,
            branch_points: 0,
        };
        assert!(matches!(check(2, handshake, pass), Outcome::Pass(s) if s == stats));
    }

    #[test]
    fn cyclic_pair_deadlocks_immediately() {
        let v = fails(2, negative_cyclic_pair);
        assert!(v.message.contains("event backend deadlock"), "{v}");
        assert!(
            v.message.contains("rank 0 (tag 0x1000000 from rank 1)"),
            "{v}"
        );
        assert!(
            v.message.contains("rank 1 (tag 0x1000000 from rank 0)"),
            "{v}"
        );
        assert!(v.picks.is_empty(), "deadlocked before any branch point");
    }

    #[test]
    fn recv_any_starvation_is_one_pick_away() {
        // Two executions: taking rank 1's message first starves the
        // selective receive, taking rank 2's does not.
        let outcome = check(3, negative_recv_any_starvation, pass);
        let Outcome::Fail(v, stats) = outcome else {
            panic!("starvation must be found");
        };
        assert!(
            v.message.contains("rank 0 (tag 0x1000000 from rank 1)"),
            "{v}"
        );
        assert_eq!(v.picks, [0]);
        assert_eq!(stats.executions, 2);
    }

    #[test]
    fn leak_and_loss_are_reported() {
        let v = fails(4, negative_leaky_reduce);
        assert!(
            v.message
                .contains("rank 0 finished still holding 1 pooled buffer(s)"),
            "{v}"
        );
        let v = fails(2, negative_lost_message);
        assert!(
            v.message
                .contains("rank 1 exited with 1 unreceived message(s): tag 0x2000000 from rank 0"),
            "{v}"
        );
    }

    #[test]
    fn buffers_the_pool_never_lent_are_caught() {
        // A send of a plain Vec, and a recycle of one.
        let v = fails(2, |comm: &mut Comm| {
            if comm.rank() == 0 {
                comm.send_from(1, tags::SYNC_DATA, vec![1.0], TimeCategory::Other);
            } else {
                comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut Vec::new());
            }
        });
        assert!(v.message.contains("without a held pool buffer"), "{v}");
        let v = fails(1, |comm: &mut Comm| comm.recycle_buffer(vec![0.0; 4]));
        assert!(v.message.contains("holding no buffer"), "{v}");
    }

    #[test]
    fn shared_payload_is_one_obligation_released_last() {
        // Rank 0 shares one buffer with both peers; whichever release
        // comes last discharges it.
        let fan_out = |extra_release: bool| {
            move |comm: &mut Comm| {
                let (t, cat) = (tags::SYNC_DATA, TimeCategory::Other);
                if comm.rank() == 0 {
                    let payload = comm.make_payload(&[1.0; 4]);
                    comm.send_payload_costed(1, t, &payload, 0.0, cat);
                    comm.send_payload_costed(2, t, &payload, 0.0, cat);
                    comm.release_payload(payload);
                } else {
                    let payload = comm.recv_payload(0, t, cat);
                    if extra_release && comm.rank() == 2 {
                        comm.release_payload(payload.clone());
                    }
                    comm.release_payload(payload);
                }
            }
        };
        assert!(matches!(check(3, fan_out(false), pass), Outcome::Pass(_)));
        // A second release of the same reference.
        let v = fails(3, fan_out(true));
        assert!(v.message.contains("holding no payload reference"), "{v}");
    }

    #[test]
    fn unreleased_forward_is_a_pool_leak() {
        let v = fails(4, negative_unreleased_forward);
        assert!(v.message.contains("never returns to the pool"), "{v}");
    }

    #[test]
    fn skipped_collective_sends_to_an_exited_rank() {
        let v = fails(4, negative_skipped_collective);
        let reduce = tags::TREE_REDUCE | 1;
        let want = format!("rank 3 sent tag {reduce:#x} to rank 2, which has already exited");
        assert!(v.message.contains(&want), "{v}");
    }

    #[test]
    fn unmatched_wait_is_a_minimal_deadlock() {
        let v = fails(2, negative_unmatched_wait);
        assert!(v.message.contains("event backend deadlock"), "{v}");
        assert!(
            v.message.contains("rank 0 (tag 0x44000001 from rank 1)"),
            "{v}"
        );
        assert!(v.picks.is_empty());
    }

    #[test]
    fn dangling_irecv_is_a_lost_completion() {
        // Rank 0 posts an irecv and forgets the request instead of
        // waiting on it (dropping it would trip the debug check first).
        let t = tags::seg_tree(1, tags::SEG_PHASE_REDUCE, 2);
        let v = fails(2, move |comm: &mut Comm| {
            if comm.rank() == 0 {
                let req = comm.irecv_into(1, t, TimeCategory::Other, Vec::new());
                std::mem::forget(req);
            }
        });
        let want = format!("rank 0 finished with 1 outstanding irecv(from=1, tag={t:#x})");
        assert!(v.message.contains(&want), "{v}");
        assert!(v.message.contains("lost completion"), "{v}");
    }

    #[test]
    fn pipelined_trace_uses_the_nonblocking_vocabulary() {
        let a = traces(4, pipelined_exchange_rank(3, 2));
        assert_eq!(a, traces(4, pipelined_exchange_rank(3, 2)));
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
    fn the_suite_passes_its_scenarios_and_catches_its_negatives() {
        // Each negative at its minimal counterexample, in picks.
        let mut minimal = Vec::new();
        for sc in suite() {
            match (sc.expect_pass, sc.check()) {
                (true, Outcome::Pass(_)) => {}
                (false, Outcome::Fail(v, _)) => minimal.push(v.picks.len()),
                (true, Outcome::Fail(v, _)) => panic!("{} failed: {v}", sc.name),
                (false, Outcome::Pass(_)) => panic!("{} unexpectedly passed", sc.name),
            }
        }
        assert_eq!(minimal, [0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn every_wildcard_free_scenario_is_one_execution() {
        let one = Stats {
            executions: 1,
            branch_points: 0,
        };
        for sc in suite() {
            let stats = *sc.check().stats();
            let wildcard = sc.name.starts_with("fcfs") || sc.name.contains("recv_any");
            assert_eq!(stats == one, !wildcard, "{}: {stats:?}", sc.name);
        }
    }

    #[test]
    fn fcfs_three_workers_two_exchanges_explores_every_order_once() {
        // All 6! / (2!·2!·2!) = 90 orders of three workers' two exchanges,
        // enumerated as the locked server's replay test does.
        let want: Vec<Vec<u16>> = (0..729u32)
            .map(|code| (0..6).map(|d| (code / 3u32.pow(d) % 3) as u16).collect())
            .filter(|o: &Vec<u16>| (0..3).all(|w| o.iter().filter(|&&x| x == w).count() == 2))
            .collect();
        assert_eq!(want.len(), 90);
        let seen = RefCell::new(Vec::new());
        let served = fcfs_served_everyone(2);
        let outcome = check(4, fcfs_server_rank(3, 2), |results: &[FcfsRank]| {
            served(results)?;
            if let Some(Some((order, _))) = results.first() {
                seen.borrow_mut().push(order.clone());
            }
            Ok(())
        });
        assert!(
            matches!(outcome, Outcome::Pass(s) if s.executions == 90),
            "{outcome:?}"
        );
        let mut seen = seen.into_inner();
        seen.sort();
        let mut want = want;
        want.sort();
        assert_eq!(seen, want, "each order exactly once");
    }

    #[test]
    fn recorded_traces_are_deterministic_and_balanced() {
        let a = traces(4, sync_exchange_rank(3));
        assert_eq!(a, traces(4, sync_exchange_rank(3)));
        let count = |pred: fn(&TraceOp) -> bool| a.iter().flatten().filter(|op| pred(op)).count();
        let sends = count(|op| matches!(op, TraceOp::Send { .. }));
        let recvs = count(|op| matches!(op, TraceOp::Recv { .. } | TraceOp::RecvAny { .. }));
        assert_eq!(sends, recvs, "every send needs a receive");
        assert!(ledger(&a).is_ok());
    }

    #[test]
    fn ring_allreduce_verifies() {
        assert!(matches!(
            check(3, ring_allreduce_rank, pass),
            Outcome::Pass(_)
        ));
    }
}
