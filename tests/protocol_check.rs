//! Checks the comm layer with the xtask protocol checker: the shipped
//! collectives, the Sync EASGD exchange rounds (serial and
//! nonblocking-pipelined) and the FCFS parameter server run on the event
//! backend under every order a `recv_any` can see, and each execution is
//! checked for deadlock, message loss, pool leaks and lost completions.
//!
//! The negative controls keep the harness honest: deliberately broken
//! rank closures must fail, with a counterexample counted in picks.

use easgd_xtask::protocol::{
    check, negative_cyclic_pair, negative_leaky_reduce, negative_lost_message,
    negative_recv_any_starvation, negative_unmatched_wait, negative_unreleased_forward,
    pipelined_exchange_rank, suite, sync_exchange_rank, tree_allreduce_rank, tree_broadcast_rank,
    Outcome, Violation,
};
use knl_easgd::cluster::{ClusterConfig, Comm, TraceOp, VirtualCluster};

fn pass(_: &[()]) -> Result<(), String> {
    Ok(())
}

fn violation(p: usize, body: fn(&mut Comm)) -> Violation {
    match check(p, body, pass) {
        Outcome::Fail(v, _) => *v,
        Outcome::Pass(stats) => panic!("broken protocol passed ({stats:?})"),
    }
}

/// Each rank's recorded ops from one run of `body` on `p` ranks.
fn traces(p: usize, body: impl Fn(&mut Comm) + Send + Sync) -> Vec<Vec<TraceOp>> {
    let run = VirtualCluster::explore(&ClusterConfig::new(p), &[], body);
    assert!(run.outcome.is_ok(), "{:?}", run.outcome);
    run.traces
}

// --- Production scenarios: every execution verified ----------------------

#[test]
fn production_collectives_and_exchange_verify_at_p4() {
    for sc in suite() {
        match (sc.expect_pass, sc.check()) {
            (true, Outcome::Pass(_)) | (false, Outcome::Fail(..)) => {}
            (true, Outcome::Fail(v, _)) => panic!("{}: {v}", sc.name),
            (false, Outcome::Pass(s)) => {
                panic!("{}: broken protocol passed ({s:?})", sc.name)
            }
        }
    }
}

#[test]
fn recorded_programs_are_deterministic_and_send_recv_balanced() {
    let a = traces(4, sync_exchange_rank(3));
    assert_eq!(
        a,
        traces(4, sync_exchange_rank(3)),
        "trace recording must be deterministic"
    );
    let count = |pred: fn(&TraceOp) -> bool| a.iter().flatten().filter(|op| pred(op)).count();
    let sends = count(|op| matches!(op, TraceOp::Send { .. }));
    let recvs = count(|op| matches!(op, TraceOp::Recv { .. } | TraceOp::RecvAny { .. }));
    assert_eq!(
        sends, recvs,
        "unbalanced send/recv in the recorded exchange"
    );
    // Every taken buffer is recycled or became a shared payload (one
    // obligation, discharged by its last release).
    let takes = count(|op| matches!(op, TraceOp::TakeBuf));
    let discharges = count(|op| matches!(op, TraceOp::Recycle | TraceOp::Share));
    assert_eq!(
        takes, discharges,
        "unbalanced pool ledger in the recorded exchange"
    );
    // The centre is broadcast as ONE payload: the root's share, a fork
    // per tree edge, and a release by every participant.
    assert_eq!(count(|op| matches!(op, TraceOp::Share)), 1);
    assert_eq!(count(|op| matches!(op, TraceOp::Fork)), 2);
    assert_eq!(count(|op| matches!(op, TraceOp::Release)), 3);
}

#[test]
fn tree_broadcast_is_one_shared_payload() {
    // P ranks, one pooled copy: the root takes + shares once, every edge
    // is a fork riding a send, every rank releases exactly once.
    let programs = traces(4, tree_broadcast_rank(0));
    let count =
        |pred: fn(&TraceOp) -> bool| programs.iter().flatten().filter(|op| pred(op)).count();
    assert_eq!(count(|op| matches!(op, TraceOp::TakeBuf)), 1);
    assert_eq!(count(|op| matches!(op, TraceOp::Share)), 1);
    assert_eq!(count(|op| matches!(op, TraceOp::Fork)), 3);
    assert_eq!(count(|op| matches!(op, TraceOp::Release)), 4);
    assert_eq!(
        programs[3],
        vec![
            TraceOp::Recv {
                from: 2,
                tag: knl_easgd::cluster::tags::TREE_BCAST | 1
            },
            TraceOp::Release
        ],
        "a leaf receives the reference and releases it"
    );
}

// --- Negative controls: each class of violation is caught ---------------

#[test]
fn cyclic_pair_deadlocks_with_cycle_and_empty_minimal_schedule() {
    // The host's report names both waits: 0 waits for 1, 1 for 0.
    let v = violation(2, negative_cyclic_pair);
    assert!(v.message.contains("deadlock"), "{v}");
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
fn schedule_dependent_starvation_is_found_even_under_reduction() {
    // Branching only at recv_any still reaches the one failing order:
    // the recv_any takes rank 1's message, the first pick.
    let Outcome::Fail(v, stats) = check(3, negative_recv_any_starvation, pass) else {
        panic!("starvation must be found");
    };
    assert!(v.message.contains("deadlock"), "{v}");
    assert_eq!(stats.executions, 2, "one execution per sender");
    assert_eq!(v.picks, [0], "minimal counterexample");
}

#[test]
fn pool_leak_in_a_production_trace_is_caught() {
    let v = violation(4, negative_leaky_reduce);
    assert!(v.message.contains("holding"), "{v}");
    assert!(v.picks.is_empty());
}

#[test]
fn forwarded_but_unreleased_payload_is_a_pool_leak() {
    // Rank 2 forwards the shared payload to rank 3 and keeps its own
    // reference forever: all three other holders release, so only the
    // last-release rule can notice the buffer never comes back.
    let v = violation(4, negative_unreleased_forward);
    assert!(
        v.message
            .contains("rank 2 finished still holding 1 shared payload reference"),
        "{v}"
    );
    assert!(v.message.contains("never returns to the pool"), "{v}");
    assert!(v.picks.is_empty(), "no recv_any, so no pick");
}

#[test]
fn undelivered_message_is_caught() {
    let v = violation(2, negative_lost_message);
    assert!(
        v.message
            .contains("rank 1 exited with 1 unreceived message(s)"),
        "{v}"
    );
}

#[test]
fn pipelined_exchange_records_nonblocking_ops_and_verifies() {
    let programs = traces(4, pipelined_exchange_rank(3, 2));
    let count =
        |pred: fn(&TraceOp) -> bool| programs.iter().flatten().filter(|op| pred(op)).count();
    let irecvs = count(|op| matches!(op, TraceOp::Irecv { .. }));
    let waits = count(|op| matches!(op, TraceOp::Wait { .. }));
    assert!(
        count(|op| matches!(op, TraceOp::Isend { .. })) > 0,
        "pipelined exchange must post isends"
    );
    assert!(irecvs > 0, "pipelined exchange must pre-post irecvs");
    assert_eq!(irecvs, waits, "every irecv must be waited exactly once");
    let outcome = check(4, pipelined_exchange_rank(3, 2), pass);
    assert!(matches!(outcome, Outcome::Pass(_)), "{outcome:?}");
}

#[test]
fn unmatched_wait_deadlocks_with_empty_minimal_schedule() {
    let v = violation(2, negative_unmatched_wait);
    assert!(v.message.contains("deadlock"), "{v}");
    assert!(v.message.contains("from rank 1"), "{v}");
    assert!(v.picks.is_empty(), "wait deadlocks before any branch point");
}

#[test]
fn checker_is_deterministic() {
    let a = check(4, tree_allreduce_rank, pass);
    let b = check(4, tree_allreduce_rank, pass);
    assert_eq!(
        a.stats(),
        b.stats(),
        "same closures must explore identically"
    );
}
