//! Model-checks the comm layer via the xtask protocol checker: per-rank
//! programs recorded from the *production* collectives and the Sync
//! EASGD exchange (serial and nonblocking-pipelined) are exhaustively
//! interleaved, and every terminal state is checked for deadlock,
//! message loss, pool leaks, FIFO delivery, and lost completions.
//!
//! The negative controls keep the harness honest: deliberately broken
//! protocols must produce a violation with a minimal counterexample
//! schedule.

use easgd_xtask::protocol::{
    check, negative_cyclic_pair, negative_leaky_reduce, negative_lost_message,
    negative_recv_any_starvation, negative_unmatched_wait, negative_unreleased_forward,
    shortest_violation, suite, trace_pipelined_exchange, trace_sync_exchange, trace_tree_allreduce,
    trace_tree_broadcast, trace_tree_reduce, Outcome, NAIVE_CAP, REDUCED_CAP,
};
use knl_easgd::cluster::TraceOp;

// --- Production scenarios: exhaustively verified -------------------------

#[test]
fn production_collectives_and_exchange_verify_at_p4() {
    for sc in suite(true) {
        let outcome = check(&sc.programs, true, Some(REDUCED_CAP));
        assert!(
            !outcome.stats().truncated,
            "{}: exploration truncated — not exhaustive",
            sc.name
        );
        match (sc.expect_pass, &outcome) {
            (true, Outcome::Pass(_)) | (false, Outcome::Fail(..)) => {}
            (true, Outcome::Fail(v, _)) => panic!("{}: {v}", sc.name),
            (false, Outcome::Pass(s)) => {
                panic!("{}: broken protocol passed ({s:?})", sc.name)
            }
        }
    }
}

#[test]
fn exchange_has_a_nontrivial_schedule_space() {
    // The reduced search may collapse to few representatives; the naive
    // count certifies the schedule space the reduction stands in for.
    let programs = trace_sync_exchange(3);
    let naive = check(&programs, false, Some(NAIVE_CAP));
    assert!(
        matches!(naive, Outcome::Pass(_)),
        "naive search must agree: {:?}",
        naive.stats()
    );
    assert!(
        naive.stats().executions > 100 || naive.stats().truncated,
        "expected a non-trivial schedule space, got {:?}",
        naive.stats()
    );
}

#[test]
fn reduction_preserves_the_verdict_and_prunes_work() {
    for programs in [trace_tree_reduce(4, 0), trace_tree_allreduce(4)] {
        let naive = check(&programs, false, None);
        let reduced = check(&programs, true, None);
        assert!(matches!(naive, Outcome::Pass(_)));
        assert!(matches!(reduced, Outcome::Pass(_)));
        assert!(
            reduced.stats().executions <= naive.stats().executions,
            "reduction explored more than naive: {:?} vs {:?}",
            reduced.stats(),
            naive.stats()
        );
        assert!(reduced.stats().slept > 0, "no pruning happened");
    }
}

#[test]
fn recorded_programs_are_deterministic_and_send_recv_balanced() {
    let a = trace_sync_exchange(3);
    assert_eq!(
        a,
        trace_sync_exchange(3),
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
    let programs = trace_tree_broadcast(4, 0);
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
    let programs = negative_cyclic_pair();
    let Outcome::Fail(v, _) = check(&programs, true, None) else {
        panic!("cyclic send/recv pair must deadlock");
    };
    assert!(v.message.contains("deadlock"), "{v}");
    assert!(v.message.contains("wait-for cycle"), "{v}");
    let minimal = shortest_violation(&programs, 10_000).expect("minimal counterexample");
    assert!(
        minimal.schedule.is_empty(),
        "deadlocked before any visible step"
    );
}

#[test]
fn schedule_dependent_starvation_is_found_even_under_reduction() {
    let programs = negative_recv_any_starvation();
    for reduce in [false, true] {
        let Outcome::Fail(v, _) = check(&programs, reduce, None) else {
            panic!("starvation must be found (reduce={reduce})");
        };
        assert!(v.message.contains("deadlock"), "{v}");
    }
    let minimal = shortest_violation(&programs, 100_000).expect("minimal counterexample");
    assert_eq!(minimal.schedule.len(), 3, "schedule {:?}", minimal.schedule);
}

#[test]
fn pool_leak_in_a_production_trace_is_caught() {
    let Outcome::Fail(v, _) = check(&negative_leaky_reduce(), true, None) else {
        panic!("leaking reduce must fail");
    };
    assert!(v.message.contains("holding"), "{v}");
    assert!(
        shortest_violation(&negative_leaky_reduce(), 100_000).is_some(),
        "leak needs a counterexample schedule"
    );
}

#[test]
fn forwarded_but_unreleased_payload_is_a_pool_leak() {
    // Rank 2 forwards the shared payload to rank 3 and keeps its own
    // reference forever: all three other holders release, so only the
    // last-release rule can notice the buffer never comes back.
    let programs = negative_unreleased_forward();
    for reduce in [false, true] {
        let Outcome::Fail(v, _) = check(&programs, reduce, None) else {
            panic!("unreleased payload must fail (reduce={reduce})");
        };
        assert!(
            v.message
                .contains("rank 2 finished still holding 1 shared payload reference"),
            "{v}"
        );
        assert!(v.message.contains("never returns to the pool"), "{v}");
    }
    // Minimal counterexample: the leak is only visible in a terminal
    // state, so the shortest schedule is exactly the three sends and
    // three receives of the broadcast — nothing shorter reaches it.
    let minimal = shortest_violation(&programs, 100_000).expect("minimal counterexample");
    assert_eq!(minimal.schedule.len(), 6, "schedule {:?}", minimal.schedule);
    assert!(minimal.message.contains("shared payload reference"));
}

#[test]
fn undelivered_message_is_caught() {
    let Outcome::Fail(v, _) = check(&negative_lost_message(), true, None) else {
        panic!("lost message must fail");
    };
    assert!(v.message.contains("never received"), "{v}");
}

#[test]
fn pipelined_exchange_records_nonblocking_ops_and_verifies() {
    let programs = trace_pipelined_exchange(3, 2);
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
    let outcome = check(&programs, true, Some(REDUCED_CAP));
    assert!(!outcome.stats().truncated, "not exhaustive");
    assert!(matches!(outcome, Outcome::Pass(_)), "{:?}", outcome.stats());
}

#[test]
fn unmatched_wait_deadlocks_with_empty_minimal_schedule() {
    let programs = negative_unmatched_wait();
    let Outcome::Fail(v, _) = check(&programs, true, None) else {
        panic!("unmatched wait must deadlock");
    };
    assert!(v.message.contains("deadlock"), "{v}");
    assert!(v.message.contains("wait(irecv"), "{v}");
    let minimal = shortest_violation(&programs, 10_000).expect("minimal counterexample");
    assert!(
        minimal.schedule.is_empty(),
        "wait deadlocks before any visible step"
    );
}

#[test]
fn checker_is_deterministic() {
    let programs = trace_tree_allreduce(4);
    let a = check(&programs, true, None);
    let b = check(&programs, true, None);
    assert_eq!(
        a.stats(),
        b.stats(),
        "same programs must explore identically"
    );
}
