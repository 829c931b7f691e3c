//! Backend parity suite: every trainer must produce **bit-identical**
//! results and simulated times whether its virtual cluster is hosted on
//! OS threads or on the discrete-event engine.
//!
//! Each case runs twice — once on the default thread backend and once
//! under `ClusterBackend::Events.with_default(..)` (the scoped override
//! that reaches trainers building their `ClusterConfig`s internally) —
//! and every observable `RunResult` field except wall-clock seconds is
//! compared at the bit level. Together with `tests/golden_traces.rs`
//! (which pins the thread backend against checked-in digests) this
//! proves the event backend reproduces the golden digests too.
//!
//! The wall-clock trainer family never touches the virtual cluster, but
//! is included at `workers = 1` (its only deterministic configuration)
//! as evidence that *every* `MethodId` runs unmodified with the event
//! backend installed as the default.

use knl_easgd::algorithms as alg;
use knl_easgd::prelude::*;

use alg::{
    async_server_sim, hierarchical_sync_easgd, run_method, AsyncVariant, GpuClusterTopology,
    MethodId, OriginalMode, RunResult,
};
use easgd_nn::LayoutKind;

/// The same fixed tiny task as the golden suite.
fn task() -> (Network, Dataset, Dataset) {
    let t = SyntheticSpec::mnist_small().task(7);
    let (train, test) = t.train_test(240, 80, 11);
    (lenet_tiny(23), train, test)
}

fn cfg(workers: usize, iterations: usize) -> TrainConfig {
    TrainConfig {
        workers,
        batch: 16,
        eta: 0.02,
        rho: 0.9 / (0.02 * workers as f32),
        mu: 0.9,
        iterations,
        seed: 0x90_1d_e2,
        comm_period: 1,
    }
}

/// Asserts bitwise equality of every reproducible `RunResult` field
/// (everything but `wall_seconds`, which measures real time).
fn assert_bit_identical(name: &str, threads: &RunResult, events: &RunResult) {
    assert_eq!(threads.method, events.method, "{name}: method");
    assert_eq!(threads.iterations, events.iterations, "{name}: iterations");
    assert_eq!(
        threads.accuracy.to_bits(),
        events.accuracy.to_bits(),
        "{name}: accuracy {} vs {}",
        threads.accuracy,
        events.accuracy
    );
    assert_eq!(
        threads.final_loss.to_bits(),
        events.final_loss.to_bits(),
        "{name}: final_loss {} vs {}",
        threads.final_loss,
        events.final_loss
    );
    assert_eq!(
        threads.sim_seconds.map(f64::to_bits),
        events.sim_seconds.map(f64::to_bits),
        "{name}: sim_seconds {:?} vs {:?}",
        threads.sim_seconds,
        events.sim_seconds
    );
    match (&threads.breakdown, &events.breakdown) {
        (None, None) => {}
        (Some(tb), Some(eb)) => {
            for cat in TimeCategory::ALL {
                assert_eq!(
                    tb.get(cat).to_bits(),
                    eb.get(cat).to_bits(),
                    "{name}: breakdown[{cat:?}] {} vs {}",
                    tb.get(cat),
                    eb.get(cat)
                );
            }
        }
        (t, e) => panic!("{name}: breakdown presence differs: {t:?} vs {e:?}"),
    }
    assert_eq!(threads.trace.len(), events.trace.len(), "{name}: trace len");
    for (i, (tp, ep)) in threads.trace.iter().zip(&events.trace).enumerate() {
        assert_eq!(tp.iteration, ep.iteration, "{name}: trace[{i}].iteration");
        assert_eq!(
            tp.accuracy.to_bits(),
            ep.accuracy.to_bits(),
            "{name}: trace[{i}].accuracy"
        );
        if threads.sim_seconds.is_some() {
            assert_eq!(
                tp.seconds.to_bits(),
                ep.seconds.to_bits(),
                "{name}: trace[{i}].seconds {} vs {}",
                tp.seconds,
                ep.seconds
            );
        }
    }
    assert_eq!(
        threads.loss_trace.len(),
        events.loss_trace.len(),
        "{name}: loss_trace len"
    );
    for (i, (a, b)) in threads
        .loss_trace
        .iter()
        .zip(&events.loss_trace)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{name}: loss_trace[{i}]");
    }
    assert_eq!(
        threads.center_hash, events.center_hash,
        "{name}: center params hash"
    );
}

/// Runs `case` on both backends and asserts bit-identical output.
fn parity<F: Fn() -> RunResult>(name: &str, case: F) {
    let threads = case();
    let events = ClusterBackend::Events.with_default(&case);
    assert_bit_identical(name, &threads, &events);
}

#[test]
fn original_easgd_modes_are_backend_identical_at_w4() {
    let (net, train, test) = task();
    let costs = SimCosts::mnist_lenet_4gpu();
    for (name, mode) in [
        ("original_serialized_w4", OriginalMode::Serialized),
        ("original_pipelined_w4", OriginalMode::Pipelined),
    ] {
        parity(name, || {
            alg::original_easgd_sim(&net, &train, &test, &cfg(4, 10), &costs, mode)
        });
    }
}

#[test]
fn sync_easgd_variants_are_backend_identical_at_w4_and_w8() {
    let (net, train, test) = task();
    let costs = SimCosts::mnist_lenet_4gpu();
    for (name, v) in [
        ("sync_easgd1_w4", SyncVariant::Easgd1),
        ("sync_easgd2_w4", SyncVariant::Easgd2),
        ("sync_easgd3_w4", SyncVariant::Easgd3),
    ] {
        parity(name, || {
            alg::sync_easgd_sim(&net, &train, &test, &cfg(4, 12), &costs, v, 5)
        });
    }
    // One case at the P=8 acceptance point.
    parity("sync_easgd1_w8", || {
        alg::sync_easgd_sim(
            &net,
            &train,
            &test,
            &cfg(8, 8),
            &costs,
            SyncVariant::Easgd1,
            5,
        )
    });
}

#[test]
fn sync_sgd_layouts_are_backend_identical_at_w2() {
    let (net, train, test) = task();
    let c = cfg(2, 8);
    let shards = train.partition(2);
    let link = AlphaBeta::pcie_gen3_x16();
    for (name, layout) in [
        ("sync_sgd_packed_w2", LayoutKind::Packed),
        ("sync_sgd_perlayer_w2", LayoutKind::PerLayer),
    ] {
        parity(name, || {
            alg::sync_sgd_sim(&net, &shards, &test, &c, &link, layout, 1.5e-3, 10)
        });
    }
}

#[test]
fn async_server_at_w4_is_deterministic_on_the_event_backend() {
    // The FCFS server takes its order from the event engine, whose
    // schedule is a pure function of the config, whatever the default
    // backend: two w=4 FCFS runs must agree bit-for-bit.
    let (net, train, test) = task();
    let costs = SimCosts::mnist_lenet_4gpu();
    for v in [AsyncVariant::Easgd, AsyncVariant::Measgd] {
        let run = || async_server_sim(&net, &train, &test, &cfg(4, 12), &costs, v);
        let a = run();
        let b = run();
        assert_bit_identical(&format!("async_{v:?}_w4_events_rerun"), &a, &b);
    }
}

#[test]
fn hierarchical_topology_is_backend_identical() {
    let (net, train, test) = task();
    let topo = GpuClusterTopology {
        nodes: 2,
        gpus_per_node: 2,
        intra: AlphaBeta::pcie_gen3_x16(),
        inter: AlphaBeta::fdr_infiniband(),
    };
    parity("hierarchical_2x2", || {
        hierarchical_sync_easgd(&net, &train, &test, &cfg(4, 10), &topo)
    });
}

#[test]
fn every_method_id_runs_with_the_event_backend_installed() {
    // The wall-clock family doesn't route through VirtualCluster, but
    // every MethodId must run unmodified (and, at its deterministic
    // w=1 config, identically) with the event backend as the default.
    let (net, train, test) = task();
    for m in MethodId::ALL {
        parity(m.slug(), || run_method(m, &net, &train, &test, &cfg(1, 12)));
    }
}
