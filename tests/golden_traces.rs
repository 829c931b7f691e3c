//! Golden-trace determinism suite.
//!
//! Every trainer is run on a fixed-seed tiny task and reduced to an
//! FNV-1a digest over its *observable* outputs: the loss trace, the
//! final center hash, accuracy, simulated time, and the per-category
//! `TimeBreakdown`. The digests are checked into
//! `tests/golden/digests.txt`; a mismatch means a change altered
//! numerical behavior for a fixed seed.
//!
//! The file has three digest columns per method:
//!
//! * `base` — fields that existed before the engine refactor (accuracy,
//!   final loss, sim seconds, breakdown, accuracy trace). These were
//!   recorded from the pre-engine trainers, so they prove the port is
//!   behavior-preserving bit-for-bit.
//! * `full` — `base` plus the engine-era observables (per-step loss
//!   trace and final-center hash). These lock the ported trainers
//!   against future regressions.
//! * `time` — simulated time alone: sim seconds, the breakdown and the
//!   trace timestamps. A change that moves only floats (a GEMM's
//!   rounding, a fold order) re-records `base` and `full` and must leave
//!   this column as it was; one that moves it changed what the
//!   simulated cluster charges.
//!
//! Wall-clock trainers are digested at `workers = 1`, where thread
//! scheduling cannot reorder float ops, and the locked server also at
//! `workers = 4` under a given lock order: its run is a function of the
//! order. The simulated-clock trainers are deterministic at any rank
//! count and are digested at multiple workers — the FCFS server takes
//! its order from the event backend, where the order requests reach the
//! master is a pure function of the seed. Wall-clock *seconds* are
//! never digested.
//!
//! To regenerate after an intentional numerical change:
//! `GOLDEN_RECORD=1 cargo test --test golden_traces` and commit the
//! rewritten digest file.
//!
//! Caveat: digests assume one build environment (same libm, same
//! target features). They are regenerated, not hand-edited. Every FMA
//! build — AVX-512, AVX2+FMA, the scalar fallback with `mul_add` in
//! hardware — gives the same bits; a build without FMA rounds `mul` and
//! `add` separately (DESIGN.md §8.3) and does not match them.

use knl_easgd::algorithms as alg;
use knl_easgd::prelude::*;

use alg::{
    async_server_sim, hierarchical_sync_easgd, knl_partition_run, locked_server, run_method,
    serial_sgd, AsyncVariant, GpuClusterTopology, LockOrder, LrSchedule, MethodId, OriginalMode,
    RunResult, SerialConfig, SyncExchange,
};
use easgd_nn::LayoutKind;
use knl_easgd::tensor::par;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher — stable across platforms and runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f32_bits(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
    fn f64_bits(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Hashes a run's simulated seconds, if it has any.
fn hash_sim_seconds(h: &mut Fnv, r: &RunResult) {
    match r.sim_seconds {
        Some(s) => {
            h.u64(1);
            h.f64_bits(s);
        }
        None => h.u64(0),
    }
}

/// Hashes a run's per-category time breakdown, if it has one.
fn hash_breakdown(h: &mut Fnv, r: &RunResult) {
    match &r.breakdown {
        Some(b) => {
            h.u64(1);
            for cat in TimeCategory::ALL {
                h.f64_bits(b.get(cat));
            }
        }
        None => h.u64(0),
    }
}

/// Digest of the pre-engine observables of a run (everything except
/// wall-clock time, which is real time and never reproducible).
fn base_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.method.as_bytes());
    h.u64(r.iterations as u64);
    h.f32_bits(r.accuracy);
    h.f32_bits(r.final_loss);
    hash_sim_seconds(&mut h, r);
    hash_breakdown(&mut h, r);
    h.u64(r.trace.len() as u64);
    for p in &r.trace {
        h.u64(p.iteration as u64);
        h.f32_bits(p.accuracy);
        // Trace timestamps are digestible only on the simulated clock.
        if r.sim_seconds.is_some() {
            h.f64_bits(p.seconds);
        }
    }
    h.0
}

/// Digest of a run's simulated time alone: what [`base_digest`] hashes
/// of the clock, none of the floats a model computes.
fn time_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    hash_sim_seconds(&mut h, r);
    hash_breakdown(&mut h, r);
    if r.sim_seconds.is_some() {
        for p in &r.trace {
            h.f64_bits(p.seconds);
        }
    }
    h.0
}

/// Digest of the engine-era observables: the per-step loss trace and
/// the hash of the final center parameters.
fn engine_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.loss_trace.len() as u64);
    for &l in &r.loss_trace {
        h.f32_bits(l);
    }
    h.u64(r.center_hash);
    h.0
}

fn full_digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(base_digest(r));
    h.u64(engine_digest(r));
    h.0
}

/// The fixed tiny task every golden run trains on.
fn task() -> (Network, Dataset, Dataset) {
    let t = SyntheticSpec::mnist_small().task(7);
    let (train, test) = t.train_test(240, 80, 11);
    (lenet_tiny(23), train, test)
}

/// Fixed-seed config: small batch to keep the suite fast, η low enough
/// that every method (including the µ = 0.9 momentum family) stays
/// finite over the budget.
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

/// Runs every golden case, returning `name -> RunResult` in a stable
/// order.
fn run_all() -> BTreeMap<String, RunResult> {
    let (net, train, test) = task();
    let costs = SimCosts::mnist_lenet_4gpu();
    let mut out = BTreeMap::new();
    let mut put = |name: &str, r: RunResult| {
        assert!(
            out.insert(name.to_string(), r).is_none(),
            "duplicate golden case {name}"
        );
    };

    // Wall-clock family: single worker is the one deterministic config.
    for m in MethodId::ALL {
        let name = format!("wall_{}_w1", m.slug());
        put(&name, run_method(m, &net, &train, &test, &cfg(1, 30)));
    }
    // The locked server at P > 1 is a function of its lock order: Original
    // EASGD's round-robin turn as is, and the FCFS four replaying a seeded
    // uniform interleaving of their exchanges.
    let c = cfg(4, 12);
    put(
        "wall_original_w4",
        run_method(MethodId::OriginalEasgd, &net, &train, &test, &c),
    );
    let mut order: Vec<u16> = (0..c.workers * c.iterations)
        .map(|t| (t % c.workers) as u16)
        .collect();
    Rng::new(0x4de2).shuffle(&mut order);
    for (m, v) in [
        (MethodId::AsyncSgd, AsyncVariant::Sgd),
        (MethodId::AsyncMsgd, AsyncVariant::Msgd),
        (MethodId::AsyncEasgd, AsyncVariant::Easgd),
        (MethodId::AsyncMeasgd, AsyncVariant::Measgd),
    ] {
        let given = LockOrder::Given(&order);
        let (r, ran) = locked_server(m.name(), v, given, &net, &train, &test, &c);
        assert_eq!(ran, order, "{m} ran another order than it was given");
        put(&format!("wall_{}_w4", m.slug()), r);
    }

    // Simulated cluster family: deterministic at any rank count.
    for (suffix, mode) in [
        ("serialized", OriginalMode::Serialized),
        ("pipelined", OriginalMode::Pipelined),
    ] {
        let r = alg::original_easgd_sim(&net, &train, &test, &cfg(4, 15), &costs, mode);
        put(&format!("sim_original_{suffix}_w4"), r);
    }
    for (suffix, v) in [
        ("easgd1", SyncVariant::Easgd1),
        ("easgd2", SyncVariant::Easgd2),
        ("easgd3", SyncVariant::Easgd3),
    ] {
        let r = alg::sync_easgd_sim(&net, &train, &test, &cfg(4, 20), &costs, v, 5);
        put(&format!("sim_sync_{suffix}_w4"), r);
    }
    // The executable and pipelined trees: message-by-message α-β time
    // and a pairwise fold order, so the digests pin the collectives'
    // bits — odd participant counts and the CPU-rooted EASGD1 included.
    for (vname, v) in [
        ("easgd1", SyncVariant::Easgd1),
        ("easgd2", SyncVariant::Easgd2),
        ("easgd3", SyncVariant::Easgd3),
    ] {
        for p in [2usize, 3, 4, 5, 8] {
            for (xname, exchange) in [
                ("exectree", SyncExchange::ExecutableTree),
                ("pipetree5", SyncExchange::PipelinedTree { segments: 5 }),
            ] {
                let r = alg::sync_easgd_sim_with(
                    &net,
                    &train,
                    &test,
                    &cfg(p, 12),
                    &costs,
                    v,
                    4,
                    exchange,
                );
                put(&format!("sim_sync_{vname}_{xname}_w{p}"), r);
            }
        }
    }
    // Sync SGD's tree allreduce: at w2 one fold, at w4 the pairwise
    // (d0 + d1) + (d2 + d3).
    for p in [2usize, 4] {
        let c = cfg(p, 20);
        let shards = train.partition(p);
        let link = AlphaBeta::pcie_gen3_x16();
        for (suffix, layout) in [
            ("packed", LayoutKind::Packed),
            ("perlayer", LayoutKind::PerLayer),
        ] {
            let r = alg::sync_sgd_sim(&net, &shards, &test, &c, &link, layout, 1.5e-3, 10);
            put(&format!("sim_sync_sgd_{suffix}_w{p}"), r);
        }
    }
    // FCFS server. Its order comes from the event backend, where the
    // order in which requests reach the master is a pure function of the
    // seed, so every P is pinned.
    for (suffix, v) in [
        ("sgd", AsyncVariant::Sgd),
        ("msgd", AsyncVariant::Msgd),
        ("easgd", AsyncVariant::Easgd),
        ("measgd", AsyncVariant::Measgd),
    ] {
        let r = async_server_sim(&net, &train, &test, &cfg(1, 30), &costs, v);
        put(&format!("sim_async_{suffix}_w1"), r);
        for p in [2usize, 4, 8] {
            let r = async_server_sim(&net, &train, &test, &cfg(p, 12), &costs, v);
            put(&format!("sim_async_{suffix}_w{p}"), r);
        }
    }
    {
        let topo = GpuClusterTopology {
            nodes: 2,
            gpus_per_node: 2,
            intra: AlphaBeta::pcie_gen3_x16(),
            inter: AlphaBeta::fdr_infiniband(),
        };
        let r = hierarchical_sync_easgd(&net, &train, &test, &cfg(4, 15), &topo);
        put("sim_hierarchical_2x2", r);
    }
    {
        let scfg = SerialConfig {
            batch: 16,
            schedule: LrSchedule::Step {
                base: 0.05,
                gamma: 0.5,
                every: 20,
            },
            mu: 0.9,
            weight_decay: 1e-4,
            iterations: 40,
            seed: 0x90_1d_e2,
            trace_every: 10,
        };
        put("serial_sgd_step", serial_sgd(&net, &train, &test, &scfg));
    }
    out
}

/// The KNL partition study returns its own outcome type; digest it
/// directly.
fn knl_digest() -> u64 {
    let (net, train, test) = task();
    let chip = KnlChip::cori_node();
    let outcome = knl_partition_run(&net, &train, &test, &cfg(4, 12), &chip, 0.8, 0.95, 4);
    let mut h = Fnv::new();
    h.u64(outcome.partitions as u64);
    h.u64(u64::from(outcome.fits_fast_memory));
    h.f64_bits(outcome.memory_penalty);
    h.f64_bits(outcome.round_seconds);
    match outcome.seconds_to_target {
        Some(s) => {
            h.u64(1);
            h.f64_bits(s);
        }
        None => h.u64(0),
    }
    h.f32_bits(outcome.final_accuracy);
    h.u64(outcome.rounds_run as u64);
    h.0
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("digests.txt")
}

/// A row's digests: `base`, then `full` and `time` where recorded.
type Digests = (u64, Option<u64>, Option<u64>);

fn parse_goldens(text: &str) -> BTreeMap<String, Digests> {
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16);
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("golden line missing name");
        let base = parts
            .next()
            .and_then(|s| hex(s).ok())
            .unwrap_or_else(|| panic!("bad base digest on line: {line}"));
        let full = parts.next().map(|s| hex(s).expect("bad full digest"));
        let time = parts.next().map(|s| hex(s).expect("bad time digest"));
        map.insert(name.to_string(), (base, full, time));
    }
    map
}

/// Every golden case's digests, run on the calling thread's budget.
fn actual_digests() -> BTreeMap<String, Digests> {
    let mut actual: BTreeMap<String, Digests> = run_all()
        .iter()
        .map(|(k, r)| {
            let digests = (base_digest(r), Some(full_digest(r)), Some(time_digest(r)));
            (k.clone(), digests)
        })
        .collect();
    actual.insert("knl_partition_w4".to_string(), (knl_digest(), None, None));
    actual
}

fn checked_in_digests() -> BTreeMap<String, Digests> {
    let text = std::fs::read_to_string(digest_path())
        .expect("tests/golden/digests.txt missing — run with GOLDEN_RECORD=1 to create");
    parse_goldens(&text)
}

/// One line per digest of `actual` that differs from `expected`, and per
/// case either side lacks.
fn mismatches(
    actual: &BTreeMap<String, Digests>,
    expected: &BTreeMap<String, Digests>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, &(base, full, time)) in expected {
        let Some(&(ab, af, at)) = actual.get(name) else {
            failures.push(format!("{name}: golden present but case no longer runs"));
            continue;
        };
        if ab != base {
            failures.push(format!("{name}: base digest 0x{ab:016x} != 0x{base:016x}"));
        }
        for (column, want, got) in [("full", full, af), ("time", time, at)] {
            if let (Some(want), Some(got)) = (want, got) {
                if want != got {
                    failures.push(format!(
                        "{name}: {column} digest 0x{got:016x} != 0x{want:016x}"
                    ));
                }
            }
        }
    }
    for name in actual.keys() {
        if !expected.contains_key(name) {
            failures.push(format!(
                "{name}: no golden recorded (GOLDEN_RECORD=1 to add)"
            ));
        }
    }
    failures
}

#[test]
fn golden_digests_match() {
    let actual = actual_digests();
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        // The header survives a re-record: it is where the reason for
        // each one is written down.
        let mut text: String = match std::fs::read_to_string(digest_path()) {
            Ok(old) => old
                .lines()
                .take_while(|l| l.starts_with('#'))
                .flat_map(|l| [l, "\n"])
                .collect(),
            Err(_) => String::from(
                "# Golden fixed-seed digests — regenerate with\n\
                 # GOLDEN_RECORD=1 cargo test --test golden_traces\n\
                 # name base_digest full_digest time_digest\n",
            ),
        };
        for (name, digests) in &actual {
            match digests {
                (base, Some(f), Some(t)) => {
                    writeln!(text, "{name} 0x{base:016x} 0x{f:016x} 0x{t:016x}").unwrap()
                }
                (base, ..) => writeln!(text, "{name} 0x{base:016x}").unwrap(),
            }
        }
        std::fs::write(digest_path(), text).expect("write golden digests");
        return;
    }
    let failures = mismatches(&actual, &checked_in_digests());
    assert!(
        failures.is_empty(),
        "golden digest mismatches:\n  {}",
        failures.join("\n  ")
    );
}

/// The checked-in digests hold whatever the thread budget: every GEMM
/// output keeps its float chain however the product is cut into bands,
/// and every trainer's results are a function of its seed alone.
#[test]
fn golden_digests_hold_under_every_thread_budget() {
    let expected = checked_in_digests();
    for budget in [1, 2, 3, 8] {
        let actual = par::with_budget(budget, actual_digests);
        let failures = mismatches(&actual, &expected);
        assert!(
            failures.is_empty(),
            "golden digest mismatches under a budget of {budget}:\n  {}",
            failures.join("\n  ")
        );
    }
}

/// Every golden case must itself be run-to-run deterministic — if this
/// fails, the digest above is meaningless for that method.
#[test]
fn golden_cases_are_run_to_run_deterministic() {
    let a = run_all();
    let b = run_all();
    assert_eq!(a.len(), b.len());
    for (name, ra) in &a {
        let rb = &b[name];
        assert_eq!(
            full_digest(ra),
            full_digest(rb),
            "{name} is not deterministic run-to-run"
        );
    }
    assert_eq!(knl_digest(), knl_digest(), "knl partition nondeterministic");
}
