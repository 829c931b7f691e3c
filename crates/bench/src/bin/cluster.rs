//! Cluster-scale harness on the discrete-event backend (ISSUE 8).
//!
//! Every number here comes out of a *live* [`VirtualCluster`] hosted on
//! `ClusterBackend::Events` — the same `Comm` methods every trainer
//! calls, at rank counts the thread backend cannot reach:
//!
//! * **Table 4** (weak scaling, GoogLeNet / VGG on ImageNet): each rank
//!   charges the model's measured single-node iteration time and then
//!   allreduces a parameter buffer priced at the calibrated MPI-on-KNL
//!   cost, at P = 1…64 (the paper's Cori range) and P = 512…8192 (the
//!   extrapolation the event engine exists for). The emergent efficiency
//!   `T(1)/T(P)` must match the closed-form [`WeakScalingModel`] to
//!   ≤ 1e-9 — the simulation and the analysis are the same physics.
//! * **Tree exchange ~ log P**: the *executable* `tree_allreduce_sum`
//!   (real messages, real α-β pricing, no closed form anywhere) swept
//!   over power-of-two P; simulated completion time must fit
//!   `t = a + b·log₂P` with R² > 0.999 and grow < 2× from P=512 to 8192.
//! * **Figure 13** (more machines): speedup `P·efficiency(P)` derived
//!   from the Table 4 rows at the five large-P points.
//!
//! ```text
//! cargo run --release -p easgd-bench --bin cluster            # the sweep to P = 8192, writes JSON
//! cargo run --release -p easgd-bench --bin cluster -- --out p # write JSON to `p`
//! ```
//!
//! The whole sweep takes about a second on one core, so there is no
//! smoke subset: `scripts/check.sh` runs it and then requires the
//! regenerated `BENCH_cluster.json` to equal the checked-in one byte for
//! byte but for the `host` header line (every value is simulated time,
//! so a value that moves is a bug).
//!
//! Acceptance (`easgd_bench::report::CLUSTER`; checked in as
//! `BENCH_cluster.json`): emergent-vs-model efficiency delta ≤ 1e-9 at every
//! point, GoogLeNet ≥ Intel Caffe's 0.87 and VGG ≥ 0.62 at 2176 cores,
//! GoogLeNet above VGG at 8192 nodes, tree fit R² > 0.999 with the
//! 512→8192 growth ratio < 2 (log, not linear), and Figure 13 speedup
//! monotone in P.

use easgd::weak_scaling::{
    knl_mpi_effective_link, INTEL_CAFFE_GOOGLENET_2176, INTEL_CAFFE_VGG_2176,
};
use easgd::WeakScalingModel;
use easgd_bench::report::{self, bench_row, Report};
use easgd_cluster::collectives::tree_allreduce_sum;
use easgd_cluster::{ClusterBackend, ClusterConfig, TimeCategory, VirtualCluster};
use easgd_hardware::AlphaBeta;

/// Iterations charged per rank in the Table 4 runs — two is enough to
/// exercise steady-state accumulation (the efficiency is per-iteration).
const TABLE4_ITERS: usize = 2;
/// Parameter-buffer floats carried by the Table 4 allreduce. The traffic
/// is priced explicitly (the calibrated per-iteration cost), so the
/// payload only needs to be big enough to be a real reduction.
const TABLE4_PAYLOAD: usize = 64;
/// Payload for the executable tree sweep (α-dominated on purpose: the
/// log₂P round count is what's under test, not the bandwidth term).
const TREE_PAYLOAD: usize = 256;
/// Fibers in the big sweeps only charge clocks and run one shallow
/// collective; a slim stack keeps 8192 ranks cheap to map.
const SWEEP_STACK: usize = 512 * 1024;

/// The paper's Cori node counts plus the large-P extrapolation points.
fn table4_nodes() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 64, 512, 1024, 2048, 4096, 8192]
}

/// Power-of-two rank counts for the executable tree sweep.
fn tree_nodes() -> Vec<usize> {
    (1..=13).map(|k| 1usize << k).collect()
}

/// One measured point (simulated time; the engine is deterministic, so a
/// single run per point is exact).
struct Entry {
    bench: &'static str,
    shape: String,
    implementation: &'static str,
    /// Simulated milliseconds (max across ranks).
    sim_ms: f64,
    /// The point's headline metric (efficiency, speedup, or log₂P).
    metric: &'static str,
    value: f64,
}

/// One Table 4 point measured on the live cluster: every rank charges
/// the base iteration and allreduces at the calibrated cost, and the
/// emergent efficiency is read off the slowest rank's clock.
struct Table4Point {
    nodes: usize,
    sim_seconds: f64,
    emergent_efficiency: f64,
    model_efficiency: f64,
}

fn run_table4_point(model: &WeakScalingModel, nodes: usize) -> Table4Point {
    let comm_cost = model.comm_seconds(nodes);
    let base = model.base_iteration_seconds;
    // The link is free, so the tree allreduce only synchronizes (every
    // rank leaves at the max of the entry clocks) and the calibrated cost
    // is charged on top: the model's own sum.
    let cfg = ClusterConfig::new(nodes)
        .with_link(AlphaBeta::new("free", 0.0, 0.0))
        .with_backend(ClusterBackend::Events)
        .with_event_stack(SWEEP_STACK);
    let times = VirtualCluster::run(&cfg, |comm| {
        let mut buf = vec![1.0f32; TABLE4_PAYLOAD];
        for _ in 0..TABLE4_ITERS {
            comm.charge(TimeCategory::ForwardBackward, base);
            tree_allreduce_sum(comm, &mut buf, TimeCategory::GpuGpuParam);
            comm.charge(TimeCategory::GpuGpuParam, comm_cost);
        }
        comm.now()
    });
    let sim_seconds = times.iter().fold(0.0f64, |a, &t| a.max(t));
    Table4Point {
        nodes,
        sim_seconds,
        emergent_efficiency: base * TABLE4_ITERS as f64 / sim_seconds,
        model_efficiency: model.efficiency(nodes),
    }
}

fn bench_table4(
    entries: &mut Vec<Entry>,
    name: &'static str,
    model: &WeakScalingModel,
) -> Vec<Table4Point> {
    table4_nodes()
        .into_iter()
        .map(|nodes| {
            let p = run_table4_point(model, nodes);
            entries.push(Entry {
                bench: "weak_scaling_table4",
                shape: format!("{name}/nodes{nodes}/cores{}", nodes * model.cores_per_node),
                implementation: "event_backend",
                sim_ms: p.sim_seconds * 1e3,
                metric: "efficiency",
                value: p.emergent_efficiency,
            });
            p
        })
        .collect()
}

/// One executable tree-allreduce point: real messages over the
/// calibrated KNL link, completion time from the slowest rank.
fn run_tree_point(nodes: usize) -> f64 {
    let cfg = ClusterConfig::new(nodes)
        .with_link(knl_mpi_effective_link())
        .with_backend(ClusterBackend::Events)
        .with_event_stack(SWEEP_STACK);
    let times = VirtualCluster::run(&cfg, |comm| {
        let mut data = vec![comm.rank() as f32; TREE_PAYLOAD];
        tree_allreduce_sum(comm, &mut data, TimeCategory::GpuGpuParam);
        // Every rank must hold the same reduced vector: sum of 0..P.
        let p = comm.size() as f64;
        let want = (p - 1.0) * p / 2.0;
        assert_eq!(data[0] as f64, want, "allreduce result at P={p}");
        comm.now()
    });
    times.iter().fold(0.0f64, |a, &t| a.max(t))
}

/// Least-squares fit `y = a + b·x`; returns `(a, b, r²)`.
fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let b = sxy / sxx;
    let a = my - b * mx;
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (a + b * x);
            e * e
        })
        .sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    (a, b, r2)
}

struct TreeFit {
    r2: f64,
    /// Seconds added per doubling of P.
    slope_per_doubling: f64,
    /// `t(P_max) / t(512)` — must look logarithmic, not linear.
    growth_ratio: f64,
    max_nodes: usize,
}

fn bench_tree(entries: &mut Vec<Entry>) -> TreeFit {
    let nodes = tree_nodes();
    let times: Vec<f64> = nodes.iter().map(|&p| run_tree_point(p)).collect();
    let logs: Vec<f64> = nodes.iter().map(|&p| (p as f64).log2()).collect();
    for ((&p, &t), &l) in nodes.iter().zip(&times).zip(&logs) {
        entries.push(Entry {
            bench: "tree_allreduce_sim",
            shape: format!("p{p}/n{TREE_PAYLOAD}"),
            implementation: "event_backend",
            sim_ms: t * 1e3,
            metric: "log2_p",
            value: l,
        });
    }
    let (_, slope, r2) = linear_fit(&logs, &times);
    let at = |want: usize| {
        nodes
            .iter()
            .position(|&p| p == want)
            .map(|i| times[i])
            .expect("sweep includes the anchor point")
    };
    TreeFit {
        r2,
        slope_per_doubling: slope,
        growth_ratio: times[times.len() - 1] / at(512),
        max_nodes: *nodes.last().expect("non-empty sweep"),
    }
}

/// Figure 13 "more machines" rows derived from the Table 4 points:
/// throughput speedup over one node is `P·efficiency(P)`.
fn bench_figure13(
    entries: &mut Vec<Entry>,
    name: &'static str,
    points: &[Table4Point],
) -> Vec<f64> {
    points
        .iter()
        .filter(|p| p.nodes >= 512)
        .map(|p| {
            let speedup = p.nodes as f64 * p.emergent_efficiency;
            entries.push(Entry {
                bench: "figure13_speedup",
                shape: format!("{name}/nodes{}", p.nodes),
                implementation: "event_backend",
                sim_ms: p.sim_seconds * 1e3,
                metric: "speedup",
                value: speedup,
            });
            speedup
        })
        .collect()
}

fn main() {
    let mut entries = Vec::new();

    let googlenet = WeakScalingModel::googlenet_imagenet();
    let vgg = WeakScalingModel::vgg_imagenet();
    let g_points = bench_table4(&mut entries, "googlenet", &googlenet);
    let v_points = bench_table4(&mut entries, "vgg", &vgg);
    let tree = bench_tree(&mut entries);
    let g_speedups = bench_figure13(&mut entries, "googlenet", &g_points);
    let v_speedups = bench_figure13(&mut entries, "vgg", &v_points);

    // The live simulation must reproduce the closed-form model exactly
    // (same α-β physics, just executed instead of summed).
    let max_model_delta = g_points
        .iter()
        .chain(&v_points)
        .map(|p| (p.emergent_efficiency - p.model_efficiency).abs())
        .fold(0.0f64, f64::max);
    let eff_at = |points: &[Table4Point], nodes: usize| {
        points
            .iter()
            .find(|p| p.nodes == nodes)
            .map(|p| p.emergent_efficiency)
            .expect("sweep includes the anchor point")
    };
    let max_p = g_points.last().expect("non-empty table").nodes;
    let figure13_monotone = [&g_speedups, &v_speedups]
        .iter()
        .all(|s| s.windows(2).all(|w| w[1] > w[0]));
    let (g2176, v2176) = (eff_at(&g_points, 32), eff_at(&v_points, 32));
    let (g_max, v_max) = (eff_at(&g_points, max_p), eff_at(&v_points, max_p));

    let mut report = Report::new(&report::CLUSTER);
    report.set(
        "max_abs_efficiency_delta_vs_model",
        format!("{max_model_delta:.3e}"),
    );
    report.set("googlenet_efficiency_2176_cores", format!("{g2176:.4}"));
    report.set("vgg_efficiency_2176_cores", format!("{v2176:.4}"));
    report.set("googlenet_efficiency_p8192", format!("{g_max:.4}"));
    report.set("vgg_efficiency_p8192", format!("{v_max:.4}"));
    report.set("googlenet_above_vgg_at_p8192", g_max > v_max);
    report.set("tree_fit_r2", format!("{:.6}", tree.r2));
    report.set(
        "tree_slope_s_per_doubling",
        format!("{:.6}", tree.slope_per_doubling),
    );
    report.set(
        "tree_growth_ratio_8192_over_512",
        format!("{:.4}", tree.growth_ratio),
    );
    report.set("max_event_ranks", tree.max_nodes.max(max_p));
    report.set("figure13_speedup_monotone", figure13_monotone);

    println!(
        "{:<22} {:<28} {:<14} {:>14} {:>12}",
        "bench", "shape", "impl", "sim_ms", "metric"
    );
    for e in &entries {
        println!(
            "{:<22} {:<28} {:<14} {:>14.4} {:>9.4} {}",
            e.bench, e.shape, e.implementation, e.sim_ms, e.value, e.metric,
        );
        report.entry(bench_row(
            e.bench,
            &e.shape,
            e.implementation,
            &format!(
                "\"sim_ms\": {:.6}, \"{}\": {:.6}",
                e.sim_ms, e.metric, e.value
            ),
        ));
    }
    println!(
        "\nmax |emergent - model| efficiency delta {max_model_delta:.2e} | GoogLeNet @2176 cores {g2176:.4} (Intel Caffe {INTEL_CAFFE_GOOGLENET_2176}) | VGG @2176 {v2176:.4} (Intel Caffe {INTEL_CAFFE_VGG_2176})",
    );
    println!(
        "tree fit R² {:.6} | slope {:.4} s/doubling | t({})/t(512) = {:.3} | max event ranks {}",
        tree.r2,
        tree.slope_per_doubling,
        tree.max_nodes,
        tree.growth_ratio,
        tree.max_nodes.max(max_p),
    );
    report.finish(false);
}
