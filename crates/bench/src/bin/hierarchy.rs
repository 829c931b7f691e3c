//! Hierarchical vs flat collectives on the multi-node multi-GPU cluster
//! (the paper's §10.4 testbed shape; the acknowledgements' “less global
//! communication overhead” design).
//!
//! ```sh
//! cargo run --release -p easgd-bench --bin hierarchy
//! ```

use easgd::hierarchical::{hierarchical_sync_easgd, GpuClusterTopology};
use easgd::TrainConfig;
use easgd_bench::figure_task;
use easgd_hardware::net::AlphaBeta;
use easgd_nn::spec::{spec_googlenet, spec_lenet, spec_vgg19};

fn main() {
    // Analytic comparison on the paper's 16-node × 2-GPU cluster.
    let topo = GpuClusterTopology::paper_k80_cluster();
    println!(
        "Two-level collectives on {} nodes x {} GPUs (PCIe intra, FDR IB inter)\n",
        topo.nodes, topo.gpus_per_node
    );
    println!(
        "{:<12} {:>12} {:>16} {:>12} {:>9}",
        "model", "weights MB", "hierarchical ms", "flat ms", "speedup"
    );
    for spec in [spec_lenet(), spec_googlenet(), spec_vgg19()] {
        let b = spec.weight_bytes();
        let h = topo.hierarchical_cost(b) * 1e3;
        let f = topo.flat_cost(b) * 1e3;
        println!(
            "{:<12} {:>12.1} {:>16.2} {:>12.2} {:>8.2}x",
            spec.name,
            b as f64 / 1e6,
            h,
            f,
            f / h
        );
    }

    // Executable run on a scaled-down topology (real gradients).
    println!("\nExecutable hierarchical Sync EASGD (4 nodes x 2 GPUs, LeNet-tiny):");
    let (net, train, test) = figure_task();
    let small = GpuClusterTopology {
        nodes: 4,
        gpus_per_node: 2,
        intra: AlphaBeta::pcie_gen3_x16(),
        inter: AlphaBeta::fdr_infiniband(),
    };
    let cfg = TrainConfig::figure6(100).with_workers(small.total_gpus());
    let r = hierarchical_sync_easgd(&net, &train, &test, &cfg, &small);
    println!(
        "  {}: {:.1}% accuracy, {:.3}s simulated ({} rounds x {} GPUs)",
        r.method,
        r.accuracy * 100.0,
        r.sim_seconds.unwrap(),
        cfg.iterations,
        small.total_gpus()
    );
    let b = r.breakdown.unwrap();
    println!(
        "  comm ratio {:.0}% (gpu-gpu parameter traffic on both levels)",
        b.comm_ratio() * 100.0
    );
}
