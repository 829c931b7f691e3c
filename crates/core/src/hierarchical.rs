// xtask: allow(wall-clock) — wall-clock trainer/driver: measures real elapsed time by design.
//! Hierarchical (two-level) Sync EASGD for multi-node multi-GPU
//! clusters.
//!
//! The paper's GPU testbed is 16 nodes × multiple Tesla boards behind
//! PCIe switches, nodes linked by 56 Gb/s FDR InfiniBand (§10.4) — and
//! the acknowledgements mention a multi-node multi-GPU EASGD “with less
//! global communication overhead”. This module implements that natural
//! two-level schedule:
//!
//! 1. **intra-node**: each node's GPUs tree-reduce their local weights
//!    over the PCIe switch to a node leader;
//! 2. **inter-node**: the leaders ring-allreduce the node sums over the
//!    InfiniBand fabric (bandwidth-optimal; `easgd-cluster`'s executable
//!    ring);
//! 3. the center update (Equation 2) is applied redundantly by every
//!    leader on the identical global sum, and the result is tree-
//!    broadcast back down the PCIe switches.
//!
//! Versus a flat allreduce over all `nodes × gpus` endpoints, the
//! hierarchy sends only one message per *node* across the slow fabric —
//! the “less global communication” of the acknowledgement.

use crate::config::TrainConfig;
use crate::engine::{assemble_sim, worker_rng, ElasticRule, LocalStep, RankOutcome, SALT_PHI};
use crate::metrics::RunResult;
use crate::simcost::SimCosts;
use easgd_cluster::collectives::ring_allreduce_sum;
use easgd_cluster::{tags, ClusterConfig, Comm, TimeCategory, VirtualCluster};
use easgd_data::Dataset;
use easgd_hardware::collective::ceil_log2;
use easgd_hardware::net::AlphaBeta;
use easgd_nn::Network;
use easgd_tensor::ops::fold_sum;
use std::time::Instant;

/// Topology of the simulated GPU cluster.
#[derive(Clone, Debug)]
pub struct GpuClusterTopology {
    /// Number of nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Intra-node link (PCIe switch).
    pub intra: AlphaBeta,
    /// Inter-node link (InfiniBand / Aries).
    pub inter: AlphaBeta,
}

impl GpuClusterTopology {
    /// The paper's first cluster: 16 nodes × 2 K80 GPUs, FDR InfiniBand.
    pub fn paper_k80_cluster() -> Self {
        Self {
            nodes: 16,
            gpus_per_node: 2,
            intra: AlphaBeta::pcie_gen3_x16(),
            inter: AlphaBeta::fdr_infiniband(),
        }
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Per-round communication cost of the *hierarchical* schedule for a
    /// `bytes`-sized model: intra-node tree reduce + inter-node ring
    /// allreduce (2·(N−1)/N·bytes·β + 2·(N−1)·α) + intra-node broadcast.
    pub fn hierarchical_cost(&self, bytes: usize) -> f64 {
        let intra_tree = ceil_log2(self.gpus_per_node) as f64 * self.intra.time(bytes);
        let n = self.nodes as f64;
        let ring = if self.nodes > 1 {
            2.0 * (n - 1.0) * self.inter.alpha_s
                + 2.0 * ((n - 1.0) / n) * bytes as f64 * self.inter.beta_s_per_byte
        } else {
            0.0
        };
        2.0 * intra_tree + ring
    }

    /// Per-round cost of the *flat* schedule: a tree allreduce over all
    /// endpoints where every hop may cross the slow fabric.
    pub fn flat_cost(&self, bytes: usize) -> f64 {
        2.0 * ceil_log2(self.total_gpus()) as f64 * self.inter.time(bytes)
    }
}

/// Runs hierarchical Sync EASGD on the simulated topology. Ranks are laid
/// out node-major: rank = node·gpus_per_node + gpu; rank 0 of each node
/// is the node leader; global rank 0 holds the reported center.
///
/// The topology defines the worker count, and `cfg.workers` must state
/// it: ρ is derived from the worker count
/// ([`TrainConfig::figure6`], [`TrainConfig::with_eta`]), so a config
/// sized for another count would train under the wrong elastic
/// strength. `cfg.iterations` bulk-synchronous rounds.
///
/// # Panics
/// Panics, naming both counts, unless
/// `cfg.workers == topo.total_gpus()`.
pub fn hierarchical_sync_easgd(
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
    topo: &GpuClusterTopology,
) -> RunResult {
    cfg.validate();
    cfg.refuse_comm_period("hierarchical_sync_easgd");
    let total = topo.total_gpus();
    assert!(total > 0, "empty topology");
    assert_eq!(
        cfg.workers, total,
        "hierarchical_sync_easgd: cfg.workers = {} but the topology has {total} GPUs \
         ({} nodes x {}); size the config with .with_workers({total})",
        cfg.workers, topo.nodes, topo.gpus_per_node
    );
    let shards = train.partition(total);
    let cluster = ClusterConfig::new(total).with_link(topo.inter.clone());
    let intra_tree = ceil_log2(topo.gpus_per_node) as f64 * topo.intra.time(proto.size_bytes());
    let g = topo.gpus_per_node;
    let rule = ElasticRule::from_config(cfg);
    // Per-GPU compute is the single-node calibration's: a recalibration
    // of Table 3 moves the two-level trainer with it.
    let costs = SimCosts::mnist_lenet_4gpu();
    let wall_start = Instant::now();

    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        let me = comm.rank();
        let node = me / g;
        let is_leader = me.is_multiple_of(g);
        let leader_rank = node * g;
        let mut local = LocalStep::new(proto);
        let mut center = proto.params().as_slice().to_vec();
        let n = center.len();
        let mut rng = worker_rng(cfg.seed, SALT_PHI, me);
        let shard = &shards[me];
        // Round scratch, allocated once: the node-level reduction buffer
        // and the leader's pool-recycled receive buffer.
        let mut node_sum = vec![0.0f32; n];
        let mut wbuf: Vec<f32> = Vec::new();

        for round in 0..cfg.iterations {
            let batch = shard.sample_batch(&mut rng, cfg.batch);
            local.forward_backward(&batch);
            comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);

            // ---- level 1: intra-node reduce of local weights to leader.
            let tag = tags::hier_round(round);
            if is_leader {
                node_sum.copy_from_slice(local.params());
                for member in leader_rank + 1..leader_rank + g {
                    comm.recv_into(member, tag, TimeCategory::GpuGpuParam, &mut wbuf);
                    fold_sum(&mut node_sum, &[&wbuf]);
                }
                // Tree depth, not member count, prices the reduce.
                comm.charge(TimeCategory::GpuGpuParam, intra_tree);
            } else {
                comm.send_costed(leader_rank, tag, local.params(), 0.0, TimeCategory::Other);
                node_sum.fill(0.0);
            }

            // ---- level 2: ring-allreduce over the fabric. Implemented
            // as a communicator-wide ring with non-leaders contributing
            // zeros: per-rank bandwidth (2·n·β) matches the leaders-only
            // ring exactly; the latency term is conservatively larger
            // (2(total−1)·α instead of 2(nodes−1)·α).
            ring_allreduce_sum(comm, &mut node_sum, TimeCategory::GpuGpuParam);

            // ---- Equation (2) on the identical global sum, everywhere.
            rule.center_dilution(&mut center, &node_sum, total);
            // ---- level 1 down: leader broadcasts the center in-node.
            if is_leader {
                comm.charge(TimeCategory::GpuGpuParam, intra_tree);
            }
            // ---- Equation (1) locally.
            local.elastic_step_against(&rule, &center);
            comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
        }

        let last_loss = local.last_loss();
        let loss_trace = local.take_loss_trace();
        if me == 0 {
            RankOutcome::Center {
                center,
                report: comm.report(),
                trace: Vec::new(),
                loss_trace,
            }
        } else {
            RankOutcome::Worker {
                report: Some(comm.report()),
                last_loss,
                loss_trace,
            }
        }
    });

    let wall = wall_start.elapsed().as_secs_f64();
    assemble_sim(
        "Hierarchical Sync EASGD",
        proto,
        test,
        cfg.iterations,
        wall,
        outs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset, Dataset) {
        let task = SyntheticSpec::mnist_small().task(161);
        let (train, test) = task.train_test(600, 200, 162);
        (lenet_tiny(163), train, test)
    }

    fn small_topo(nodes: usize, gpus: usize) -> GpuClusterTopology {
        GpuClusterTopology {
            nodes,
            gpus_per_node: gpus,
            intra: AlphaBeta::pcie_gen3_x16(),
            inter: AlphaBeta::fdr_infiniband(),
        }
    }

    #[test]
    fn paper_topology_dimensions() {
        let t = GpuClusterTopology::paper_k80_cluster();
        assert_eq!(t.total_gpus(), 32);
    }

    #[test]
    fn hierarchy_beats_flat_for_large_models() {
        // One fabric message per node instead of log(total) fabric hops.
        let t = GpuClusterTopology::paper_k80_cluster();
        let vgg = 575_000_000;
        assert!(t.hierarchical_cost(vgg) < t.flat_cost(vgg));
    }

    #[test]
    fn trains_on_2x2_topology() {
        let (net, train, test) = setup();
        let cfg = TrainConfig::figure6(50).with_seed(171);
        let r = hierarchical_sync_easgd(&net, &train, &test, &cfg, &small_topo(2, 2));
        assert!(r.accuracy > 0.3, "acc = {}", r.accuracy);
        assert!(r.sim_seconds.unwrap() > 0.0);
        let b = r.breakdown.unwrap();
        assert!(b.get(TimeCategory::GpuGpuParam) > 0.0);
    }

    #[test]
    #[should_panic(expected = "cfg.workers = 4 but the topology has 6 GPUs")]
    fn a_worker_count_that_is_not_the_topologys_is_refused() {
        let (net, train, test) = setup();
        let cfg = TrainConfig::figure6(1);
        hierarchical_sync_easgd(&net, &train, &test, &cfg, &small_topo(3, 2));
    }

    #[test]
    fn single_node_degenerates_to_intra_only() {
        let (net, train, test) = setup();
        let cfg = TrainConfig::figure6(30).with_seed(181);
        let r = hierarchical_sync_easgd(&net, &train, &test, &cfg, &small_topo(1, 4));
        assert!(r.accuracy > 0.3, "acc = {}", r.accuracy);
    }

    #[test]
    fn deterministic_given_seed() {
        let (net, train, test) = setup();
        let cfg = TrainConfig::figure6(10).with_seed(191);
        let topo = small_topo(2, 2);
        let a = hierarchical_sync_easgd(&net, &train, &test, &cfg, &topo);
        let b = hierarchical_sync_easgd(&net, &train, &test, &cfg, &topo);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.sim_seconds, b.sim_seconds);
        assert_eq!(a.center_hash, b.center_hash);
    }
}
