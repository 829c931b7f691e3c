//! Microbench: collectives on the virtual cluster — the Θ(P) flat
//! gather-sum vs the Θ(log P) binomial tree that defines Sync EASGD1,
//! beside the hub allreduce every trainer's priced exchange uses.
//! Measures real wall time of the data movement (the simulated-cost
//! contrast is asserted by tests and pinned in `BENCH_comm.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use easgd_cluster::collectives::{flat_gather_sum, tree_reduce_sum};
use easgd_cluster::{ClusterConfig, Comm, TimeCategory, VirtualCluster};

const CAT: TimeCategory = TimeCategory::GpuGpuParam;

/// Sums every rank's vector into (at least) rank 0's.
type Reduce = fn(&mut Comm, &mut Vec<f32>);

fn bench_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_reduce");
    group.sample_size(20);
    let len = 100_000; // ~LeNet-sized weight vector
    let schedules: [(&str, Reduce); 3] = [
        ("tree", |comm, x| tree_reduce_sum(comm, 0, x, CAT)),
        ("flat", |comm, x| flat_gather_sum(comm, 0, x, CAT)),
        ("hub_allreduce", |comm, x| {
            let mine = std::mem::take(x);
            comm.allreduce_sum_into(&mine, CAT, x);
        }),
    ];
    for &ranks in &[2usize, 4, 8] {
        for (name, reduce) in schedules {
            let cfg = ClusterConfig::new(ranks);
            group.bench_with_input(BenchmarkId::new(name, ranks), &cfg, |bencher, cfg| {
                bencher.iter(|| {
                    VirtualCluster::run(cfg, |comm| {
                        let mut x = vec![comm.rank() as f32; len];
                        reduce(comm, &mut x);
                        x[0]
                    })
                });
            });
        }
    }
    group.finish();
}

fn bench_p2p_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_p2p");
    group.sample_size(20);
    for &len in &[1_000usize, 100_000] {
        let cfg = ClusterConfig::new(2);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |bencher, &len| {
            bencher.iter(|| {
                VirtualCluster::run(&cfg, |comm| {
                    let mut d = Vec::new();
                    if comm.rank() == 0 {
                        comm.send(1, 1, &vec![1.0f32; len], TimeCategory::CpuGpuParam);
                        comm.recv_into(1, 2, TimeCategory::CpuGpuParam, &mut d);
                    } else {
                        comm.recv_into(0, 1, TimeCategory::CpuGpuParam, &mut d);
                        comm.send(0, 2, &d, TimeCategory::CpuGpuParam);
                    }
                    d.len()
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reduce, bench_p2p_roundtrip);
criterion_main!(benches);
