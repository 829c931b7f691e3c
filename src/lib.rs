//! # knl-easgd
//!
//! A Rust reproduction of *“Scaling Deep Learning on GPU and Knights
//! Landing clusters”* (You, Buluç, Demmel, SC '17): the EASGD algorithm
//! family for HPC clusters, the DNN / dataset / cluster substrates it
//! runs on, and a benchmark harness regenerating every table and figure
//! of the paper's evaluation.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`tensor`] — dense tensors, parallel GEMM, packed parameter arenas,
//!   lock-free atomic buffers (`easgd-tensor`).
//! * [`nn`] — layers, networks, the model zoo and full-size cost specs
//!   (`easgd-nn`).
//! * [`data`] — synthetic MNIST/CIFAR/ImageNet and real-format loaders
//!   (`easgd-data`).
//! * [`hardware`] — α-β networks, collective cost formulas, device and
//!   KNL chip models (`easgd-hardware`).
//! * [`cluster`] — the virtual cluster: ranks as threads, priced
//!   collectives, simulated clocks (`easgd-cluster`).
//! * [`algorithms`] — the paper's contribution: Original / Async /
//!   Hogwild / Sync EASGD and their baselines, the KNL partitioning
//!   study and the weak-scaling model (`easgd`).
//!
//! ## Quickstart
//!
//! ```
//! use knl_easgd::prelude::*;
//!
//! // A synthetic MNIST-like task and a small LeNet-shaped model.
//! let task = SyntheticSpec::mnist_small().task(1);
//! let (train, test) = task.train_test(600, 200, 2);
//! let net = lenet_tiny(3);
//!
//! // Train with the paper's fastest method on 4 workers; every method
//! // in the Figure 9 lineage dispatches through the same registry.
//! let cfg = TrainConfig::figure6(100);
//! let result = run_method(MethodId::SyncEasgd, &net, &train, &test, &cfg);
//! assert!(result.accuracy > 0.3);
//! ```

pub use easgd as algorithms;
pub use easgd_cluster as cluster;
pub use easgd_data as data;
pub use easgd_hardware as hardware;
pub use easgd_nn as nn;
pub use easgd_tensor as tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use easgd::{
        async_server_sim, hogwild_easgd, hogwild_sgd, knl_partition_run, original_easgd_sim,
        run_comparison, run_method, sync_easgd_shared, sync_easgd_sim, sync_sgd_sim, AsyncVariant,
        MethodId, OriginalMode, RunResult, SimCosts, SyncVariant, TrainConfig, WeakScalingModel,
    };
    pub use easgd_cluster::{
        ClusterBackend, ClusterConfig, Comm, SimClock, TimeCategory, VirtualCluster,
    };
    pub use easgd_data::{Dataset, SyntheticSpec, SyntheticTask};
    pub use easgd_hardware::{AlphaBeta, ComputeModel, KnlChip};
    pub use easgd_nn::models::{alexnet_cifar, alexnet_cifar_tiny, lenet, lenet_tiny, mlp};
    pub use easgd_nn::{LayoutKind, Network, NetworkBuilder};
    pub use easgd_tensor::{ParamArena, Rng, Tensor};
}
