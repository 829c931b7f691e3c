//! # easgd-nn
//!
//! Convolutional-neural-network substrate for the `knl-easgd` reproduction
//! of *“Scaling Deep Learning on GPU and Knights Landing clusters”*
//! (SC '17).
//!
//! The paper's distributed algorithms (EASGD variants) are *inter-device*
//! schedules; every worker still runs real forward/backward propagation
//! (§2.2). This crate provides that per-worker compute path:
//!
//! * [`layer`] — the [`layer::Layer`] trait plus the layers the paper's
//!   networks run (LeNet, AlexNet, GoogLeNet, VGG; Table 2):
//!   [`dense::Dense`], [`conv::Conv2d`], max and average pooling, ReLU,
//!   local response normalization and the inception module.
//! * [`loss`] — softmax cross-entropy with analytic gradient.
//! * [`network`] — [`network::Network`]: a layer stack whose
//!   parameters live in a single packed `ParamArena` (the §5.2
//!   single-layer-communication layout).
//! * [`models`] — the runnable model zoo (LeNet for MNIST, AlexNet-style
//!   for CIFAR, generic MLPs) at both paper scale and `tiny` scale for
//!   fast experiments.
//! * [`spec`] — full-size cost specifications (parameter and flop counts
//!   per layer) of LeNet, AlexNet, GoogLeNet and VGG-19, used by the
//!   weak-scaling and communication models (Table 4, Figure 10).
//! * [`layout`] — packed vs per-layer communication schedules (§5.2).
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite to certify every layer's backward pass.

pub mod activations;
pub mod checkpoint;
pub mod conv;
pub mod dense;
pub mod eval;
pub mod flatten;
pub mod gradcheck;
pub mod inception;
pub mod layer;
pub mod layout;
pub mod loss;
pub mod lrn;
pub mod models;
pub mod network;
pub mod pool;
pub mod spec;

pub use activations::Relu;
pub use checkpoint::{load_network, save_network};
pub use conv::Conv2d;
pub use dense::Dense;
pub use eval::{evaluate_topk, ConfusionMatrix, TopKAccuracy};
pub use flatten::Flatten;
pub use inception::{Inception, InceptionConfig};
pub use layer::{Init, Layer, ParamSpec};
pub use layout::{CommSchedule, LayoutKind};
pub use loss::SoftmaxCrossEntropy;
pub use lrn::LocalResponseNorm;
pub use network::{Network, NetworkBuilder, StepStats};
pub use pool::{AvgPool2d, MaxPool2d};
pub use spec::{LayerCost, ModelSpec};
