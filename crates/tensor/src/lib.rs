//! # easgd-tensor
//!
//! Dense `f32` tensor and parallel linear-algebra substrate for the
//! `knl-easgd` reproduction of *“Scaling Deep Learning on GPU and Knights
//! Landing clusters”* (SC '17).
//!
//! The paper's workers each run real forward/backward propagation; this
//! crate provides the kernels those workers need:
//!
//! * [`Tensor`] — an owned, row-major dense tensor with shape metadata.
//! * [`gemm()`](gemm::gemm) — cache-blocked, packed single-precision matrix
//!   multiply with transpose variants (the workhorse of dense and
//!   convolutional layers), forked over borrowed output bands through
//!   [`par`] where the flop count pays for it; the seed kernel is retained as [`gemm_naive()`](gemm::gemm_naive),
//!   the reference the tests compare against (see DESIGN.md §8).
//! * [`im2col()`](im2col::im2col) / [`col2im()`](im2col::col2im) — the lowering used to express convolution as
//!   GEMM, exactly as cuDNN-era frameworks did — and [`Lowered`], the same
//!   matrix read in place from a padded image by the GEMM's packs
//!   ([`gemm_view()`](gemm::gemm_view)), which is how the conv layer uses it.
//! * [`ParamArena`] — a *packed*, contiguous parameter buffer with named
//!   segments. This is the substrate for the paper's §5.2 “single-layer
//!   communication” optimization: one contiguous allocation means the whole
//!   model is one message.
//! * [`TrainScratch`] — the activation-side arena: counted, recycled
//!   storage for per-step activations, gradients, layer caches and padded
//!   conv inputs, making the steady-state training step allocation-free
//!   (DESIGN.md §11).
//! * [`AtomicF32`] / [`AtomicBuffer`] — lock-free shared weights for the
//!   Hogwild-style algorithms (§3.2, Hogwild EASGD).
//! * [`fiber`] — stackful fibers on the calling thread (x86_64 Linux), the
//!   rank host of the cluster crate's event backend.
//! * [`Rng`] — a small deterministic xorshift generator with Box–Muller
//!   normals and Xavier initialization, so every experiment is reproducible
//!   bit-for-bit (the paper stresses Sync EASGD's determinism).

pub mod arena;
pub mod atomic;
pub mod fiber;
pub mod gemm;
pub mod im2col;
pub mod ops;
pub mod par;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use arena::{BufGrowth, InferScratch, ParamArena, ScratchStats, Segment, TrainScratch};
pub use atomic::{AtomicBuffer, AtomicF32};
/// [`gemm()`](gemm::gemm) under its former name: every product's rows are
/// now stable under any row count, so the per-row dispatch it named is
/// the one dispatch. Kept for the benchmark package's probes.
pub use gemm::gemm as gemm_rowstable;
pub use gemm::{
    gemm, gemm_fork_join, gemm_naive, gemm_serial, gemm_view, matmul, Operand, Panels, Transpose,
};
pub use im2col::{col2im, im2col, pad_image, Conv2dGeometry, Lowered};
pub use ops::*;
pub use rng::Rng;
pub use shape::Shape;
pub use simd::{active_tier, with_scalar_kernels};
pub use tensor::Tensor;
