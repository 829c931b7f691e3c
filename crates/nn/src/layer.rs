//! The [`Layer`] trait: the unit of forward/backward propagation.
//!
//! Layers do **not** own their parameters. All parameters of a network
//! live in one packed [`ParamArena`] (§5.2 of the paper); a layer only
//! remembers the indices of the arena segments it was assigned at build
//! time. Gradients are accumulated into a second arena with identical
//! layout. This makes “send the whole model” a single contiguous message
//! and lets optimizer updates run as flat-slice kernels.

use easgd_tensor::{Panels, ParamArena, Rng, Tensor, TrainScratch};

/// How a parameter segment is initialized.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Init {
    /// Xavier/Glorot uniform with the given fan-in and fan-out
    /// (Algorithm 1 line 2: “random and Xavier weight filling”).
    Xavier {
        /// Fan-in of the layer.
        fan_in: usize,
        /// Fan-out of the layer.
        fan_out: usize,
    },
    /// Gaussian `N(0, std²)`.
    Normal {
        /// Standard deviation.
        std: f32,
    },
    /// All elements set to a constant (biases).
    Constant(f32),
}

impl Init {
    /// Fills `buf` according to the scheme, drawing from `rng`.
    pub fn fill(&self, buf: &mut [f32], rng: &mut Rng) {
        match *self {
            Init::Xavier { fan_in, fan_out } => rng.fill_xavier(buf, fan_in, fan_out),
            Init::Normal { std } => rng.fill_normal(buf, 0.0, std),
            Init::Constant(c) => buf.iter_mut().for_each(|x| *x = c),
        }
    }
}

/// Declaration of one parameter segment a layer needs.
#[derive(Clone, Debug)]
pub struct ParamSpec {
    /// Segment name (unique within the network, e.g. `"conv1.weight"`).
    pub name: String,
    /// Number of `f32` elements.
    pub len: usize,
    /// Initialization scheme.
    pub init: Init,
}

/// One differentiable stage of a network.
///
/// The contract:
/// * [`param_specs`](Layer::param_specs) declares the segments the layer
///   needs; [`bind`](Layer::bind) later hands it the arena indices that
///   were allocated for those segments, in the same order.
/// * [`forward_into`](Layer::forward_into) consumes a batch
///   `[B, …in_shape]` and writes `[B, …out_shape]` into a caller-owned
///   tensor, caching whatever it needs for backward. The layer shapes
///   `out` itself (through the counted scratch) and sizes every internal
///   cache through the scratch's `ensure_*` helpers, so a warmed-up step
///   performs zero heap allocations (DESIGN.md §11).
/// * [`backward_into`](Layer::backward_into) consumes `∂L/∂output`,
///   **stores** `∂L/∂params` into the layer's own `grads` segments —
///   every element written, nothing read, so the arena needs no zeroing
///   between steps — and writes `∂L/∂input` into `grad_in`.
/// * [`forward`](Layer::forward) / [`backward`](Layer::backward) are
///   allocating shims over the `_into` kernels, provided for the
///   grad-checker and layer unit tests. A layer implements only the
///   `_into` kernels, so the golden digests lock the pooled path.
pub trait Layer: Send + Sync {
    /// Display name for diagnostics and segment naming.
    fn name(&self) -> String;

    /// Parameter segments required by this layer (empty for stateless
    /// layers such as activations and pooling).
    fn param_specs(&self) -> Vec<ParamSpec> {
        Vec::new()
    }

    /// Receives the arena segment indices allocated for
    /// [`param_specs`](Layer::param_specs), in order.
    fn bind(&mut self, _segments: &[usize]) {}

    /// Output shape (excluding the batch dimension).
    fn out_shape(&self) -> Vec<usize>;

    /// Forward propagation on a batch. `train` distinguishes training
    /// from inference (dropout behaves differently).
    ///
    /// Allocating shim over [`forward_into`](Layer::forward_into); the
    /// throwaway scratch means every call pays fresh allocations. Hot
    /// paths go through `Network::forward_backward`'s pooled scratch.
    fn forward(&mut self, params: &ParamArena, input: &Tensor, train: bool) -> Tensor {
        let mut out = Tensor::default();
        let mut scratch = TrainScratch::default();
        self.forward_into(params, input, train, &mut out, &mut scratch);
        out
    }

    /// Backward propagation: stores parameter gradients into `grads` and
    /// returns the gradient with respect to the layer input.
    ///
    /// Allocating shim over [`backward_into`](Layer::backward_into); see
    /// [`forward`](Layer::forward).
    fn backward(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
    ) -> Tensor {
        let mut grad_in = Tensor::default();
        let mut scratch = TrainScratch::default();
        self.backward_into(params, grads, grad_out, &mut grad_in, &mut scratch);
        grad_in
    }

    /// Forward propagation writing into a caller-owned output tensor,
    /// sizing it and every internal cache through the counted `scratch`.
    fn forward_into(
        &mut self,
        params: &ParamArena,
        input: &Tensor,
        train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    );

    /// Backward propagation writing `∂L/∂input` into a caller-owned
    /// tensor; see [`forward_into`](Layer::forward_into).
    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    );

    /// [`backward_into`](Layer::backward_into) for a caller that reads
    /// only `grads` (the network, on its first parametrised layer): the
    /// same parameter gradients bit for bit, `grad_in` left unspecified.
    /// A layer whose input gradient is a product of its own skips it.
    fn backward_params_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.backward_into(params, grads, grad_out, grad_in, scratch);
    }

    /// Makes the layer a serving replica's (`Network::freeze`): from here
    /// on only forward runs, and the layer keeps nothing for a backward.
    /// Returns, per [`param_specs`](Layer::param_specs) segment, the
    /// panels the frozen layer reads that segment as from now on (`None`:
    /// row-major, as trained).
    fn freeze(&mut self) -> Vec<Option<Panels>> {
        vec![None; self.param_specs().len()]
    }

    /// Clones the layer (including its configuration, excluding transient
    /// caches is permitted) into a box. Needed because every worker in a
    /// distributed run owns its own network replica (data parallelism,
    /// §2.3).
    fn boxed_clone(&self) -> Box<dyn Layer>;

    /// Floats the layer's own forward/backward buffers hold, by capacity
    /// (0 for layers that do not report it).
    #[cfg(test)]
    fn held_floats(&self) -> usize {
        0
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Batch size of a `[B, …]` tensor.
pub(crate) fn batch_of(t: &Tensor) -> usize {
    assert!(t.shape().rank() >= 1, "batched tensor must have rank >= 1");
    t.shape().dim(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_init_respects_bound() {
        let mut rng = Rng::new(1);
        let mut buf = vec![0.0; 256];
        Init::Xavier {
            fan_in: 10,
            fan_out: 22,
        }
        .fill(&mut buf, &mut rng);
        let bound = (6.0f32 / 32.0).sqrt();
        assert!(buf.iter().all(|x| x.abs() <= bound));
    }

    #[test]
    fn constant_init_sets_everything() {
        let mut rng = Rng::new(1);
        let mut buf = vec![1.0; 8];
        Init::Constant(0.25).fill(&mut buf, &mut rng);
        assert!(buf.iter().all(|&x| x == 0.25));
    }

    #[test]
    fn normal_init_spreads() {
        let mut rng = Rng::new(2);
        let mut buf = vec![0.0; 1000];
        Init::Normal { std: 0.1 }.fill(&mut buf, &mut rng);
        let mean = buf.iter().sum::<f32>() / 1000.0;
        assert!(mean.abs() < 0.02);
        assert!(buf.iter().any(|&x| x != buf[0]));
    }
}
