//! Networks: layer stacks over one packed parameter arena.

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::flatten::Flatten;
use crate::layer::{forward_chain, Layer};
use crate::loss::SoftmaxCrossEntropy;
use crate::lrn::LocalResponseNorm;
use crate::pool::{AvgPool2d, MaxPool2d};
use easgd_tensor::{
    Conv2dGeometry, InferScratch, ParamArena, Rng, ScratchStats, Tensor, TrainScratch,
};
use std::sync::Arc;

/// Statistics of one training step.
#[derive(Clone, Copy, Debug)]
pub struct StepStats {
    /// Mean cross-entropy loss of the batch.
    pub loss: f32,
    /// Samples predicted correctly.
    pub correct: usize,
    /// Batch size.
    pub batch: usize,
}

impl StepStats {
    /// Batch accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f32 {
        self.correct as f32 / self.batch as f32
    }
}

/// Fluent builder that tracks the per-sample shape through the stack.
///
/// ```
/// use easgd_nn::NetworkBuilder;
/// let net = NetworkBuilder::new([1, 8, 8])
///     .conv2d(4, 3, 1, 1)
///     .relu()
///     .maxpool(2, 2)
///     .flatten()
///     .dense(10)
///     .build(42);
/// assert_eq!(net.num_classes(), 10);
/// ```
pub struct NetworkBuilder {
    input_shape: Vec<usize>,
    cur: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
    n: usize,
}

impl NetworkBuilder {
    /// Starts a network taking per-sample inputs of `input_shape`
    /// (`[channels, h, w]` for image models, `[features]` for MLPs).
    pub fn new(input_shape: impl Into<Vec<usize>>) -> Self {
        let input_shape = input_shape.into();
        assert!(!input_shape.is_empty(), "input shape cannot be empty");
        Self {
            cur: input_shape.clone(),
            input_shape,
            layers: Vec::new(),
            n: 0,
        }
    }

    fn next_name(&mut self, kind: &str) -> String {
        self.n += 1;
        format!("{kind}{}", self.n)
    }

    fn chw(&self) -> (usize, usize, usize) {
        assert_eq!(
            self.cur.len(),
            3,
            "layer expects a [C,H,W] input, current shape is {:?}",
            self.cur
        );
        (self.cur[0], self.cur[1], self.cur[2])
    }

    /// Appends a convolution with `out_channels` filters of size
    /// `k × k`, the given stride and zero padding.
    pub fn conv2d(mut self, out_channels: usize, k: usize, stride: usize, pad: usize) -> Self {
        let (c, h, w) = self.chw();
        let geom = Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
            stride,
            pad,
        };
        let name = self.next_name("conv");
        let layer = Conv2d::new(name, geom, out_channels);
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a ReLU.
    pub fn relu(mut self) -> Self {
        let name = self.next_name("relu");
        let layer = Relu::new(name, self.cur.clone());
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends max pooling.
    pub fn maxpool(mut self, size: usize, stride: usize) -> Self {
        let (c, h, w) = self.chw();
        let name = self.next_name("pool");
        let layer = MaxPool2d::new(name, c, h, w, size, stride);
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends average pooling.
    pub fn avgpool(mut self, size: usize, stride: usize) -> Self {
        let (c, h, w) = self.chw();
        let name = self.next_name("pool");
        let layer = AvgPool2d::new(name, c, h, w, size, stride);
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a GoogLeNet inception module.
    pub fn inception(mut self, config: crate::inception::InceptionConfig) -> Self {
        let (c, h, w) = self.chw();
        let name = self.next_name("inception");
        let layer = crate::inception::Inception::new(name, c, h, w, config);
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends local response normalization with AlexNet defaults.
    pub fn lrn(mut self) -> Self {
        let (c, h, w) = self.chw();
        let name = self.next_name("lrn");
        let layer = LocalResponseNorm::new(name, c, h, w);
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a flatten stage.
    pub fn flatten(mut self) -> Self {
        let name = self.next_name("flatten");
        let layer = Flatten::new(name, self.cur.clone());
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a fully-connected layer to `out_features`.
    ///
    /// # Panics
    /// Panics if the current shape is not flat (call
    /// [`flatten`](Self::flatten) after convolutional stages first).
    pub fn dense(mut self, out_features: usize) -> Self {
        assert_eq!(
            self.cur.len(),
            1,
            "dense expects a flat input; call .flatten() first (shape {:?})",
            self.cur
        );
        let name = self.next_name("fc");
        let layer = Dense::new(name, self.cur[0], out_features);
        self.cur = layer.out_shape();
        self.layers.push(Box::new(layer));
        self
    }

    /// Finishes the stack: allocates the packed arena, initializes weights
    /// from `seed`, binds layers, and returns the runnable network.
    pub fn build(self, seed: u64) -> Network {
        let mut rng = Rng::new(seed);
        let mut arena_builder = ParamArena::builder();
        let mut bindings = Vec::new();
        let mut specs_all = Vec::new();
        for layer in &self.layers {
            let specs = layer.param_specs();
            let mut segs = Vec::new();
            for spec in &specs {
                segs.push(arena_builder.push(spec.name.clone(), spec.len));
            }
            bindings.push(segs);
            specs_all.push(specs);
        }
        let mut params = arena_builder.build();
        let mut layers = self.layers;
        for ((layer, segs), specs) in layers.iter_mut().zip(&bindings).zip(&specs_all) {
            for (i, spec) in specs.iter().enumerate() {
                spec.init.fill(params.segment_mut(segs[i]), &mut rng);
            }
            layer.bind(segs);
        }
        let grads = ParamArena::like(&params);
        let batch_dims = std::iter::once(0)
            .chain(self.input_shape.iter().copied())
            .collect();
        let first_param = bindings
            .iter()
            .position(|segs| !segs.is_empty())
            .unwrap_or(layers.len());
        Network {
            layers,
            first_param,
            params: Arc::new(params),
            grads,
            loss: SoftmaxCrossEntropy,
            input_shape: self.input_shape,
            num_classes: self.cur.iter().product(),
            scratch: TrainScratch::default(),
            batch_dims,
            frozen: false,
        }
    }
}

/// A runnable feed-forward network.
///
/// All parameters live in one packed [`ParamArena`] (the §5.2 layout);
/// gradients live in a second arena of identical layout. Every worker in a
/// distributed run clones the network (data parallelism replicates the
/// model, §2.3) — a clone copies both arenas and shares nothing. Only the
/// [`forward_replica`](Network::forward_replica) of a frozen network
/// shares its original's parameter arena, which nobody writes again.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    /// Index of the first layer with parameters (`layers.len()` if none):
    /// nobody reads a gradient below it, so backward ends there.
    first_param: usize,
    /// Shared only between a frozen network and its forward replicas;
    /// every write goes through [`Arc::make_mut`].
    params: Arc<ParamArena>,
    grads: ParamArena,
    loss: SoftmaxCrossEntropy,
    input_shape: Vec<usize>,
    num_classes: usize,
    /// Activation arena of the pooled training step (DESIGN.md §11): slot
    /// tensors for the ping/pong layer chain, the batch input copy, and
    /// the softmax probabilities, plus the allocation counters.
    scratch: TrainScratch,
    /// `[batch, …input_shape]` dims with the batch slot patched per step —
    /// persistent so the hot path never rebuilds the list.
    batch_dims: Vec<usize>,
    /// Set by [`freeze`](Self::freeze): `params` holds packed panels.
    frozen: bool,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        // A replica's first step stores its gradients: the layout (empty
        // on a stripped replica) is all it needs.
        let params = Arc::new(ParamArena::clone(&self.params));
        self.replica(params, ParamArena::like(&self.grads))
    }
}

impl Network {
    /// A copy of the layers over `params` and `grads`.
    fn replica(&self, params: Arc<ParamArena>, grads: ParamArena) -> Self {
        Self {
            layers: self.layers.clone(),
            first_param: self.first_param,
            params,
            grads,
            loss: SoftmaxCrossEntropy,
            input_shape: self.input_shape.clone(),
            num_classes: self.num_classes,
            // Replicas warm their own buffers.
            scratch: TrainScratch::default(),
            batch_dims: self.batch_dims.clone(),
            frozen: self.frozen,
        }
    }

    /// A replica for forward passes only, such as an evaluation's: the
    /// layers and parameters without a gradient arena, so
    /// [`forward_backward`](Self::forward_backward) panics on it as on a
    /// frozen network. A frozen network's replica reads the original's
    /// parameter arena in place — no weight is copied — while an
    /// unfrozen one's copies it, since its original may train on.
    pub fn forward_replica(&self) -> Self {
        let params = if self.frozen {
            Arc::clone(&self.params)
        } else {
            Arc::new(ParamArena::clone(&self.params))
        };
        self.replica(params, ParamArena::flat(0))
    }

    /// Per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Model size in bytes — the packed message size of §5.2.
    pub fn size_bytes(&self) -> usize {
        self.params.size_bytes()
    }

    /// The packed parameter arena.
    pub fn params(&self) -> &ParamArena {
        &self.params
    }

    /// Mutable packed parameter arena (optimizers write here).
    ///
    /// # Panics
    /// Panics on a frozen network (see [`freeze`](Self::freeze)).
    pub fn params_mut(&mut self) -> &mut ParamArena {
        self.assert_not_frozen("params_mut");
        Arc::make_mut(&mut self.params)
    }

    /// The gradient arena from the last [`forward_backward`](Self::forward_backward).
    pub fn grads(&self) -> &ParamArena {
        &self.grads
    }

    /// Both arenas as flat slices, mutable: they are disjoint, so an
    /// update kernel reads the gradient where backward wrote it (and L2
    /// decay folds the weights into it) without a copy of either.
    ///
    /// # Panics
    /// Panics on a frozen network (see [`freeze`](Self::freeze)).
    pub fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        self.assert_not_frozen("params_and_grads_mut");
        let params = Arc::make_mut(&mut self.params);
        (params.as_mut_slice(), self.grads.as_mut_slice())
    }

    /// Per-parameter-segment `(name, len)` pairs, in arena order — the
    /// per-layer message schedule of the *unpacked* layout (Figure 10).
    pub fn segment_sizes(&self) -> Vec<(String, usize)> {
        self.params
            .segments()
            .iter()
            .map(|s| (s.name.clone(), s.len))
            .collect()
    }

    /// Forward propagation on a batch `[B, …input_shape]`; returns logits
    /// `[B, classes]`.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        // xtask: allow(step-alloc) — inference-only entry point; training
        // steps go through the pooled `forward_backward`.
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&self.params, &cur, train);
        }
        cur
    }

    /// One full training evaluation: forward, loss, backward. Every
    /// parametrised layer stores its gradients into
    /// [`grads`](Self::grads), so nothing zeroes the arena first.
    /// Backward ends at the first layer that has parameters, which runs
    /// its [`Layer::backward_params_into`]: no `∂L/∂input` is computed
    /// that no parameter gradient depends on.
    ///
    /// This is the pooled path: activations and gradients ping-pong
    /// between two slot tensors checked out of the step scratch, every
    /// layer sizes its buffers through the counted `ensure_*` helpers, and
    /// after one warm-up step the steady state performs zero heap
    /// allocations (DESIGN.md §11) while remaining bit-identical to the
    /// allocating shims.
    pub fn forward_backward(&mut self, x: &Tensor, labels: &[usize]) -> StepStats {
        assert_eq!(
            self.grads.len(),
            self.params.len(),
            "forward_backward on a gradient-stripped inference replica \
             (see freeze)"
        );
        let mut ping = self.scratch.take_ping();
        let mut pong = self.scratch.take_pong();
        let mut probs = self.scratch.take_probs();
        let s = &mut self.scratch;
        forward_chain(&mut self.layers, &self.params, x, &mut ping, &mut pong, s);
        let (loss, correct) = self
            .loss
            .forward_into(&pong, labels, &mut probs, &mut self.scratch);
        self.loss
            .backward_into(&probs, labels, &mut ping, &mut self.scratch);

        // The first parametrised layer's input gradient, and everything
        // below it, would feed nothing.
        if let Some((first, later)) = self.layers[self.first_param..].split_first_mut() {
            let (params, grads, scratch) = (&self.params, &mut self.grads, &mut self.scratch);
            for layer in later.iter_mut().rev() {
                layer.backward_into(params, grads, &ping, &mut pong, scratch);
                std::mem::swap(&mut ping, &mut pong);
            }
            first.backward_params_into(params, grads, &ping, &mut pong, scratch);
        }

        self.scratch.put_ping(ping);
        self.scratch.put_pong(pong);
        self.scratch.put_probs(probs);
        StepStats {
            loss,
            correct,
            batch: labels.len(),
        }
    }

    /// [`forward_backward`](Self::forward_backward) over a flat pixel
    /// buffer (the decoded form of a wire batch): shapes the pooled batch
    /// tensor to `[batch, …input_shape]`, copies the pixels in, and steps
    /// — no per-call tensor allocation once warm.
    ///
    /// # Panics
    /// Panics if `pixels.len()` disagrees with `batch` samples.
    pub fn forward_backward_from_slice(
        &mut self,
        batch: usize,
        pixels: &[f32],
        labels: &[usize],
    ) -> StepStats {
        let x = load_batch(&mut self.batch_dims, batch, pixels, &mut self.scratch);
        let stats = self.forward_backward(&x, labels);
        self.scratch.put_batch(x);
        stats
    }

    /// Forward-only inference on a batch `[B, …input_shape]`, writing
    /// logits `[B, classes]` into `logits` — the pooled counterpart of
    /// the allocating [`forward`](Self::forward) shim. It runs the
    /// forward of [`forward_backward`](Self::forward_backward): no
    /// layer's forward depends on training or serving.
    ///
    /// All transient buffers are sized through the caller's
    /// [`InferScratch`], not the network's training scratch, so an
    /// inference session carries its replica state (network clone +
    /// scratch) and reaches a zero-allocations-per-request steady state
    /// after one warm-up batch per distinct batch size. Outputs are
    /// bit-identical to `forward(x, false)`.
    pub fn infer_into(&mut self, x: &Tensor, logits: &mut Tensor, scratch: &mut InferScratch) {
        let s = scratch.train_scratch();
        let mut ping = s.take_ping();
        let mut pong = s.take_pong();
        forward_chain(&mut self.layers, &self.params, x, &mut ping, &mut pong, s);
        s.shape_tensor(logits, pong.shape().dims());
        logits.as_mut_slice().copy_from_slice(pong.as_slice());
        s.put_ping(ping);
        s.put_pong(pong);
    }

    /// [`infer_into`](Self::infer_into) over a flat pixel buffer (the
    /// decoded form of a serving request batch): shapes the scratch's
    /// batch tensor to `[batch, …input_shape]`, copies the pixels in,
    /// and runs the forward-only path — no per-call tensor allocation
    /// once warm.
    ///
    /// # Panics
    /// Panics if `pixels.len()` disagrees with `batch` samples.
    pub fn infer_from_slice(
        &mut self,
        batch: usize,
        pixels: &[f32],
        logits: &mut Tensor,
        scratch: &mut InferScratch,
    ) {
        let x = load_batch(&mut self.batch_dims, batch, pixels, scratch.train_scratch());
        self.infer_into(&x, logits, scratch);
        scratch.train_scratch().put_batch(x);
    }

    /// Makes the network a serving replica. It drops the gradient arena
    /// (half a training replica's memory; `forward_backward` panics from
    /// here on), then lays every weight that a packing GEMM reads out as
    /// its microkernel panels ([`Layer::freeze`]) *instead of* row-major —
    /// in the parameter arena's own storage, so there is one copy of each.
    /// Forward results keep every bit; the layers keep nothing for a
    /// backward, and since a write to the parameters would miss the
    /// panels, every entry point that writes them panics. Freezing a
    /// frozen network does nothing.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        self.grads = ParamArena::flat(0);
        let panels: Vec<_> = self.layers.iter_mut().flat_map(|l| l.freeze()).collect();
        Arc::make_mut(&mut self.params).pack_segments(&panels);
        self.frozen = true;
    }

    fn assert_not_frozen(&self, entry: &str) {
        assert!(
            !self.frozen,
            "{entry} on a frozen network: its weights are packed for serving, a write would not reach them"
        );
    }

    /// Allocation counters of the pooled step scratch. A warmed-up
    /// steady-state step leaves [`ScratchStats::allocations`] unchanged;
    /// the train bench and the regression tests assert exactly that.
    pub fn scratch_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Classification accuracy over a labelled set, evaluated in batches
    /// of `batch`.
    ///
    /// # Panics
    /// Panics if `images` and `labels` disagree on the sample count, or
    /// if `batch` is 0.
    pub fn evaluate(&mut self, images: &Tensor, labels: &[usize], batch: usize) -> f32 {
        let n = labels.len();
        assert!(n > 0, "empty evaluation set");
        assert!(batch > 0, "evaluate: batch must be at least 1");
        let per: usize = self.input_shape.iter().product();
        assert_eq!(images.len(), n * per, "evaluate: images/labels mismatch");
        let mut correct = 0usize;
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let bsz = end - start;
            let mut shape = vec![bsz];
            shape.extend_from_slice(&self.input_shape);
            let x = Tensor::from_vec(shape, images.as_slice()[start * per..end * per].to_vec());
            let logits = self.forward(&x, false);
            for (s, &label) in labels[start..end].iter().enumerate() {
                let row = &logits.as_slice()[s * self.num_classes..(s + 1) * self.num_classes];
                if easgd_tensor::ops::argmax(row) == Some(label) {
                    correct += 1;
                }
            }
            start = end;
        }
        correct as f32 / n as f32
    }

    /// Overwrites all parameters from a flat slice.
    ///
    /// # Panics
    /// Panics if `src.len() != num_params()`, or on a frozen network.
    pub fn set_params(&mut self, src: &[f32]) {
        self.assert_not_frozen("set_params");
        assert_eq!(src.len(), self.params.len(), "parameter length mismatch");
        Arc::make_mut(&mut self.params)
            .as_mut_slice()
            .copy_from_slice(src);
    }

    /// Layer count (diagnostics).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Checks the batch tensor out of `s`, shaped `[batch, …input_shape]`
/// (`dims` with its batch slot patched), with `pixels` copied in.
///
/// # Panics
/// Panics if `pixels.len()` disagrees with `batch` samples.
fn load_batch(dims: &mut [usize], batch: usize, pixels: &[f32], s: &mut TrainScratch) -> Tensor {
    let per: usize = dims[1..].iter().product();
    assert_eq!(
        pixels.len(),
        batch * per,
        "flat batch length mismatch: {} pixels for {batch} samples of {per}",
        pixels.len()
    );
    dims[0] = batch;
    let mut x = s.take_batch();
    s.shape_tensor(&mut x, dims);
    x.as_mut_slice().copy_from_slice(pixels);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_tensor::{Panels, Transpose};

    fn tiny_net() -> Network {
        NetworkBuilder::new([1, 6, 6])
            .conv2d(2, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .flatten()
            .dense(10)
            .build(7)
    }

    /// The VGG-shaped CIFAR stack of `train_vgg_p1`.
    fn vgg_shaped() -> Network {
        NetworkBuilder::new([3, 32, 32])
            .conv2d(32, 3, 1, 1)
            .relu()
            .conv2d(32, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .conv2d(64, 3, 1, 1)
            .relu()
            .conv2d(64, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .conv2d(128, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .flatten()
            .dense(256)
            .relu()
            .dense(10)
            .build(3)
    }

    #[test]
    fn builder_tracks_shapes() {
        let net = tiny_net();
        assert_eq!(net.num_classes(), 10);
        assert_eq!(net.input_shape(), &[1, 6, 6]);
        // conv(1→2, 3x3 pad 1): 2*9+2 = 20; fc(2*3*3=18→10): 190. Total 210.
        assert_eq!(net.num_params(), 20 + 190);
    }

    #[test]
    fn evaluation_leaves_each_conv_its_padded_batch_and_no_lowered_matrix() {
        // A column cache held 9·c·h·w floats a sample here — 2.3 MB a
        // sample over the five convs, for an evaluation nobody runs
        // backward on.
        let mut net = vgg_shaped();
        let n = 20;
        let images = Tensor::zeros([n, 3, 32, 32]);
        net.evaluate(&images, &vec![0; n], 256);
        let held: Vec<usize> = net.layers.iter().map(|l| l.held_floats()).collect();
        let padded = [
            3 * 34 * 34,
            32 * 34 * 34,
            32 * 18 * 18,
            64 * 18 * 18,
            64 * 10 * 10,
        ];
        let convs: Vec<usize> = held.iter().copied().filter(|&f| f > 0).collect();
        assert_eq!(convs, padded.map(|p| n * p));
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn evaluate_refuses_a_zero_batch() {
        // A zero batch never advances through the set.
        let mut net = tiny_net();
        net.evaluate(&Tensor::zeros([2, 1, 6, 6]), &[0, 1], 0);
    }

    #[test]
    fn forward_shape_is_batch_by_classes() {
        let mut net = tiny_net();
        let x = Tensor::zeros([5, 1, 6, 6]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), &[5, 10]);
    }

    #[test]
    fn forward_backward_fills_grads() {
        let mut net = tiny_net();
        let mut rng = Rng::new(1);
        let mut x = Tensor::zeros([4, 1, 6, 6]);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let stats = net.forward_backward(&x, &[0, 1, 2, 3]);
        assert!(stats.loss > 0.0);
        assert_eq!(stats.batch, 4);
        let g = net.grads().as_slice();
        assert!(g.iter().any(|&v| v != 0.0), "gradients all zero");
    }

    #[test]
    fn every_layer_stores_its_gradients_whatever_the_arena_held() {
        // Backward stores each parametrised layer's segments, so a step
        // from a NaN-filled arena gives the bits of a step from zeros: a
        // NaN that any layer reads reaches every bit it touches.
        use crate::models::{googlenet_tiny, mlp};
        let conv = || NetworkBuilder::new([2, 6, 6]).conv2d(3, 3, 1, 1).relu();
        let nets = [
            ("dense", mlp(12, &[9], 4, 1)),
            ("conv", conv().flatten().dense(4).build(2)),
            ("inception", googlenet_tiny(4)),
        ];
        for (name, net) in nets {
            let mut dims = vec![3];
            dims.extend_from_slice(net.input_shape());
            let mut x = Tensor::zeros(dims);
            Rng::new(5).fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let labels: Vec<usize> = (0..3).map(|i| i % net.num_classes()).collect();
            let step = |fill: f32| {
                let mut net = net.clone();
                net.grads.as_mut_slice().fill(fill);
                net.forward_backward(&x, &labels);
                let g = net.grads.as_slice();
                g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(step(f32::NAN), step(0.0), "{name}");
        }
    }

    #[test]
    fn a_small_batch_step_packs_no_weight_in_its_forward() {
        // The MLP workload's step at batch 2: every forward `x·Wᵀ` runs
        // the transposed stream nest against the stored weight. The
        // counts repeat exactly, and but for forks at every budget.
        use easgd_tensor::gemm::{counts, Counts};
        use easgd_tensor::par;
        let mut net = crate::models::mlp(784, &[1024, 1024], 10, 7);
        let mut x = Tensor::zeros([2, 784]);
        Rng::new(8).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let labels = [3, 8];
        net.forward_backward(&x, &labels);
        let mut step = |budget: usize| {
            par::with_budget(budget, || {
                let before = counts();
                net.forward(&x, true);
                let forward = counts().since(&before);
                net.forward_backward(&x, &labels);
                (forward, counts().since(&before))
            })
        };
        let (forward, serial) = step(1);
        assert_eq!((forward.a_packed, forward.b_packed), (0, 0));
        assert_eq!(forward.transposed_stream.calls, 3);
        assert_eq!(
            forward.transposed_stream.flops,
            4 * (784 + 1024 + 10) * 1024
        );
        assert_eq!(serial.forks, 0);
        for budget in 1..=3 {
            let (first, again) = (step(budget).1, step(budget).1);
            assert_eq!(first, again, "budget {budget}: runs differ");
            assert_eq!(Counts { forks: 0, ..first }, serial, "budget {budget}");
        }
    }

    #[test]
    fn sgd_loop_reduces_loss() {
        // A single linearly-separable blob task must be learnable.
        let mut net = NetworkBuilder::new([4]).dense(8).relu().dense(2).build(3);
        let mut rng = Rng::new(9);
        let n = 64;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..4 {
                xs.push(center + 0.3 * rng.normal());
            }
            labels.push(class);
        }
        let x = Tensor::from_vec([n, 4], xs);
        let first = net.forward_backward(&x, &labels).loss;
        for _ in 0..60 {
            let stats = net.forward_backward(&x, &labels);
            let g = net.grads.as_slice().to_vec();
            easgd_tensor::ops::sgd_update(0.5, net.params_mut().as_mut_slice(), &g);
            let _ = stats;
        }
        let last = net.forward_backward(&x, &labels);
        assert!(
            last.loss < first * 0.3,
            "loss did not drop: {first} -> {}",
            last.loss
        );
        assert!(last.accuracy() > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = tiny_net();
        let mut b = tiny_net();
        assert_eq!(a.params().as_slice(), b.params().as_slice());
        let x = Tensor::full([2, 1, 6, 6], 0.5);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn clone_is_independent_replica() {
        let mut a = tiny_net();
        let mut b = a.clone();
        b.params_mut().as_mut_slice()[0] += 1.0;
        assert_ne!(a.params().as_slice()[0], b.params().as_slice()[0]);
        // Both still runnable.
        let x = Tensor::zeros([1, 1, 6, 6]);
        let _ = a.forward(&x, false);
        let _ = b.forward(&x, false);
    }

    #[test]
    fn only_a_frozen_networks_forward_replica_shares_its_arena() {
        let shares = |a: &Network, b: &Network| Arc::ptr_eq(&a.params, &b.params);
        let mut net = tiny_net();
        assert!(!shares(&net, &net.clone()));
        assert!(!shares(&net, &net.forward_replica()));
        net.freeze();
        assert!(!shares(&net, &net.clone()));
        let mut replica = net.forward_replica();
        assert!(shares(&net, &replica));
        // Freezing the replica again leaves the shared panels as they are.
        replica.freeze();
        assert!(shares(&net, &replica));
        let x = Tensor::full([2, 1, 6, 6], 0.5);
        assert_eq!(
            replica.forward(&x, false).as_slice(),
            net.forward(&x, false).as_slice()
        );
    }

    #[test]
    fn a_clone_copies_the_parameters_and_starts_with_zero_gradients() {
        let mut a = tiny_net();
        let mut x = Tensor::zeros([4, 1, 6, 6]);
        Rng::new(5).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        a.forward_backward(&x, &[0, 1, 2, 3]);
        assert!(a.grads().as_slice().iter().any(|&g| g != 0.0));
        let mut b = a.clone();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(b.params().as_slice()), bits(a.params().as_slice()));
        assert_eq!(b.grads().segments(), a.grads().segments());
        assert!(b.grads().as_slice().iter().all(|&g| g.to_bits() == 0));
        // The replica warms its own caches and then agrees with the original.
        let (sa, sb) = (
            a.forward_backward(&x, &[0, 1, 2, 3]),
            b.forward_backward(&x, &[0, 1, 2, 3]),
        );
        assert_eq!(sa.loss.to_bits(), sb.loss.to_bits());
        assert_eq!(bits(b.grads().as_slice()), bits(a.grads().as_slice()));
        // A frozen replica's clone stays frozen.
        a.freeze();
        assert!(a.clone().grads().is_empty());
    }

    /// An identity stage on `[4]` that records which backward entry point
    /// the network called on it.
    #[derive(Clone)]
    struct Probe {
        id: usize,
        parametrised: bool,
        calls: std::sync::Arc<std::sync::Mutex<Vec<(usize, &'static str)>>>,
    }

    impl Probe {
        fn record(&self, entry: &'static str, from: &Tensor, to: &mut Tensor) {
            self.calls.lock().unwrap().push((self.id, entry));
            *to = from.clone();
        }
    }

    impl Layer for Probe {
        fn name(&self) -> String {
            format!("probe{}", self.id)
        }
        fn param_specs(&self) -> Vec<crate::layer::ParamSpec> {
            let spec = crate::layer::ParamSpec {
                name: format!("probe{}.w", self.id),
                len: 1,
                init: crate::layer::Init::Constant(0.0),
            };
            if self.parametrised {
                vec![spec]
            } else {
                Vec::new()
            }
        }
        fn out_shape(&self) -> Vec<usize> {
            vec![4]
        }
        fn forward_into(
            &mut self,
            _: &ParamArena,
            input: &Tensor,
            _: bool,
            out: &mut Tensor,
            _: &mut TrainScratch,
        ) {
            *out = input.clone();
        }
        fn backward_into(
            &mut self,
            _: &ParamArena,
            _: &mut ParamArena,
            grad_out: &Tensor,
            grad_in: &mut Tensor,
            _: &mut TrainScratch,
        ) {
            self.record("full", grad_out, grad_in);
        }
        fn backward_params_into(
            &mut self,
            _: &ParamArena,
            _: &mut ParamArena,
            grad_out: &Tensor,
            grad_in: &mut Tensor,
            _: &mut TrainScratch,
        ) {
            self.record("params-only", grad_out, grad_in);
        }
        fn boxed_clone(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn backward_ends_with_the_params_only_entry_of_the_first_parametrised_layer() {
        let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        // Stateless (where a leading Flatten sits), parametrised,
        // stateless, parametrised.
        let stack = |kinds: &[bool]| {
            let layers = kinds.iter().enumerate().map(|(id, &parametrised)| {
                Box::new(Probe {
                    id,
                    parametrised,
                    calls: calls.clone(),
                }) as Box<dyn Layer>
            });
            NetworkBuilder {
                input_shape: vec![4],
                cur: vec![4],
                layers: layers.collect(),
                n: 0,
            }
            .build(1)
        };
        let x = Tensor::zeros([2, 4]);
        for (kinds, want) in [
            (
                &[false, true, false, true][..],
                vec![(3, "full"), (2, "full"), (1, "params-only")],
            ),
            (&[true, false], vec![(1, "full"), (0, "params-only")]),
            (&[false, false], vec![]),
        ] {
            // A clone carries the stopping point with it.
            stack(kinds).clone().forward_backward(&x, &[0, 1]);
            assert_eq!(std::mem::take(&mut *calls.lock().unwrap()), want);
        }
    }

    /// `Network::forward_backward` as `benchmark/`'s `Chain` spells it:
    /// the full `backward_into` on every layer, down to the input.
    fn full_backward_reference(net: &mut Network, x: &Tensor, labels: &[usize]) -> f32 {
        let mut cur = x.clone();
        for layer in &mut net.layers {
            cur = layer.forward(&net.params, &cur, true);
        }
        let (mut probs, mut g) = (Tensor::default(), Tensor::default());
        let mut scratch = TrainScratch::default();
        let (loss, _) = net
            .loss
            .forward_into(&cur, labels, &mut probs, &mut scratch);
        net.loss.backward_into(&probs, labels, &mut g, &mut scratch);
        net.grads.zero();
        for layer in net.layers.iter_mut().rev() {
            g = layer.backward(&net.params, &mut net.grads, &g);
        }
        loss
    }

    proptest::proptest! {
        #[test]
        fn stopping_backward_early_changes_no_bit_of_loss_or_gradient(
            model in 0usize..5,
            batch in 1usize..6,
            threads in 1usize..4,
            dirty in proptest::prop::bool::ANY,
        ) {
            use crate::models::{googlenet_tiny, lenet_tiny, mlp};
            let mut net = match model {
                0 => mlp(48, &[40, 24], 10, 5),
                1 => NetworkBuilder::new([3, 4, 4])
                    .flatten()
                    .dense(24)
                    .relu()
                    .dense(10)
                    .build(6),
                2 => lenet_tiny(7),
                3 => vgg_shaped(),
                _ => googlenet_tiny(8),
            };
            let mut rng = Rng::new((model * 31 + batch * 7 + threads) as u64);
            let mut dims = vec![batch];
            dims.extend_from_slice(net.input_shape());
            let mut x = Tensor::zeros(dims);
            let labels: Vec<usize> = (0..batch).map(|s| (s * 3 + model) % 10).collect();
            let mut reference = net.clone();
            if dirty {
                // Both spellings zero the arena before they accumulate.
                rng.fill_normal(net.grads.as_mut_slice(), 0.0, 1.0);
                reference.grads.copy_from(&net.grads);
            }
            let bits = |a: &ParamArena| -> Vec<u32> {
                a.as_slice().iter().map(|g| g.to_bits()).collect()
            };
            // The second step runs on warm caches and the first's gradients.
            for step in 0..2 {
                rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
                let (got, want) = easgd_tensor::par::with_budget(threads, || {
                    (
                        net.forward_backward(&x, &labels).loss,
                        full_backward_reference(&mut reference, &x, &labels),
                    )
                });
                let at = format!(
                    "model {model} batch {batch} threads {threads} dirty {dirty} step {step}"
                );
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "loss, {}", at);
                proptest::prop_assert_eq!(
                    bits(net.grads()),
                    bits(reference.grads()),
                    "gradients, {}",
                    at
                );
            }
        }
    }

    #[test]
    fn evaluate_counts_correct_fraction() {
        let mut net = tiny_net();
        let mut rng = Rng::new(2);
        let mut images = Tensor::zeros([10, 1, 6, 6]);
        rng.fill_normal(images.as_mut_slice(), 0.0, 1.0);
        let labels = vec![0usize; 10];
        let acc = net.evaluate(&images, &labels, 4);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn segment_sizes_enumerate_layers() {
        let net = tiny_net();
        let sizes = net.segment_sizes();
        assert_eq!(sizes.len(), 4); // conv w+b, fc w+b
        assert_eq!(sizes[0].0, "conv1.weight");
        let total: usize = sizes.iter().map(|(_, l)| l).sum();
        assert_eq!(total, net.num_params());
    }

    #[test]
    #[should_panic(expected = "flatten")]
    fn dense_requires_flat_input() {
        let _ = NetworkBuilder::new([1, 4, 4]).dense(10);
    }

    #[test]
    fn infer_into_matches_allocating_forward_bitwise() {
        let mut net = tiny_net();
        let mut rng = Rng::new(11);
        let mut x = Tensor::zeros([3, 1, 6, 6]);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let reference = net.forward(&x, false);
        let mut scratch = InferScratch::new();
        let mut logits = Tensor::default();
        net.infer_into(&x, &mut logits, &mut scratch);
        assert_eq!(logits.shape().dims(), reference.shape().dims());
        for (a, b) in logits.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn one_pass_at_a_batch_warms_every_inception_slot() {
        // An inception branch's ping-pong slots play one part on every
        // call, so a second pass at the warmed batch allocates nothing,
        // forward-only or training: a two-layer branch trades them once
        // each way.
        let mut net = crate::models::googlenet_tiny(3);
        let mut x = Tensor::zeros([4, 3, 16, 16]);
        Rng::new(4).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let (mut scratch, mut logits) = (InferScratch::new(), Tensor::default());
        net.infer_into(&x, &mut logits, &mut scratch);
        let warm = scratch.stats();
        net.infer_into(&x, &mut logits, &mut scratch);
        assert_eq!(scratch.stats().since(&warm).allocations(), 0, "inference");
        let labels = [0, 1, 2, 3];
        net.forward_backward(&x, &labels);
        let warm = net.scratch_stats();
        net.forward_backward(&x, &labels);
        let step = net.scratch_stats().since(&warm);
        assert_eq!(step.allocations(), 0, "training");
    }

    #[test]
    fn infer_from_slice_is_zero_alloc_once_warm() {
        let mut net = tiny_net();
        let mut rng = Rng::new(12);
        let per: usize = net.input_shape().iter().product();
        let mut pixels = vec![0.0f32; 4 * per];
        rng.fill_normal(&mut pixels, 0.0, 1.0);
        let mut scratch = InferScratch::new();
        let mut logits = Tensor::default();
        // Warm-up at both batch sizes the window replays.
        net.infer_from_slice(4, &pixels, &mut logits, &mut scratch);
        net.infer_from_slice(1, &pixels[..per], &mut logits, &mut scratch);
        let warm = scratch.stats();
        for _ in 0..3 {
            net.infer_from_slice(4, &pixels, &mut logits, &mut scratch);
            net.infer_from_slice(1, &pixels[..per], &mut logits, &mut scratch);
        }
        let delta = scratch.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "steady-state inference allocated");
        assert!(delta.reused > 0, "counters saw no requests");
    }

    #[test]
    fn frozen_replica_still_infers() {
        let mut net = tiny_net();
        let x = Tensor::full([2, 1, 6, 6], 0.25);
        let reference = net.forward(&x, false);
        net.freeze();
        let mut scratch = InferScratch::new();
        let mut logits = Tensor::default();
        net.infer_into(&x, &mut logits, &mut scratch);
        assert_eq!(logits.as_slice(), reference.as_slice());
    }

    #[test]
    fn a_frozen_lenet_holds_one_copy_of_its_weights_and_forwards_the_same_bits() {
        let mut net = crate::models::lenet(1);
        let mut x = Tensor::zeros([3, 1, 28, 28]);
        Rng::new(13).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let (row_major, want) = (net.size_bytes(), net.forward(&x, false));
        net.freeze();
        // The panels replace the row-major weights: only the padding of
        // each packed matrix to whole tiles is added — the filter banks'
        // rows to MR, the dense layers' outputs to NR (fc2's 10 to 32).
        let (no, yes) = (Transpose::No, Transpose::Yes);
        let padding: usize = [
            (Panels::a(no, 20, 25), 20 * 25),
            (Panels::a(no, 50, 500), 50 * 500),
            (Panels::b(yes, 800, 500), 800 * 500),
            (Panels::b(yes, 500, 10), 500 * 10),
        ]
        .iter()
        .map(|(p, row_major)| p.floats() - row_major)
        .sum();
        let float_bytes = std::mem::size_of::<f32>();
        assert_eq!(net.size_bytes(), row_major + padding * float_bytes);
        assert!(net.grads().is_empty());
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&net.clone().forward(&x, false)), bits(&want));
    }

    #[test]
    #[should_panic(expected = "is frozen")]
    fn a_frozen_networks_conv_refuses_backward_even_given_gradients() {
        let mut net = frozen_tiny_net();
        let x = Tensor::zeros([2, 1, 6, 6]);
        let conv = &mut net.layers[0];
        let y = conv.forward(&net.params, &x, false);
        let mut grads = ParamArena::like(&net.params);
        conv.backward(&net.params, &mut grads, &y);
    }

    fn frozen_tiny_net() -> Network {
        let mut net = tiny_net();
        net.freeze();
        net
    }

    #[test]
    #[should_panic(expected = "params_mut on a frozen network")]
    fn a_frozen_network_refuses_params_mut() {
        let _ = frozen_tiny_net().params_mut();
    }

    #[test]
    #[should_panic(expected = "set_params on a frozen network")]
    fn a_frozen_network_refuses_set_params() {
        let mut net = frozen_tiny_net();
        let weights = vec![0.0; net.num_params()];
        net.set_params(&weights);
    }

    #[test]
    #[should_panic(expected = "params_and_grads_mut on a frozen network")]
    fn a_frozen_network_refuses_params_and_grads_mut() {
        let _ = frozen_tiny_net().params_and_grads_mut();
    }

    #[test]
    #[should_panic(expected = "gradient-stripped")]
    fn frozen_replica_cannot_train() {
        let mut net = frozen_tiny_net();
        let x = Tensor::zeros([1, 1, 6, 6]);
        let _ = net.forward_backward(&x, &[0]);
    }
}
