//! One worker's local optimization state: network replica, the optimiser
//! state its method uses, and per-step loss trace.
//!
//! [`LocalStep`] is the compute half of every trainer — wall-clock and
//! simulated alike. It owns the forward/backward call and the local
//! update rules (SGD, momentum, and the elastic forms via
//! [`ElasticRule`]), so the exact FP evaluation order of a training step
//! lives in exactly one place.
//!
//! A step sweeps a parameter-sized array only for a reader: the gradient
//! is read where backward wrote it, in the network's own arena, and the
//! velocity and the centre snapshot exist from the first call that uses
//! them. A Sync EASGD or plain SGD worker holds two arenas (parameters,
//! gradients), Async EASGD three (+ snapshot), MEASGD four (+ velocity).

use crate::engine::elastic::ElasticRule;
use crate::schedule::apply_weight_decay;
use easgd_data::Batch;
use easgd_nn::Network;
use easgd_tensor::ops;

/// Per-worker training state plus the step kernels that mutate it.
pub struct LocalStep {
    net: Network,
    /// Momentum state: empty until the first momentum step sizes it.
    velocity: Vec<f32>,
    /// Centre snapshot: empty until the first one is taken.
    snapshot: Vec<f32>,
    loss_trace: Vec<f32>,
    last_loss: f32,
}

/// `snapshot`, once one was taken. It is born empty, so an elastic step
/// before any snapshot stops here rather than pull toward zeros.
fn taken<'a>(snapshot: &'a [f32], method: &str) -> &'a [f32] {
    assert!(
        !snapshot.is_empty(),
        "LocalStep::{method}: no centre snapshot taken"
    );
    snapshot
}

impl LocalStep {
    /// A fresh replica of `proto`.
    pub fn new(proto: &Network) -> Self {
        Self {
            net: proto.clone(),
            velocity: Vec::new(),
            snapshot: Vec::new(),
            loss_trace: Vec::new(),
            last_loss: f32::NAN,
        }
    }

    /// One forward/backward pass: records the loss and leaves the
    /// gradient in the network's arena. Returns the step loss.
    pub fn forward_backward(&mut self, batch: &Batch) -> f32 {
        let stats = self.net.forward_backward(&batch.images, &batch.labels);
        self.record_loss(stats.loss)
    }

    /// [`LocalStep::forward_backward`] over a flat pixel buffer (the
    /// decoded form of a [`easgd_cluster::BatchMsg`]): copies the pixels
    /// into the network's pooled batch tensor and steps on it — no
    /// per-round tensor allocation once warm.
    pub fn forward_backward_flat(&mut self, batch: usize, pixels: &[f32], labels: &[usize]) -> f32 {
        let stats = self.net.forward_backward_from_slice(batch, pixels, labels);
        self.record_loss(stats.loss)
    }

    fn record_loss(&mut self, loss: f32) -> f32 {
        self.last_loss = loss;
        self.loss_trace.push(loss);
        loss
    }

    /// Plain SGD step `W ← W − ηΔW` on the last gradient.
    pub fn sgd_step(&mut self, eta: f32) {
        let (w, g) = self.net.params_and_grads_mut();
        ops::sgd_update(eta, w, g);
    }

    /// Momentum step, Equations (3)–(4), on the last gradient.
    pub fn momentum_step(&mut self, eta: f32, mu: f32) {
        self.velocity.resize(self.net.num_params(), 0.0);
        let (w, g) = self.net.params_and_grads_mut();
        ops::momentum_update(eta, mu, w, &mut self.velocity, g);
    }

    /// Adds `λ·W` to the last gradient, in place (L2 weight decay).
    pub fn decay_grad(&mut self, lambda: f32) {
        let (w, g) = self.net.params_and_grads_mut();
        apply_weight_decay(lambda, w, g);
    }

    /// Equation (1) against the stored center snapshot. Like every
    /// method that reads the snapshot, panics if none was taken.
    pub fn elastic_step(&mut self, rule: &ElasticRule) {
        let center = taken(&self.snapshot, "elastic_step");
        let (w, g) = self.net.params_and_grads_mut();
        rule.worker_pull(w, g, center);
    }

    /// Equation (1) against an explicit center (simulated trainers that
    /// receive the center over the wire).
    pub fn elastic_step_against(&mut self, rule: &ElasticRule, center: &[f32]) {
        let (w, g) = self.net.params_and_grads_mut();
        rule.worker_pull(w, g, center);
    }

    /// The fused exchange step against an explicit center: publishes the
    /// pre-update weights into `contribution` (the Equation (2) reduce
    /// input) and applies Equation (1), in one sweep. Bit-identical to
    /// copying [`LocalStep::params`] out and then calling
    /// [`LocalStep::elastic_step_against`].
    pub fn elastic_exchange_against(
        &mut self,
        rule: &ElasticRule,
        center: &[f32],
        contribution: &mut [f32],
    ) {
        let (w, g) = self.net.params_and_grads_mut();
        rule.exchange(w, contribution, g, center);
    }

    /// One segment of [`LocalStep::elastic_exchange_against`]: the fused
    /// exchange restricted to `range` of the parameter arena. Because the
    /// rule is purely elementwise, running it segment by segment over a
    /// partition of `0..num_params` is bit-identical to one whole-vector
    /// call — the contract the pipelined tree exchange builds on.
    pub fn elastic_exchange_segment(
        &mut self,
        rule: &ElasticRule,
        range: std::ops::Range<usize>,
        center_seg: &[f32],
        contribution_seg: &mut [f32],
    ) {
        let (w, g) = self.net.params_and_grads_mut();
        rule.exchange(
            &mut w[range.clone()],
            contribution_seg,
            &g[range],
            center_seg,
        );
    }

    /// [`LocalStep::elastic_exchange_against`] using the stored center
    /// snapshot (the shared-memory Sync EASGD path).
    pub fn elastic_exchange_step(&mut self, rule: &ElasticRule, contribution: &mut [f32]) {
        let center = taken(&self.snapshot, "elastic_exchange_step");
        let (w, g) = self.net.params_and_grads_mut();
        rule.exchange(w, contribution, g, center);
    }

    /// Equations (5)–(6) against the stored center snapshot.
    pub fn elastic_momentum_step(&mut self, rule: &ElasticRule) {
        self.velocity.resize(self.net.num_params(), 0.0);
        let center = taken(&self.snapshot, "elastic_momentum_step");
        let (w, g) = self.net.params_and_grads_mut();
        rule.momentum_pull(w, &mut self.velocity, g, center);
    }

    /// Copies `center` into the snapshot buffer.
    pub fn snapshot_center(&mut self, center: &[f32]) {
        self.snapshot_mut().copy_from_slice(center);
    }

    /// Mutable snapshot buffer, for fillers like
    /// `AtomicBuffer::snapshot_into`; sized by the first call. Handing it
    /// out counts as taking a snapshot.
    pub fn snapshot_mut(&mut self) -> &mut [f32] {
        self.snapshot.resize(self.net.num_params(), 0.0);
        &mut self.snapshot
    }

    /// Loads the stored snapshot into the network parameters (the
    /// Hogwild SGD read phase).
    pub fn load_snapshot_params(&mut self) {
        self.net
            .set_params(taken(&self.snapshot, "load_snapshot_params"));
    }

    /// Current local parameters.
    pub fn params(&self) -> &[f32] {
        self.net.params().as_slice()
    }

    /// Mutable local parameters (for updates the rule types don't cover,
    /// e.g. Sync SGD's summed-gradient `axpy`).
    pub fn params_mut(&mut self) -> &mut [f32] {
        self.net.params_mut().as_mut_slice()
    }

    /// Overwrites the local parameters.
    pub fn set_params(&mut self, src: &[f32]) {
        self.net.set_params(src);
    }

    /// The gradient of the last forward/backward, read in place from the
    /// network's gradient arena: valid until the next `forward_backward`.
    pub fn grad(&self) -> &[f32] {
        self.net.grads().as_slice()
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Parameter-sized floats this worker holds: the two network arenas
    /// plus whatever optimiser state its method has sized so far.
    #[doc(hidden)]
    pub fn held_floats(&self) -> usize {
        self.net.num_params() + self.grad().len() + self.velocity.len() + self.snapshot.len()
    }

    /// Loss of the most recent step (NaN before the first).
    pub fn last_loss(&self) -> f32 {
        self.last_loss
    }

    /// Consumes the accumulated per-step loss trace.
    pub fn take_loss_trace(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.loss_trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, easgd_data::Dataset) {
        let task = SyntheticSpec::mnist_small().task(3);
        let (train, _) = task.train_test(64, 16, 4);
        (lenet_tiny(5), train)
    }

    fn rule() -> ElasticRule {
        ElasticRule {
            eta: 0.05,
            rho: 0.3,
            mu: 0.9,
        }
    }

    #[test]
    fn forward_backward_matches_raw_network_use() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(17);
        let batch = train.sample_batch(&mut rng, 8);

        let mut local = LocalStep::new(&proto);
        let loss = local.forward_backward(&batch);

        let mut net = proto.clone();
        let stats = net.forward_backward(&batch.images, &batch.labels);
        assert_eq!(loss.to_bits(), stats.loss.to_bits());
        assert_eq!(local.grad(), net.grads().as_slice());
        assert_eq!(local.last_loss().to_bits(), stats.loss.to_bits());
    }

    #[test]
    fn flat_and_batch_paths_agree() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(18);
        let batch = train.sample_batch(&mut rng, 8);

        let mut a = LocalStep::new(&proto);
        let la = a.forward_backward(&batch);
        let mut b = LocalStep::new(&proto);
        let lb = b.forward_backward_flat(8, batch.images.as_slice(), &batch.labels);
        assert_eq!(la.to_bits(), lb.to_bits());
        assert_eq!(a.params(), b.params());
    }

    #[test]
    fn sgd_step_applies_the_captured_gradient() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(19);
        let batch = train.sample_batch(&mut rng, 8);
        let mut local = LocalStep::new(&proto);
        local.forward_backward(&batch);
        let mut want = local.params().to_vec();
        ops::sgd_update(0.1, &mut want, local.grad());
        local.sgd_step(0.1);
        assert_eq!(local.params(), &want[..]);
    }

    #[test]
    fn loss_trace_accumulates_in_step_order() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(20);
        let mut local = LocalStep::new(&proto);
        for _ in 0..3 {
            let batch = train.sample_batch(&mut rng, 8);
            local.forward_backward(&batch);
        }
        let trace = local.take_loss_trace();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[2].to_bits(), local.last_loss().to_bits());
        assert!(local.take_loss_trace().is_empty());
    }

    #[test]
    fn segmented_exchange_is_bit_identical_to_whole_vector() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(21);
        let batch = train.sample_batch(&mut rng, 8);
        let rule = rule();

        let mut whole = LocalStep::new(&proto);
        whole.forward_backward(&batch);
        let n = whole.num_params();
        let center: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 0.1).collect();
        let mut want = vec![0.0f32; n];
        whole.elastic_exchange_against(&rule, &center, &mut want);

        let mut segged = LocalStep::new(&proto);
        segged.forward_backward(&batch);
        let mut got = vec![0.0f32; n];
        // Uneven partition on purpose: 7 segments of n not divisible by 7.
        let segments = 7;
        let mut start = 0;
        for s in 0..segments {
            let end = n * (s + 1) / segments;
            segged.elastic_exchange_segment(
                &rule,
                start..end,
                &center[start..end],
                &mut got[start..end],
            );
            start = end;
        }
        for (a, b) in segged.params().iter().zip(whole.params()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn the_gradient_is_read_where_backward_wrote_it() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(22);
        let mut local = LocalStep::new(&proto);
        local.forward_backward(&train.sample_batch(&mut rng, 8));
        assert_eq!(local.grad().as_ptr(), local.net.grads().as_slice().as_ptr());
    }

    #[test]
    fn optimiser_state_is_sized_by_the_first_method_that_uses_it() {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(23);
        let rule = rule();
        let mut local = LocalStep::new(&proto);
        let n = local.num_params();
        local.forward_backward(&train.sample_batch(&mut rng, 8));
        local.decay_grad(1e-3);
        local.sgd_step(0.1);
        let center = local.params().to_vec();
        local.elastic_exchange_against(&rule, &center, &mut vec![0.0; n]);
        assert_eq!(local.held_floats(), 2 * n, "SGD and Sync EASGD");
        local.momentum_step(0.1, 0.9);
        assert_eq!(local.held_floats(), 3 * n, "momentum SGD");
        local.snapshot_center(&center);
        local.elastic_momentum_step(&rule);
        assert_eq!(local.held_floats(), 4 * n, "MEASGD");
    }

    /// A replica with a gradient and no centre snapshot.
    fn stepped_without_snapshot() -> (LocalStep, ElasticRule) {
        let (proto, train) = setup();
        let mut rng = easgd_tensor::Rng::new(24);
        let mut local = LocalStep::new(&proto);
        local.forward_backward(&train.sample_batch(&mut rng, 8));
        (local, rule())
    }

    #[test]
    #[should_panic(expected = "LocalStep::elastic_step: no centre snapshot taken")]
    fn elastic_step_refuses_the_unborn_centre() {
        let (mut local, rule) = stepped_without_snapshot();
        local.elastic_step(&rule);
    }

    #[test]
    #[should_panic(expected = "LocalStep::elastic_exchange_step: no centre snapshot taken")]
    fn elastic_exchange_step_refuses_the_unborn_centre() {
        let (mut local, rule) = stepped_without_snapshot();
        let mut contribution = vec![0.0; local.num_params()];
        local.elastic_exchange_step(&rule, &mut contribution);
    }

    #[test]
    #[should_panic(expected = "LocalStep::elastic_momentum_step: no centre snapshot taken")]
    fn elastic_momentum_step_refuses_the_unborn_centre() {
        let (mut local, rule) = stepped_without_snapshot();
        local.elastic_momentum_step(&rule);
    }

    #[test]
    #[should_panic(expected = "LocalStep::load_snapshot_params: no centre snapshot taken")]
    fn load_snapshot_params_refuses_the_unborn_centre() {
        let (mut local, _) = stepped_without_snapshot();
        local.load_snapshot_params();
    }

    #[test]
    fn snapshot_roundtrip() {
        let (proto, _) = setup();
        let mut local = LocalStep::new(&proto);
        let center = vec![0.5f32; local.num_params()];
        local.snapshot_center(&center);
        local.load_snapshot_params();
        assert_eq!(local.params(), &center[..]);
    }
}
