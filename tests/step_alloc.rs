//! Pooled training-step invariants: the `_into` layer forms are
//! bit-identical to the allocating shims under dirty buffer reuse, and
//! the steady-state step performs zero counted scratch allocations
//! (DESIGN.md §11).

use knl_easgd::nn::gradcheck::build_arenas;
use knl_easgd::nn::inception::{Inception, InceptionConfig};
use knl_easgd::nn::models::lenet_tiny;
use knl_easgd::nn::{AvgPool2d, Conv2d, Dense, Flatten, Layer, LocalResponseNorm, MaxPool2d, Relu};
use knl_easgd::prelude::*;
use knl_easgd::tensor::{Conv2dGeometry, TrainScratch};
use proptest::prelude::*;

/// Boundary batch sizes the pooled path must survive: growth, shrink,
/// and re-growth of every cached buffer.
const BATCHES: [usize; 5] = [1, 2, 3, 5, 8];

/// One instance of every layer type, with its per-sample input shape.
/// Index range is `LAYER_KINDS`.
fn make_layer(kind: usize) -> (Box<dyn Layer>, Vec<usize>) {
    let geom = Conv2dGeometry {
        in_channels: 2,
        in_h: 6,
        in_w: 6,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    match kind {
        0 => (Box::new(Relu::new("relu", vec![3, 4, 4])), vec![3, 4, 4]),
        1 => (Box::new(Dense::new("fc", 12, 7)), vec![12]),
        2 => (Box::new(Conv2d::new("conv", geom, 4)), vec![2, 6, 6]),
        3 => (
            Box::new(MaxPool2d::new("max", 2, 6, 6, 2, 2)),
            vec![2, 6, 6],
        ),
        4 => (
            Box::new(AvgPool2d::new("avg", 2, 6, 6, 2, 2)),
            vec![2, 6, 6],
        ),
        5 => (
            Box::new(LocalResponseNorm::new("lrn", 3, 4, 4)),
            vec![3, 4, 4],
        ),
        6 => (Box::new(Flatten::new("flat", vec![3, 4, 4])), vec![3, 4, 4]),
        7 => (
            Box::new(Inception::new(
                "inc",
                4,
                6,
                6,
                InceptionConfig {
                    c1: 2,
                    c3_reduce: 2,
                    c3: 3,
                    c5_reduce: 2,
                    c5: 2,
                    pool_proj: 2,
                },
            )),
            vec![4, 6, 6],
        ),
        _ => unreachable!("unknown layer kind"),
    }
}

const LAYER_KINDS: usize = 8;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

/// Drives `pooled` through persistent, dirty scratch buffers and `shim`
/// through the allocating default forms, over the same input sequence,
/// asserting bitwise agreement of outputs, input gradients, and
/// accumulated parameter gradients every round.
fn check_rounds(
    pooled: &mut dyn Layer,
    shim: &mut dyn Layer,
    in_shape: &[usize],
    batches: &[usize],
    seed: u64,
) {
    let (params_a, mut grads_a) = build_arenas(pooled, seed);
    let (params_b, mut grads_b) = build_arenas(shim, seed);
    assert_bits_eq(params_a.as_slice(), params_b.as_slice(), "init params");

    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut scratch = TrainScratch::default();
    let mut out = Tensor::default();
    let mut grad_in = Tensor::default();

    for &batch in batches {
        let mut shape = vec![batch];
        shape.extend_from_slice(in_shape);
        let mut x = Tensor::zeros(shape);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);

        pooled.forward_into(&params_a, &x, true, &mut out, &mut scratch);
        let want_out = shim.forward(&params_b, &x, true);
        assert_eq!(out.shape().dims(), want_out.shape().dims(), "out shape");
        assert_bits_eq(out.as_slice(), want_out.as_slice(), "forward");

        let mut gy = Tensor::zeros(out.shape().dims().to_vec());
        rng.fill_normal(gy.as_mut_slice(), 0.0, 1.0);
        pooled.backward_into(&params_a, &mut grads_a, &gy, &mut grad_in, &mut scratch);
        let want_gin = shim.backward(&params_b, &mut grads_b, &gy);
        assert_eq!(
            grad_in.shape().dims(),
            want_gin.shape().dims(),
            "grad_in shape"
        );
        assert_bits_eq(grad_in.as_slice(), want_gin.as_slice(), "backward");
        assert_bits_eq(grads_a.as_slice(), grads_b.as_slice(), "param grads");
    }
}

proptest! {
    /// `forward_into`/`backward_into` under dirty buffer reuse are
    /// bit-identical to the allocating shims, across every layer type
    /// and shrinking/growing batch sizes.
    #[test]
    fn pooled_layers_match_allocating_shims(
        kind in 0usize..LAYER_KINDS,
        picks in proptest::collection::vec(0usize..BATCHES.len(), 2..6),
        seed in 1u64..1000,
    ) {
        let batches: Vec<usize> = picks.iter().map(|&i| BATCHES[i]).collect();
        let (mut pooled, in_shape) = make_layer(kind);
        let (mut shim, _) = make_layer(kind);
        check_rounds(pooled.as_mut(), shim.as_mut(), &in_shape, &batches, seed);
    }
}

/// The tentpole invariant: after the warm-up step, a training step
/// performs zero counted scratch allocations.
#[test]
fn steady_state_step_makes_no_scratch_allocations() {
    let mut net = lenet_tiny(11);
    let mut rng = Rng::new(12);
    let mut shape = vec![4];
    shape.extend_from_slice(net.input_shape());
    let mut x = Tensor::zeros(shape);
    rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let labels = [0usize, 1, 2, 1];

    // Warm-up: the first step is allowed (expected) to allocate.
    let _ = net.forward_backward(&x, &labels);
    let warm = net.scratch_stats();
    assert!(
        warm.allocations() > 0,
        "warm-up step should have populated the scratch"
    );

    for step in 0..3 {
        let _ = net.forward_backward(&x, &labels);
        let now = net.scratch_stats();
        let delta = now.since(&warm);
        assert_eq!(
            delta.allocations(),
            0,
            "steady-state step {step} allocated: {delta:?}"
        );
        assert!(
            delta.reused > 0,
            "steady-state step {step} should reuse pooled buffers"
        );
    }
}

/// Shrinking the batch must not allocate either — buffers only ever grow.
#[test]
fn smaller_batch_reuses_the_warm_scratch() {
    let mut net = lenet_tiny(21);
    let mut rng = Rng::new(22);
    let make = |rng: &mut Rng, b: usize, net: &Network| {
        let mut shape = vec![b];
        shape.extend_from_slice(net.input_shape());
        let mut x = Tensor::zeros(shape);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        x
    };
    let big = make(&mut rng, 6, &net);
    let small = make(&mut rng, 2, &net);
    let _ = net.forward_backward(&big, &[0, 1, 2, 0, 1, 2]);
    let warm = net.scratch_stats();
    let _ = net.forward_backward(&small, &[1, 2]);
    let delta = net.scratch_stats().since(&warm);
    assert_eq!(delta.allocations(), 0, "shrunk batch allocated: {delta:?}");
}
