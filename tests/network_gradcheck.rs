//! End-to-end gradient verification: the full network + softmax
//! cross-entropy loss against central finite differences — certifying
//! that every gradient the distributed algorithms average is the true
//! gradient of the training loss.

use knl_easgd::nn::inception::InceptionConfig;
use knl_easgd::prelude::*;

/// FD-checks `∂L/∂θ` of the network's mean cross-entropy at a sample of
/// parameter coordinates.
fn check_network(mut net: Network, batch: usize, probes: usize, tol: f64, seed: u64) {
    let mut rng = Rng::new(seed);
    let mut shape = vec![batch];
    shape.extend_from_slice(net.input_shape());
    let mut x = Tensor::zeros(shape);
    rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| i % net.num_classes()).collect();

    let _ = net.forward_backward(&x, &labels);
    let analytic = net.grads().as_slice().to_vec();

    let eps = 1e-3f32;
    for _ in 0..probes {
        let idx = rng.below(net.num_params());
        let orig = net.params().as_slice()[idx];

        net.params_mut().as_mut_slice()[idx] = orig + eps;
        let lp = net.forward_backward(&x, &labels).loss as f64;
        net.params_mut().as_mut_slice()[idx] = orig - eps;
        let lm = net.forward_backward(&x, &labels).loss as f64;
        net.params_mut().as_mut_slice()[idx] = orig;

        let numeric = (lp - lm) / (2.0 * eps as f64);
        let a = analytic[idx] as f64;
        let scale = a.abs().max(numeric.abs()).max(1e-2);
        assert!(
            (a - numeric).abs() <= tol * scale,
            "param[{idx}]: analytic {a:.6} vs numeric {numeric:.6}"
        );
    }
}

#[test]
fn lenet_tiny_end_to_end_gradient() {
    check_network(lenet_tiny(1), 4, 30, 2e-2, 2);
}

#[test]
fn mlp_end_to_end_gradient() {
    check_network(mlp(20, &[16, 12], 5, 3), 6, 30, 2e-2, 4);
}

#[test]
fn alexnet_tiny_end_to_end_gradient() {
    check_network(alexnet_cifar_tiny(5), 2, 20, 2e-2, 6);
}

#[test]
fn inception_network_end_to_end_gradient() {
    let net = NetworkBuilder::new([2, 8, 8])
        .conv2d(4, 3, 1, 1)
        .relu()
        .inception(InceptionConfig {
            c1: 2,
            c3_reduce: 2,
            c3: 3,
            c5_reduce: 1,
            c5: 2,
            pool_proj: 1,
        })
        .relu()
        .flatten()
        .dense(6)
        .build(7);
    check_network(net, 3, 25, 5e-2, 8);
}

#[test]
fn deep_stack_with_every_layer_kind_has_exact_gradients() {
    // Conv, LRN, pooling (max + avg), ReLU, dense — one stack.
    let net = NetworkBuilder::new([1, 10, 10])
        .conv2d(4, 3, 1, 1)
        .lrn()
        .relu()
        .maxpool(2, 2)
        .conv2d(6, 3, 1, 1)
        .relu()
        .avgpool(5, 5)
        .flatten()
        .dense(8)
        .relu()
        .dense(4)
        .build(9);
    check_network(net, 3, 30, 5e-2, 10);
}
