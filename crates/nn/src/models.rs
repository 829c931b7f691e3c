//! The runnable model zoo (§4.2).
//!
//! The paper trains LeNet on MNIST, AlexNet on CIFAR, and GoogLeNet/VGG on
//! ImageNet. The first two are runnable here at paper scale; `*_tiny`
//! variants preserve the architecture *shape* (conv → pool → conv → pool →
//! dense) at a size that trains to high accuracy in seconds, which the
//! Figure 6/8 experiments need because each figure point is an independent
//! end-to-end run. GoogLeNet/VGG are represented by cost specifications in
//! [`crate::spec`] (they are only ever *timed*, never trained, in the
//! paper's large-scale tables).

use crate::network::{Network, NetworkBuilder};

/// Caffe-style LeNet for 1×28×28 MNIST images (Figure 3; [LeCun 1998]).
///
/// conv(20@5×5) → pool2 → conv(50@5×5) → pool2 → fc500 → ReLU → fc10.
/// About 431 k parameters.
pub fn lenet(seed: u64) -> Network {
    NetworkBuilder::new([1, 28, 28])
        .conv2d(20, 5, 1, 0)
        .maxpool(2, 2)
        .conv2d(50, 5, 1, 0)
        .maxpool(2, 2)
        .flatten()
        .dense(500)
        .relu()
        .dense(10)
        .build(seed)
}

/// A small LeNet-shaped network for 1×12×12 images (used by the
/// time-to-accuracy experiments where hundreds of independent runs are
/// needed). About 11 k parameters.
pub fn lenet_tiny(seed: u64) -> Network {
    NetworkBuilder::new([1, 12, 12])
        .conv2d(8, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(32)
        .relu()
        .dense(10)
        .build(seed)
}

/// AlexNet-style network for 3×32×32 CIFAR images (cuda-convnet layout:
/// three conv+pool stages with LRN, one classifier layer).
pub fn alexnet_cifar(seed: u64) -> Network {
    NetworkBuilder::new([3, 32, 32])
        .conv2d(32, 5, 1, 2)
        .relu()
        .maxpool(3, 2)
        .lrn()
        .conv2d(32, 5, 1, 2)
        .relu()
        .maxpool(3, 2)
        .lrn()
        .conv2d(64, 5, 1, 2)
        .relu()
        .maxpool(3, 2)
        .flatten()
        .dense(10)
        .build(seed)
}

/// A reduced AlexNet-shaped network for 3×16×16 synthetic-CIFAR images.
/// About 23 k parameters; trains in seconds.
pub fn alexnet_cifar_tiny(seed: u64) -> Network {
    NetworkBuilder::new([3, 16, 16])
        .conv2d(8, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(16, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .flatten()
        .dense(64)
        .relu()
        .dense(10)
        .build(seed)
}

/// A runnable GoogLeNet-shaped network for 3×16×16 images: stem conv →
/// two inception modules with a pool between → global average pool →
/// classifier. Preserves the architecture *family* of the paper's
/// large-scale workload (§4.2) at a size that trains in seconds; the
/// full-size GoogLeNet exists as a cost spec in [`crate::spec`].
pub fn googlenet_tiny(seed: u64) -> Network {
    use crate::inception::InceptionConfig;
    NetworkBuilder::new([3, 16, 16])
        .conv2d(8, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .inception(InceptionConfig {
            c1: 4,
            c3_reduce: 4,
            c3: 6,
            c5_reduce: 2,
            c5: 3,
            pool_proj: 3,
        })
        .relu()
        .maxpool(2, 2)
        .inception(InceptionConfig {
            c1: 6,
            c3_reduce: 6,
            c3: 8,
            c5_reduce: 2,
            c5: 4,
            pool_proj: 4,
        })
        .relu()
        .avgpool(4, 4)
        .flatten()
        .dense(10)
        .build(seed)
}

/// A plain multi-layer perceptron: `input → hidden… → classes` with ReLU
/// between stages. Useful for controlled optimizer comparisons where conv
/// compute would only add noise.
pub fn mlp(input: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
    let mut b = NetworkBuilder::new([input]);
    for &h in hidden {
        b = b.dense(h).relu();
    }
    b.dense(classes).build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_tensor::{Rng, Tensor};

    #[test]
    fn lenet_parameter_count() {
        let net = lenet(1);
        // conv1: 20*25+20=520; conv2: 50*20*25+50=25_050;
        // fc1: 50*4*4=800 → 500: 400_500; fc2: 5_010.
        assert_eq!(net.num_params(), 520 + 25_050 + 400_500 + 5_010);
        assert_eq!(net.num_classes(), 10);
    }

    #[test]
    fn lenet_tiny_is_small_and_runs() {
        let mut net = lenet_tiny(2);
        assert!(net.num_params() < 15_000, "{} params", net.num_params());
        let x = Tensor::zeros([2, 1, 12, 12]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn alexnet_cifar_forward_shape() {
        let mut net = alexnet_cifar(3);
        let x = Tensor::zeros([1, 3, 32, 32]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 10]);
    }

    #[test]
    fn alexnet_tiny_trains_on_blobs() {
        // Class-dependent constant images must be separable quickly.
        let mut net = alexnet_cifar_tiny(4);
        let mut rng = Rng::new(5);
        let n = 32;
        let per = 3 * 16 * 16;
        let mut xs = Vec::with_capacity(n * per);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { -0.5 } else { 0.5 };
            for _ in 0..per {
                xs.push(base + 0.2 * rng.normal());
            }
            labels.push(class);
        }
        let x = Tensor::from_vec([n, 3, 16, 16], xs);
        for _ in 0..30 {
            let _ = net.forward_backward(&x, &labels);
            let g = net.grads().as_slice().to_vec();
            easgd_tensor::ops::sgd_update(0.1, net.params_mut().as_mut_slice(), &g);
        }
        let last = net.forward_backward(&x, &labels);
        assert!(last.accuracy() > 0.9, "accuracy {}", last.accuracy());
    }

    #[test]
    fn googlenet_tiny_forward_and_train() {
        let mut net = googlenet_tiny(7);
        let x = Tensor::zeros([2, 3, 16, 16]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 10]);
        // One training step produces finite loss and nonzero gradients in
        // the inception branch weights.
        let mut rng = Rng::new(8);
        let mut xb = Tensor::zeros([4, 3, 16, 16]);
        rng.fill_normal(xb.as_mut_slice(), 0.0, 1.0);
        let stats = net.forward_backward(&xb, &[0, 1, 2, 3]);
        assert!(stats.loss.is_finite());
        let inception_grads: f32 = net
            .grads()
            .segments()
            .iter()
            .filter(|s| s.name.contains("inception"))
            .map(|s| {
                net.grads().as_slice()[s.range()]
                    .iter()
                    .map(|g| g.abs())
                    .sum::<f32>()
            })
            .sum();
        assert!(inception_grads > 0.0, "inception branches got no gradient");
    }

    #[test]
    fn mlp_builds_requested_depth() {
        let net = mlp(10, &[20, 20], 5, 6);
        // fc(10→20)+relu+fc(20→20)+relu+fc(20→5) = 5 layers
        assert_eq!(net.num_layers(), 5);
        assert_eq!(net.num_params(), 10 * 20 + 20 + 20 * 20 + 20 + 20 * 5 + 5);
    }
}
