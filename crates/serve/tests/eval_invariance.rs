//! Bitwise eval-mode batch-size invariance.
//!
//! The batcher dispatches **ragged** batches — whatever coalesced before
//! the cap or deadline hit. That is only sound if eval-mode forward is
//! batch-size invariant *bitwise*: serving a request in a batch of k
//! must produce the exact bits it would get in a batch of B. Every
//! layer is per-sample in eval mode (batchnorm normalizes by *running*
//! statistics, LRN by within-sample neighborhoods, dropout is the
//! identity), and every GEMM output is one float chain that depends on
//! `k` alone, never on the row count — so equality must be exact, not
//! approximate, and holds for a training forward of the GEMM layers too. These tests pin that contract for the layer zoo and
//! for LeNet through the real serving session — a frozen replica, whose
//! weights are packed panels, against the unfrozen network.

use easgd_nn::{models, Network, NetworkBuilder};
use easgd_serve::InferSession;
use easgd_tensor::{with_scalar_kernels, Tensor};

/// A network exercising every eval-mode-sensitive layer in the zoo:
/// batchnorm (conv and dense placements), LRN, dropout, both pools,
/// and all three activations.
fn zoo_net() -> Network {
    NetworkBuilder::new([2, 8, 8])
        .conv2d(4, 3, 1, 1)
        .batchnorm()
        .relu()
        .lrn()
        .maxpool(2, 2)
        .conv2d(4, 3, 1, 1)
        .tanh()
        .avgpool(2, 2)
        .flatten()
        .dense(16)
        .batchnorm()
        .sigmoid()
        .dropout(0.5)
        .dense(10)
        .build(0xBEEF)
}

fn pixels(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
}

/// Runs a few train-mode forwards so batchnorm running statistics move
/// away from their (0, 1) init — eval must then depend on them, not on
/// batch statistics.
fn warm_running_stats(net: &mut Network, sample_len: usize) {
    for step in 0..3 {
        let x = Tensor::from_vec([5, 2, 8, 8], pixels(5 * sample_len, step as f32));
        let _ = net.forward(&x, true);
    }
}

/// Every ragged window of a 7-sample batch, forwarded alone, reproduces
/// the full batch's rows bit-for-bit.
fn assert_rows_are_batch_size_invariant(net: &mut Network, train: bool) {
    let sample_len: usize = net.input_shape().iter().product();
    let full = 7usize;
    let px = pixels(full * sample_len, 0.5);
    let x_full = Tensor::from_vec([full, 2, 8, 8], px.clone());
    let y_full = net.forward(&x_full, train);
    let classes = net.num_classes();
    for (start, k) in [(0usize, 1usize), (1, 3), (3, 4), (2, 5), (6, 1)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let y_sub = net.forward(&Tensor::from_vec([k, 2, 8, 8], sub.to_vec()), train);
        assert_eq!(
            y_sub.as_slice(),
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "rows [{start}, {}) changed bits when forwarded as a batch of {k} (train {train})",
            start + k
        );
    }
}

#[test]
fn zoo_eval_rows_are_batch_size_invariant_bitwise() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);
    assert_rows_are_batch_size_invariant(&mut net, false);
    // A training forward too, where every layer is per-sample: a GEMM
    // row's bits never depend on its batch mates, so `Conv2d` and `Dense`
    // keep them in a training step as in serving — the 96 → 128 layer
    // included: its full batch (172 kflop) and one row (25 kflop) sit on
    // either side of the 2¹⁷-flop line where a direct row loop that
    // rounded `mul` and `add` apart once took over.
    let mut gemms = NetworkBuilder::new([2, 8, 8])
        .conv2d(4, 3, 1, 1)
        .relu()
        .maxpool(2, 2)
        .conv2d(6, 3, 1, 1)
        .flatten()
        .dense(128)
        .tanh()
        .dense(10)
        .build(0xF00D);
    assert_rows_are_batch_size_invariant(&mut gemms, true);
}

#[test]
fn zoo_session_matches_full_batch_rows_bitwise() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);

    let full = 6usize;
    let px = pixels(full * sample_len, 2.0);
    let y_full = net.forward(&Tensor::from_vec([full, 2, 8, 8], px.clone()), false);
    let classes = net.num_classes();

    // The pooled serving path (frozen replica, InferScratch,
    // infer_from_slice) must agree with the allocating reference.
    let mut session = InferSession::new(net.clone());
    for (start, k) in [(0usize, 2usize), (2, 3), (5, 1), (0, 6)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let got = session.infer(k, sub);
        assert_eq!(
            got,
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "session batch of {k} at row {start} diverged from the full batch"
        );
    }
}

#[test]
fn zoo_session_ragged_schedule_is_zero_alloc_once_warm() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);
    let mut session = InferSession::new(net);
    let px = pixels(8 * sample_len, 1.0);

    // Warm the two extreme sizes; every intermediate ragged size then
    // reuses their buffers (grow-only layer caches, pooled slots).
    let _ = session.infer(8, &px);
    let _ = session.infer(1, &px[..sample_len]);
    let warm = session.stats();
    for k in [3usize, 8, 1, 5, 2, 8, 7, 4, 1, 6] {
        let _ = session.infer(k, &px[..k * sample_len]);
    }
    let delta = session.stats().since(&warm);
    assert_eq!(
        delta.allocations(),
        0,
        "ragged zoo inference allocated after warm-up: {delta:?}"
    );
    assert!(delta.reused > 0, "counters saw no pooled traffic");
}

#[test]
fn lenet_session_serves_full_batch_rows_bitwise() {
    let mut net = models::lenet_tiny(42);
    let sample_len: usize = net.input_shape().iter().product();
    let full = 8usize;
    let px = pixels(full * sample_len, 0.0);
    let y_full = net.forward(&Tensor::from_vec([full, 1, 12, 12], px.clone()), false);
    let classes = net.num_classes();

    let mut session = InferSession::new(net.clone());
    for (start, k) in [(0usize, 1usize), (4, 4), (1, 7), (0, 8)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let got = session.infer(k, sub);
        assert_eq!(
            got,
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "LeNet batch of {k} at row {start} diverged"
        );
    }
}

#[test]
fn frozen_lenet_session_keeps_the_bits_of_the_unfrozen_forward() {
    // Every batch a cap of 8 serves (fc1 and conv2 in the skinny nest),
    // and 65 — fc1 in the standard nest — in the build's tier and the
    // scalar one.
    let mut net = models::lenet(0x5EED);
    let sample_len: usize = net.input_shape().iter().product();
    let px = pixels(65 * sample_len, 0.75);
    let mut session = InferSession::new(net.clone());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for scalar in [false, true] {
        for b in (1..=8).chain([65]) {
            let sub = &px[..b * sample_len];
            let mut run = || {
                let x = Tensor::from_vec([b, 1, 28, 28], sub.to_vec());
                (net.forward(&x, false), bits(session.infer(b, sub)))
            };
            let (want, got) = if scalar {
                with_scalar_kernels(run)
            } else {
                run()
            };
            assert_eq!(
                got,
                bits(want.as_slice()),
                "batch {b}, scalar tier {scalar}"
            );
        }
    }
}
