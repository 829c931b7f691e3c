// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Standalone calls into `tensor` at the shapes the workloads use.
//! Flops and bytes are *computed from the shapes* (2·m·n·k per GEMM,
//! 4 bytes per element read or written), not counted by hardware.

use crate::stats::median;
use easgd_tensor::{gemm, gemm_rowstable, gemm_serial, im2col, ops, Conv2dGeometry, Transpose};
use std::hint::black_box;
use std::time::Instant;

/// Median seconds of `f` over `reps` timed calls after one warm-up.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn filled(n: usize, salt: f32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i % 251) as f32 - 125.0) * 0.004 + salt)
        .collect()
}

type Gemm = fn(Transpose, Transpose, usize, usize, usize, f32, &[f32], &[f32], f32, &mut [f32]);

/// Seconds one call of a GEMM shape takes, `op(A)` m×k times `op(B)` k×n.
fn gemm_seconds(mm: Gemm, ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize) -> f64 {
    let a = filled(m * k, 0.1);
    let b = filled(k * n, 0.2);
    let mut c = vec![0.0f32; m * n];
    // Enough calls per sample that a sample lasts about a millisecond.
    let inner = ((2e6 / gemm_flops(m, n, k)).ceil() as usize).max(1);
    let s = time_median(15, || {
        for _ in 0..inner {
            mm(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                0.0,
                &mut c,
            );
        }
        black_box(&mut c);
    });
    s / inner as f64
}

fn gemm_flops(m: usize, n: usize, k: usize) -> f64 {
    2.0 * (m * n * k) as f64
}

fn gemm_gflops(mm: Gemm, ta: Transpose, tb: Transpose, m: usize, n: usize, k: usize) -> f64 {
    gemm_flops(m, n, k) / gemm_seconds(mm, ta, tb, m, n, k) / 1e9
}

/// The same-run roofline reference: 256³ on one thread.
pub fn gemm_peak_gflops() -> f64 {
    gemm_gflops(gemm_serial, Transpose::No, Transpose::No, 256, 256, 256)
}

/// The largest-flop conv GEMM of the VGG stack, as `Conv2d` issues it
/// per sample: conv2, 32 filters over a 288 × 1024 im2col panel.
pub fn gemm_conv_gflops() -> f64 {
    gemm_gflops(gemm, Transpose::No, Transpose::No, 32, 1024, 288)
}

/// The three GEMMs one 1024→1024 dense layer issues per MLP step at
/// batch `b` (forward NT, weight gradient TN, input gradient NN):
/// flops summed over seconds summed.
pub fn gemm_mlp_gflops(b: usize) -> f64 {
    let shapes = [
        (Transpose::No, Transpose::Yes, b, 1024, 1024),
        (Transpose::Yes, Transpose::No, 1024, 1024, b),
        (Transpose::No, Transpose::No, b, 1024, 1024),
    ];
    let seconds: f64 = shapes
        .iter()
        .map(|&(ta, tb, m, n, k)| gemm_seconds(gemm, ta, tb, m, n, k))
        .sum();
    3.0 * gemm_flops(b, 1024, 1024) / seconds / 1e9
}

/// LeNet's 800→500 dense layer in eval mode at serving batch `m`.
pub fn gemm_skinny_gflops(m: usize) -> f64 {
    gemm_gflops(gemm_rowstable, Transpose::No, Transpose::Yes, m, 500, 800)
}

/// `(copy GB/s, array bytes)`: `ops::copy` between two 256 MiB arrays,
/// far beyond any cache; bytes = read + written.
pub fn stream_gb_per_s() -> (f64, usize) {
    let n = 64 * 1024 * 1024;
    let src = filled(n, 0.3);
    let mut dst = vec![0.0f32; n];
    let s = time_median(3, || ops::copy(black_box(&src), &mut dst));
    black_box(&dst);
    (2.0 * (n * 4) as f64 / s / 1e9, n * 4)
}

/// conv2 of the VGG stack: 32 channels of 32×32, 3×3, pad 1.
fn conv2_geometry() -> Conv2dGeometry {
    Conv2dGeometry {
        in_channels: 32,
        in_h: 32,
        in_w: 32,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    }
}

/// `(im2col, col2im)` in millions of panel elements per second.
pub fn im2col_col2im_melem_per_s() -> (f64, f64) {
    let g = conv2_geometry();
    let image = filled(g.input_len(), 0.1);
    let elems = g.col_rows() * g.col_cols();
    let mut col = vec![0.0f32; elems];
    let fwd = time_median(15, || {
        for _ in 0..8 {
            im2col(&g, black_box(&image), &mut col);
        }
    });
    let mut back = vec![0.0f32; g.input_len()];
    let bwd = time_median(15, || {
        for _ in 0..8 {
            easgd_tensor::col2im(&g, black_box(&col), &mut back);
        }
    });
    black_box(&back);
    let per = |s: f64| 8.0 * elems as f64 / s / 1e6;
    (per(fwd), per(bwd))
}

/// Millions of arena elements per second of one elementwise update
/// kernel over an `n`-element arena.
fn kernel_melem_per_s(n: usize, mut kernel: impl FnMut()) -> f64 {
    n as f64 / time_median(9, &mut kernel) / 1e6
}

/// The four update kernels on an `n`-parameter arena:
/// `(elastic_exchange, center_dilution, elastic_momentum, sgd_update)`.
pub struct UpdateKernels {
    pub elastic_exchange: f64,
    pub center_dilution: f64,
    pub elastic_momentum: f64,
    pub sgd_update: f64,
}

pub fn update_kernels(n: usize) -> UpdateKernels {
    let (eta, rho, mu) = (0.05f32, 0.3f32, 0.9f32);
    let mut local = filled(n, 0.0);
    let mut other = filled(n, 0.1);
    let mut velocity = vec![0.0f32; n];
    let grad = filled(n, 0.2);
    let center = filled(n, 0.3);
    UpdateKernels {
        elastic_exchange: kernel_melem_per_s(n, || {
            ops::elastic_exchange(eta, rho, &mut local, &mut other, &grad, &center)
        }),
        center_dilution: kernel_melem_per_s(n, || {
            ops::center_dilution(eta, rho, &mut local, &grad, 4)
        }),
        elastic_momentum: kernel_melem_per_s(n, || {
            ops::elastic_momentum_update(eta, mu, rho, &mut local, &mut velocity, &grad, &center)
        }),
        sgd_update: kernel_melem_per_s(n, || ops::sgd_update(eta, &mut local, &grad)),
    }
}
