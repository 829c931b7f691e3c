//! 2-D convolution via im2col + GEMM.
//!
//! The forward pass is batch-parallel: for large enough batches the
//! per-sample im2col + GEMM jobs fan out over the persistent
//! [`easgd_tensor::par::pool()`]. Jobs are owned closures over
//! `Arc`-shared weight/bias copies (the pool cannot borrow — see
//! DESIGN.md §8), each returning its `(col, y)` buffers, which the caller
//! writes back in sample order — so the result is bit-identical to the
//! serial loop at any worker count.

use crate::layer::{batch_of, Init, Layer, ParamSpec};
use easgd_tensor::par::{pool, WorkerPool};
use easgd_tensor::{col2im, im2col, Conv2dGeometry};
use easgd_tensor::{gemm, ParamArena, Tensor, TrainScratch, Transpose};
use std::sync::Arc;

/// Batches below this many forward flops (`2·b·oc·cols·rows`) run the
/// serial per-sample loop: dispatch plus the owned operand copies would
/// cost more than they parallelize. Mirrors the flop threshold used by
/// `easgd_tensor::gemm` for the same reason.
const PAR_FLOPS: u64 = 8 << 20;

/// One sample's forward work: lower `image` into `col` and compute
/// `y = W·col + bias` (`y` laid out `[out_channels, out_h·out_w]`).
fn sample_forward(
    geom: &Conv2dGeometry,
    out_channels: usize,
    w: &[f32],
    bias: &[f32],
    image: &[f32],
    col: &mut Vec<f32>,
    y: &mut [f32],
) {
    let (rows, cols) = (geom.col_rows(), geom.col_cols());
    col.resize(rows * cols, 0.0);
    im2col(geom, image, col);
    gemm(
        Transpose::No,
        Transpose::No,
        out_channels,
        cols,
        rows,
        1.0,
        w,
        col,
        0.0,
        y,
    );
    for (oc, plane) in y.chunks_mut(cols).enumerate() {
        let bc = bias[oc];
        plane.iter_mut().for_each(|v| *v += bc);
    }
}

/// Convolutional layer.
///
/// Weights are stored `[out_channels, in_channels·k_h·k_w]` row-major —
/// exactly the left operand of the im2col GEMM — plus one bias per output
/// channel.
#[derive(Clone, Debug)]
pub struct Conv2d {
    /// Layer name used for parameter segments.
    pub name: String,
    /// Spatial geometry (input dims, kernel, stride, padding).
    pub geom: Conv2dGeometry,
    /// Number of output channels (filters).
    pub out_channels: usize,
    w_seg: usize,
    b_seg: usize,
    /// Cached im2col matrices, one per sample of the last forward batch.
    col_cache: Vec<Vec<f32>>,
    /// Per-sample output buffers recycled through the parallel fan-out
    /// (jobs take them by move and hand them back as results).
    y_cache: Vec<Vec<f32>>,
    /// Per-sample input copies recycled through the parallel fan-out.
    image_cache: Vec<Vec<f32>>,
    /// Shared weight/bias copies for the parallel fan-out. Steady state
    /// refreshes them in place via `Arc::make_mut` — after `pool.run`
    /// returns, every job's clone has been dropped, so the refcount is
    /// back to one and no reallocation happens.
    w_shared: Option<Arc<Vec<f32>>>,
    bias_shared: Option<Arc<Vec<f32>>>,
    /// Backward's `Wᵀ·gy` panel, reused across samples and steps.
    grad_col: Vec<f32>,
}

/// Sizes a per-sample buffer list to at least `b` slots. Grow-only:
/// shrinking batches (ragged serving dispatches alternate sizes) keep
/// the extra slots and their accumulated capacity, so a later return to
/// the larger batch reuses them instead of re-allocating. Callers
/// iterate only the first `b` slots.
fn ensure_slots(cache: &mut Vec<Vec<f32>>, b: usize) {
    if cache.len() < b {
        cache.resize_with(b, Vec::new);
    }
}

/// Refreshes an `Arc`-shared operand copy from `src` and returns a
/// handle to it for fanning out to worker jobs.
fn refresh_shared(
    shared: &mut Option<Arc<Vec<f32>>>,
    src: &[f32],
    scratch: &mut TrainScratch,
) -> Arc<Vec<f32>> {
    match shared {
        Some(arc) => {
            let buf = Arc::make_mut(arc);
            buf.resize(src.len(), 0.0);
            buf.copy_from_slice(src);
            arc.clone()
        }
        None => {
            let arc = Arc::new(src.to_vec());
            scratch.note_external_alloc();
            *shared = Some(arc.clone());
            arc
        }
    }
}

impl Conv2d {
    /// A convolution over `geom` producing `out_channels` feature maps.
    pub fn new(name: impl Into<String>, geom: Conv2dGeometry, out_channels: usize) -> Self {
        assert!(geom.is_valid(), "invalid conv geometry {geom:?}");
        assert!(out_channels > 0, "out_channels must be > 0");
        Self {
            name: name.into(),
            geom,
            out_channels,
            w_seg: usize::MAX,
            b_seg: usize::MAX,
            col_cache: Vec::new(),
            y_cache: Vec::new(),
            image_cache: Vec::new(),
            w_shared: None,
            bias_shared: None,
            grad_col: Vec::new(),
        }
    }

    /// Elements in the filter bank.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.geom.col_rows()
    }

    /// Total parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weight_len() + self.out_channels
    }

    /// Per-sample output feature-map size `[out_channels, out_h, out_w]`.
    pub fn output_len(&self) -> usize {
        self.out_channels * self.geom.col_cols()
    }

    /// [`Layer::forward`] against an explicit pool (the trait method uses
    /// the process-wide one); exposed for tests that need a local pool
    /// with a known worker count.
    pub fn forward_with_pool(
        &mut self,
        pool: &WorkerPool,
        params: &ParamArena,
        input: &Tensor,
    ) -> Tensor {
        let mut out = Tensor::default();
        let mut scratch = TrainScratch::default();
        self.forward_with_pool_into(pool, params, input, &mut out, &mut scratch);
        out
    }

    /// [`Layer::forward_into`] against an explicit pool. All per-sample
    /// panels (im2col columns, output rows, input copies for the fan-out)
    /// and the shared weight/bias `Arc`s are recycled across calls, so a
    /// warmed-up step allocates nothing on either the serial or the
    /// parallel branch.
    pub fn forward_with_pool_into(
        &mut self,
        pool: &WorkerPool,
        params: &ParamArena,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let b = batch_of(input);
        let in_len = self.geom.input_len();
        assert_eq!(
            input.len(),
            b * in_len,
            "conv '{}' expected {} elements/sample, input is {:?}",
            self.name,
            in_len,
            input.shape()
        );
        let w = params.segment(self.w_seg);
        let bias = params.segment(self.b_seg);
        let (rows, cols) = (self.geom.col_rows(), self.geom.col_cols());
        let out_len = self.output_len();
        // Every output element is stored by the β = 0 GEMM, so the reused
        // buffer needs no zeroing.
        scratch.shape_tensor(
            out,
            &[b, self.out_channels, self.geom.out_h(), self.geom.out_w()],
        );

        ensure_slots(&mut self.col_cache, b);
        for col in self.col_cache.iter_mut().take(b) {
            scratch.ensure_f32(col, rows * cols);
        }

        let flops = 2 * (b * self.out_channels * cols * rows) as u64;
        if pool.threads() > 1 && b >= 2 && flops >= PAR_FLOPS {
            // Owned-job fan-out: one job per sample over Arc-shared
            // weights; results return in sample order via `run`. Each job
            // takes its sample's recycled buffers by move and returns them,
            // so steady state allocates only the pool's job list.
            let w_shared = refresh_shared(&mut self.w_shared, w, scratch);
            let bias_shared = refresh_shared(&mut self.bias_shared, bias, scratch);
            ensure_slots(&mut self.y_cache, b);
            ensure_slots(&mut self.image_cache, b);
            let geom = self.geom;
            let out_channels = self.out_channels;
            let mut tasks = Vec::with_capacity(b);
            for s in 0..b {
                scratch.ensure_f32(&mut self.y_cache[s], out_len);
                scratch.ensure_f32(&mut self.image_cache[s], in_len);
                self.image_cache[s]
                    .copy_from_slice(&input.as_slice()[s * in_len..(s + 1) * in_len]);
                let image = std::mem::take(&mut self.image_cache[s]);
                let mut col = std::mem::take(&mut self.col_cache[s]);
                let mut y = std::mem::take(&mut self.y_cache[s]);
                // Arc refcount bumps, not data copies; the weight
                // buffers themselves are reused across steps.
                let w = w_shared.clone(); // xtask: allow(step-alloc)
                let bias = bias_shared.clone(); // xtask: allow(step-alloc)
                tasks.push(move || {
                    sample_forward(&geom, out_channels, &w, &bias, &image, &mut col, &mut y);
                    (image, col, y)
                });
            }
            for (s, (image, col, y)) in pool.run(tasks).into_iter().enumerate() {
                out.as_mut_slice()[s * out_len..(s + 1) * out_len].copy_from_slice(&y);
                self.image_cache[s] = image;
                self.col_cache[s] = col;
                self.y_cache[s] = y;
            }
        } else {
            for (s, col) in self.col_cache.iter_mut().take(b).enumerate() {
                let image = &input.as_slice()[s * in_len..(s + 1) * in_len];
                let y = &mut out.as_mut_slice()[s * out_len..(s + 1) * out_len];
                sample_forward(&self.geom, self.out_channels, w, bias, image, col, y);
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        let fan_in = self.geom.col_rows();
        let fan_out = self.out_channels * self.geom.k_h * self.geom.k_w;
        vec![
            ParamSpec {
                name: format!("{}.weight", self.name),
                len: self.weight_len(),
                init: Init::Xavier { fan_in, fan_out },
            },
            ParamSpec {
                name: format!("{}.bias", self.name),
                len: self.out_channels,
                init: Init::Constant(0.0),
            },
        ]
    }

    fn bind(&mut self, segments: &[usize]) {
        assert_eq!(segments.len(), 2, "conv expects weight+bias segments");
        self.w_seg = segments[0];
        self.b_seg = segments[1];
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.out_channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.forward_with_pool_into(pool(), params, input, out, scratch);
    }

    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let (rows, cols) = (self.geom.col_rows(), self.geom.col_cols());
        let out_len = self.output_len();
        // The slot list is grow-only, so its length is the *largest*
        // batch seen, not necessarily the last one — take the batch from
        // the gradient itself.
        let b = grad_out.len() / out_len;
        assert!(b > 0, "backward called before forward");
        assert_eq!(grad_out.len(), b * out_len, "grad_out shape mismatch");
        assert!(
            self.col_cache.len() >= b,
            "backward batch exceeds cached forward panels"
        );
        let in_len = self.geom.input_len();
        let w = params.segment(self.w_seg);

        // col2im zeroes each per-sample image slice itself before its
        // `+=` accumulation, and the slices tile grad_in exactly, so the
        // reused buffer needs no zeroing here. The β = 0 GEMM likewise
        // stores every element of grad_col.
        scratch.shape_tensor(
            grad_in,
            &[b, self.geom.in_channels, self.geom.in_h, self.geom.in_w],
        );
        scratch.ensure_f32(&mut self.grad_col, rows * cols);
        for s in 0..b {
            let gy = &grad_out.as_slice()[s * out_len..(s + 1) * out_len];
            let col = &self.col_cache[s];
            // gradW[oc, rows] += gy[oc, cols] · colᵀ
            gemm(
                Transpose::No,
                Transpose::Yes,
                self.out_channels,
                rows,
                cols,
                1.0,
                gy,
                col,
                1.0,
                grads.segment_mut(self.w_seg),
            );
            // gradB[oc] += Σ gy[oc,:]
            {
                let gb = grads.segment_mut(self.b_seg);
                for (oc, plane) in gy.chunks(cols).enumerate() {
                    gb[oc] += easgd_tensor::ops::sum(plane);
                }
            }
            // gradCol[rows, cols] = Wᵀ[rows, oc] · gy[oc, cols]
            gemm(
                Transpose::Yes,
                Transpose::No,
                rows,
                cols,
                self.out_channels,
                1.0,
                w,
                gy,
                0.0,
                &mut self.grad_col,
            );
            let gx = &mut grad_in.as_mut_slice()[s * in_len..(s + 1) * in_len];
            col2im(&self.geom, &self.grad_col, gx);
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        // Caches are transient; cloning the configuration is enough.
        let mut c = self.clone();
        c.col_cache = Vec::new();
        c.y_cache = Vec::new();
        c.image_cache = Vec::new();
        c.w_shared = None;
        c.bias_shared = None;
        c.grad_col = Vec::new();
        Box::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    fn small_geom() -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn out_shape_follows_geometry() {
        let l = Conv2d::new("c", small_geom(), 4);
        assert_eq!(l.out_shape(), vec![4, 5, 5]);
        assert_eq!(l.num_params(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1 input channel, 1 output channel, 1x1 kernel with weight 1 → copy.
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 1,
            k_w: 1,
            stride: 1,
            pad: 0,
        };
        let mut l = Conv2d::new("c", geom, 1);
        let (mut params, _) = build_arenas(&mut l, 1);
        params.segment_mut(0)[0] = 1.0;
        let x = Tensor::from_vec([1, 1, 3, 3], (0..9).map(|i| i as f32).collect());
        let y = l.forward(&params, &x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 1,
            k_w: 1,
            stride: 1,
            pad: 0,
        };
        let mut l = Conv2d::new("c", geom, 2);
        let (mut params, _) = build_arenas(&mut l, 1);
        params.segment_mut(0).copy_from_slice(&[0.0, 0.0]); // zero kernels
        params.segment_mut(1).copy_from_slice(&[1.5, -2.0]);
        let x = Tensor::zeros([1, 1, 2, 2]);
        let y = l.forward(&params, &x, true);
        assert_eq!(&y.as_slice()[0..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-2.0; 4]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut l = Conv2d::new("c", small_geom(), 3);
        let (params, grads) = build_arenas(&mut l, 5);
        check_layer(&mut l, params, grads, &[2, 5, 5], 2, 1e-2, 11);
    }

    #[test]
    fn strided_padded_gradients_pass_check() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 7,
            in_w: 6,
            k_h: 3,
            k_w: 2,
            stride: 2,
            pad: 1,
        };
        let mut l = Conv2d::new("c", geom, 2);
        let (params, grads) = build_arenas(&mut l, 6);
        check_layer(&mut l, params, grads, &[1, 7, 6], 3, 1e-2, 12);
    }

    #[test]
    fn parallel_forward_is_bit_identical_to_serial() {
        // Large enough batch to clear PAR_FLOPS: rows = 4·9 = 36,
        // cols = 16·16 = 256, so flops = 2·48·16·256·36 ≈ 14.2M ≥ 8M.
        let geom = Conv2dGeometry {
            in_channels: 4,
            in_h: 16,
            in_w: 16,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let b = 48;
        let mut l = Conv2d::new("c", geom, 16);
        let (params, _) = build_arenas(&mut l, 3);
        let mut x = Tensor::zeros([b, 4, 16, 16]);
        easgd_tensor::Rng::new(21).fill_normal(x.as_mut_slice(), 0.0, 1.0);

        let serial_pool = WorkerPool::new(0); // threads() == 1 → serial loop
        let y_serial = l.forward_with_pool(&serial_pool, &params, &x);
        for workers in [1, 3] {
            let par_pool = WorkerPool::new(workers);
            let y_par = l.forward_with_pool(&par_pool, &params, &x);
            // Bit-exact, not approximate: the fan-out runs the same
            // per-sample kernel and writes back in sample order.
            assert_eq!(y_serial.as_slice(), y_par.as_slice(), "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn oversized_kernel_is_rejected() {
        // 5×5 kernel cannot fit a 3×3 input with no padding; the old
        // `saturating_sub` geometry silently produced a 1×1 output here.
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 5,
            k_w: 5,
            stride: 1,
            pad: 0,
        };
        let _ = Conv2d::new("c", geom, 1);
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn zero_stride_is_rejected() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 1,
            k_w: 1,
            stride: 0,
            pad: 0,
        };
        let _ = Conv2d::new("c", geom, 1);
    }

    #[test]
    fn batch_samples_are_independent() {
        let mut l = Conv2d::new("c", small_geom(), 2);
        let (params, _) = build_arenas(&mut l, 7);
        let mut rng = easgd_tensor::Rng::new(8);
        let mut x1 = Tensor::zeros([1, 2, 5, 5]);
        rng.fill_normal(x1.as_mut_slice(), 0.0, 1.0);
        let mut x2 = Tensor::zeros([1, 2, 5, 5]);
        rng.fill_normal(x2.as_mut_slice(), 0.0, 1.0);
        let y1 = l.forward(&params, &x1, true);
        let y2 = l.forward(&params, &x2, true);
        let mut both = Tensor::zeros([2, 2, 5, 5]);
        both.as_mut_slice()[..50].copy_from_slice(x1.as_slice());
        both.as_mut_slice()[50..].copy_from_slice(x2.as_slice());
        let y = l.forward(&params, &both, true);
        assert_eq!(&y.as_slice()[..y1.len()], y1.as_slice());
        assert_eq!(&y.as_slice()[y1.len()..], y2.as_slice());
    }
}
