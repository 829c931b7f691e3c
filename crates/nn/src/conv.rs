//! 2-D convolution as a GEMM over the lowered input, thread-parallel
//! over the batch.
//!
//! The im2col matrix is never written anywhere: the layer keeps the
//! batch's zero-padded input (`1.13×` the input at 3×3/pad 1, where the
//! matrix would be `9×`) and both GEMMs that need the lowering — the
//! forward `W·col` and the weight gradient `col·gyᵀ` — gather their
//! tiles from it inside their packs ([`Lowered`]).
//!
//! One sample's GEMM is too small to feed every thread (the paper's
//! §6.2 argument for giving each chip group its *own* samples), so the
//! threads go where the work is: forward and backward are one
//! [`par::fan_out`] each, which lends a job the layer's weights, the
//! input and its own `&mut` pieces of the outputs — nothing is copied,
//! and the GEMMs inside a job stay serial. `grad_in` splits by sample
//! like the forward pass; the weight and bias gradients sum over samples,
//! so they are split the other way — by output band, see
//! [`Layer::backward_into`] — and every element keeps the float
//! operation chain of the serial per-sample loop: results are
//! bit-identical at any thread count (DESIGN.md §8).

use crate::layer::{batch_of, Init, Layer, ParamSpec};
use easgd_tensor::par;
use easgd_tensor::{col2im, pad_image, Conv2dGeometry, Lowered, Operand};
use easgd_tensor::{gemm, gemm_view, Panels};
use easgd_tensor::{ParamArena, Tensor, TrainScratch, Transpose};

/// `gb[o] += Σ planes[o]` for `gb.len()` planes of `cols` floats, eight
/// planes at a time: each sum is still the strictly sequential chain of
/// [`easgd_tensor::ops::sum`], from the same neutral element, but eight
/// independent chains keep the adder busy where one waits out its
/// latency on every element.
fn add_plane_sums(planes: &[f32], cols: usize, gb: &mut [f32]) {
    let neutral = easgd_tensor::ops::sum(&[]);
    for (group, gb) in planes.chunks(8 * cols).zip(gb.chunks_mut(8)) {
        let mut acc = [neutral; 8];
        let mut planes = group.chunks_exact(cols);
        if gb.len() == 8 {
            let p: [&[f32]; 8] = std::array::from_fn(|_| planes.next().unwrap_or_default());
            let p = p.map(|plane| &plane[..cols]);
            for j in 0..cols {
                for (a, plane) in acc.iter_mut().zip(&p) {
                    *a += plane[j];
                }
            }
        } else {
            for (a, plane) in acc.iter_mut().zip(planes) {
                *a = easgd_tensor::ops::sum(plane);
            }
        }
        for (g, a) in gb.iter_mut().zip(acc) {
            *g += a;
        }
    }
}

/// `it`'s items, then `None` forever: lets job lists of unequal length
/// zip into one fork.
fn or_none<I: Iterator>(it: I) -> impl Iterator<Item = Option<I::Item>> {
    it.map(Some).chain(std::iter::repeat_with(|| None))
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
    /// The last forward batch's zero-padded input, `geom.padded_len()`
    /// floats a sample: everything backward needs of the forward pass.
    padded: Vec<f32>,
    /// Backward's `Wᵀ·gy` panels, one per fan-out thread, reused across
    /// samples and steps.
    grad_col: Vec<f32>,
    /// Backward's weight gradient, transposed (`[col_rows, out_channels]`)
    /// so that a band of it is contiguous.
    grad_w_t: Vec<f32>,
    /// Once frozen ([`Layer::freeze`]): the filter bank's layout in the
    /// arena, its A panels. A frozen layer runs forward only.
    w_panels: Option<Panels>,
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
            padded: Vec::new(),
            grad_col: Vec::new(),
            grad_w_t: Vec::new(),
            w_panels: None,
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

    /// Threads one pass over a `b`-sample batch forks over: the calling
    /// thread's budget when the batch's forward flops or the floats it
    /// streams — its largest operand: padded input, output or filter
    /// bank — clear the fork gate ([`par::fork_threads`]), never more
    /// than one per sample.
    fn batch_threads(&self, b: usize) -> usize {
        #[cfg(test)]
        if tests::UNGATED.with(std::cell::Cell::get) {
            return par::current_threads().min(b);
        }
        let flops = 2 * (b * self.weight_len() * self.geom.col_cols()) as u64;
        let floats = (b * self.geom.padded_len())
            .max(b * self.output_len())
            .max(self.weight_len());
        par::fork_threads(flops, floats).min(b)
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
        let (geom, out_channels, no) = (self.geom, self.out_channels, Transpose::No);
        let padded_len = geom.padded_len();
        let out_len = self.output_len();
        // Every output element is stored by the β = 0 GEMM and every
        // padded one by `pad_image`, so the reused buffers need no
        // zeroing. `padded` is sized to this batch exactly: its length is
        // the record of how many samples backward may ask for.
        scratch.shape_tensor(out, &[b, out_channels, geom.out_h(), geom.out_w()]);
        scratch.ensure_f32(&mut self.padded, b * padded_len);

        // One job per thread, each a contiguous run of samples: pad the
        // image, then `y = W·col + bias` with `col` the lowering of the
        // padded image, which the GEMM reads through its B-pack.
        let (rows, cols, panels) = (geom.col_rows(), geom.col_cols(), self.w_panels);
        let w = panels.map_or(Operand::Stored(w), |p| Operand::Packed(p, w));
        let per = b.div_ceil(self.batch_threads(b));
        par::fan_out(
            self.padded
                .chunks_mut(per * padded_len)
                .zip(out.as_mut_slice().chunks_mut(per * out_len))
                .zip(input.as_slice().chunks(per * in_len)),
            |((pads, ys), images)| {
                for ((padded, y), image) in pads
                    .chunks_mut(padded_len)
                    .zip(ys.chunks_mut(out_len))
                    .zip(images.chunks(in_len))
                {
                    pad_image(&geom, image, padded);
                    let col = Operand::Lowered(Lowered::new(&geom, padded));
                    gemm_view(no, no, out_channels, cols, rows, 1.0, w, col, 0.0, y);
                    for (plane, bc) in y.chunks_mut(cols).zip(bias) {
                        plane.iter_mut().for_each(|v| *v += bc);
                    }
                }
            },
        );
    }

    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.backward_fork(params, grads, grad_out, Some(grad_in), scratch);
    }

    fn backward_params_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        _grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.backward_fork(params, grads, grad_out, None, scratch);
    }

    /// The filter bank is the forward GEMM's A: packed once, so no
    /// forward packs it again.
    fn freeze(&mut self) -> Vec<Option<Panels>> {
        let (oc, rows) = (self.out_channels, self.geom.col_rows());
        self.w_panels = Some(Panels::a(Transpose::No, oc, rows));
        (self.grad_col, self.grad_w_t) = (Vec::new(), Vec::new());
        vec![self.w_panels, None]
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        // Caches are transient; cloning the configuration is enough.
        let mut c = self.clone();
        c.padded = Vec::new();
        c.grad_col = Vec::new();
        c.grad_w_t = Vec::new();
        Box::new(c)
    }

    #[cfg(test)]
    fn held_floats(&self) -> usize {
        self.padded.capacity() + self.grad_col.capacity() + self.grad_w_t.capacity()
    }
}

impl Conv2d {
    /// One fork; job `i` owns three pieces, each bit-identical to the
    /// serial per-sample loop
    /// `gradW += gy_s·col_sᵀ; gradB += Σ gy_s; gx_s = col2im(Wᵀ·gy_s)`:
    ///
    /// * `grad_in` is per-sample, so the job takes a run of samples like
    ///   the forward pass, with a `Wᵀ·gy` panel of its own.
    /// * `gradW` sums over samples, and float addition does not
    ///   reassociate — so it is banded by **output**, not by sample: the
    ///   job owns a band of `col` rows and walks samples `0..b` in order
    ///   through the transposed product
    ///   `gradWᵀ[band, oc] += col_s[band, :] · gy_sᵀ`, whose band is a
    ///   contiguous run of the layer's `gradWᵀ` panel and a run of rows
    ///   of the lowered input: the band's GEMM reads its A through a row
    ///   window of the lowering ([`Lowered::rows_from`]), and a band of a
    ///   product is a product of a band — a GEMM output's chain depends on
    ///   `k` alone. `a·b` commutes inside every FMA, so element `(oc, r)`
    ///   sees the very chain the untransposed per-sample GEMMs gave it.
    ///   The panel starts at +0.0 and is stored into the gradient after
    ///   the join.
    /// * `gradB` likewise: the job owns a band of output channels, zeroes
    ///   it and adds their plane sums sample by sample (`add_plane_sums`).
    ///
    /// Without a `grad_in` (the params-only backward of a network's first
    /// parametrised layer) no job has a sample run, and the `Wᵀ·gy`
    /// panels are not grown.
    fn backward_fork(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: Option<&mut Tensor>,
        scratch: &mut TrainScratch,
    ) {
        let (geom, oc) = (self.geom, self.out_channels);
        let (rows, cols) = (geom.col_rows(), geom.col_cols());
        let (in_len, padded_len, out_len) =
            (geom.input_len(), geom.padded_len(), self.output_len());
        let b = self.padded.len() / padded_len;
        assert!(b > 0, "backward called before forward");
        assert!(self.w_panels.is_none(), "conv '{}' is frozen", self.name);
        assert_eq!(
            grad_out.len(),
            b * out_len,
            "conv '{}' backward: the gradient holds {} samples, the last forward ran {b}",
            self.name,
            grad_out.len() / out_len
        );
        let w = params.segment(self.w_seg);
        let gys = grad_out.as_slice();
        let threads = self.batch_threads(b);
        let (per, band, oc_band) = (
            b.div_ceil(threads),
            rows.div_ceil(threads),
            oc.div_ceil(threads),
        );

        // col2im zeroes each per-sample image slice itself before its
        // `+=` accumulation, and the slices tile grad_in exactly, so the
        // reused buffer needs no zeroing here. The β = 0 GEMM likewise
        // stores every element of a grad_col panel.
        let gxs = match grad_in {
            Some(grad_in) => {
                scratch.shape_tensor(grad_in, &[b, geom.in_channels, geom.in_h, geom.in_w]);
                scratch.ensure_f32(&mut self.grad_col, threads * rows * cols);
                grad_in.as_mut_slice()
            }
            None => &mut [],
        };
        scratch.ensure_f32(&mut self.grad_w_t, rows * oc);
        let (gw, gb) = grads.segment_pair_mut(self.w_seg, self.b_seg);
        let padded = &self.padded;
        let sample_runs = gxs
            .chunks_mut(per * in_len)
            .zip(self.grad_col.chunks_mut(rows * cols))
            .zip(gys.chunks(per * out_len));
        par::fan_out(
            or_none(sample_runs)
                .zip(or_none(gb.chunks_mut(oc_band).enumerate()))
                .zip(or_none(self.grad_w_t.chunks_mut(band * oc).enumerate()))
                .take(threads),
            |((sample_run, gb_band), gw_band)| {
                if let Some(((gxs, grad_col), run_gys)) = sample_run {
                    for (gx, gy) in gxs.chunks_mut(in_len).zip(run_gys.chunks(out_len)) {
                        // gradCol[rows, cols] = Wᵀ[rows, oc] · gy[oc, cols]
                        gemm(
                            Transpose::Yes,
                            Transpose::No,
                            rows,
                            cols,
                            oc,
                            1.0,
                            w,
                            gy,
                            0.0,
                            grad_col,
                        );
                        col2im(&geom, grad_col, gx);
                    }
                }
                // gradB[o] = Σ gy_s[o, :], s in order, from +0.0.
                if let Some((i, gb)) = gb_band {
                    gb.fill(0.0);
                    for gy in gys.chunks(out_len) {
                        let planes = &gy[i * oc_band * cols..][..gb.len() * cols];
                        add_plane_sums(planes, cols, gb);
                    }
                }
                // gradWᵀ[rows, oc] = Σ_s col_s[rows, cols] · gy_sᵀ[cols, oc],
                // s in order, from +0.0.
                if let Some((i, panel)) = gw_band {
                    panel.fill(0.0);
                    let (no, yes, mc0) = (Transpose::No, Transpose::Yes, panel.len() / oc);
                    for (padded, gy) in padded.chunks(padded_len).zip(gys.chunks(out_len)) {
                        let col = Lowered::new(&geom, padded).rows_from(i * band);
                        let (col, gy) = (Operand::Lowered(col), Operand::Stored(gy));
                        gemm_view(no, yes, mc0, oc, cols, 1.0, col, gy, 1.0, panel);
                    }
                }
            },
        );
        for (o, row) in gw.chunks_mut(rows).enumerate() {
            for (r, v) in row.iter_mut().enumerate() {
                *v = self.grad_w_t[r * oc + o];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};
    use easgd_tensor::im2col;

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

    thread_local! {
        /// Lets the split tests fork shapes far below the flop gate.
        pub(super) static UNGATED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Runs `f` under a budget of `threads` with the flop gate lifted.
    fn ungated<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        UNGATED.with(|u| u.set(true));
        let out = par::with_budget(threads, f);
        UNGATED.with(|u| u.set(false));
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The serial per-sample loop the layer must reproduce bit for bit,
    /// spelled out over a materialised `im2col` matrix so that it shares
    /// no code with the layer: `(y, grad_in)`, with `gradW`/`gradB`
    /// accumulated into `grads` (zeroed by the caller, so that they are
    /// the step's gradients).
    fn per_sample_reference(
        l: &Conv2d,
        params: &ParamArena,
        grads: &mut ParamArena,
        x: &Tensor,
        gy: &Tensor,
    ) -> (Vec<f32>, Vec<f32>) {
        let (rows, cols) = (l.geom.col_rows(), l.geom.col_cols());
        let (in_len, out_len) = (l.geom.input_len(), l.output_len());
        let w = params.segment(l.w_seg);
        let mut y = vec![0.0; gy.len()];
        let mut gx = vec![0.0; x.len()];
        let mut col = vec![0.0; rows * cols];
        let mut grad_col = vec![0.0; rows * cols];
        for s in 0..x.len() / in_len {
            let ys = &mut y[s * out_len..(s + 1) * out_len];
            let image = &x.as_slice()[s * in_len..(s + 1) * in_len];
            im2col(&l.geom, image, &mut col);
            gemm(
                Transpose::No,
                Transpose::No,
                l.out_channels,
                cols,
                rows,
                1.0,
                w,
                &col,
                0.0,
                ys,
            );
            for (plane, bc) in ys.chunks_mut(cols).zip(params.segment(l.b_seg)) {
                plane.iter_mut().for_each(|v| *v += bc);
            }
            let gys = &gy.as_slice()[s * out_len..(s + 1) * out_len];
            gemm(
                Transpose::No,
                Transpose::Yes,
                l.out_channels,
                rows,
                cols,
                1.0,
                gys,
                &col,
                1.0,
                grads.segment_mut(l.w_seg),
            );
            let gb = grads.segment_mut(l.b_seg);
            for (oc, plane) in gys.chunks(cols).enumerate() {
                gb[oc] += easgd_tensor::ops::sum(plane);
            }
            gemm(
                Transpose::Yes,
                Transpose::No,
                rows,
                cols,
                l.out_channels,
                1.0,
                w,
                gys,
                0.0,
                &mut grad_col,
            );
            col2im(&l.geom, &grad_col, &mut gx[s * in_len..(s + 1) * in_len]);
        }
        (y, gx)
    }

    #[test]
    fn batch_split_is_bit_identical_to_per_sample_loop() {
        // (in_channels, h, w, k_h, k_w, stride, pad, out_channels), one
        // per boundary the split and the GEMM under it can cross.
        let shapes = [
            (3, 8, 8, 3, 3, 1, 1, 5),     // col rows 27 (not ×MR), cols 64 < KC
            (2, 18, 17, 3, 3, 1, 1, 9),   // cols 306: one KC block and a ragged second
            (2, 9, 8, 3, 2, 2, 1, 4),     // stride 2 with padding
            (1, 6, 6, 3, 3, 1, 0, 4),     // a 4x16x9 forward: one short tile
            (16, 10, 10, 3, 3, 1, 1, 12), // col rows 144: bands of whole and part tiles
            (32, 6, 6, 3, 3, 1, 1, 8),    // forward in the skinny nest: 8 rows, k = 288
            (3, 18, 17, 3, 3, 1, 1, 9),   // one-thread gradW in the skinny nest: 27 rows, k = 306
            (2, 12, 12, 5, 5, 1, 0, 6),   // pad 0, 8-wide output rows
        ];
        for (case, &(c, h, w, k_h, k_w, stride, pad, oc)) in shapes.iter().enumerate() {
            let geom = Conv2dGeometry {
                in_channels: c,
                in_h: h,
                in_w: w,
                k_h,
                k_w,
                stride,
                pad,
            };
            let mut l = Conv2d::new("c", geom, oc);
            let (params, mut grads0) = build_arenas(&mut l, 40 + case as u64);
            // A poisoned incoming gradient: backward stores the step's
            // gradient, so it must not read one element of the arena —
            // a NaN that leaks reaches every bit it touches. The
            // reference accumulates onto zeros.
            grads0.as_mut_slice().fill(f32::NAN);
            let mut zeroed = grads0.clone();
            zeroed.zero();
            for b in [1usize, 2, 3, 8] {
                let mut rng = easgd_tensor::Rng::new(60 + b as u64);
                let mut x = Tensor::zeros([b, c, h, w]);
                rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
                let mut gy = Tensor::zeros([b, oc, geom.out_h(), geom.out_w()]);
                rng.fill_normal(gy.as_mut_slice(), 0.0, 1.0);
                let mut want_grads = zeroed.clone();
                let (want_y, want_gx) = per_sample_reference(&l, &params, &mut want_grads, &x, &gy);
                for threads in [1usize, 2, 3, 5] {
                    let mut grads = grads0.clone();
                    let (y, gx) = ungated(threads, || {
                        let y = l.forward(&params, &x, true);
                        (y, l.backward(&params, &mut grads, &gy))
                    });
                    let at = format!("case {case} b={b} threads={threads}");
                    assert_eq!(bits(y.as_slice()), bits(&want_y), "y, {at}");
                    assert_eq!(bits(gx.as_slice()), bits(&want_gx), "grad_in, {at}");
                    assert_eq!(
                        bits(grads.as_slice()),
                        bits(want_grads.as_slice()),
                        "gradW/gradB, {at}"
                    );
                    // The params-only entry: the same bands, no sample runs.
                    let mut grads = grads0.clone();
                    let (mut gx, mut scratch) = (Tensor::default(), TrainScratch::default());
                    ungated(threads, || {
                        l.backward_params_into(&params, &mut grads, &gy, &mut gx, &mut scratch)
                    });
                    assert_eq!(
                        bits(grads.as_slice()),
                        bits(want_grads.as_slice()),
                        "params-only gradW/gradB, {at}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_conv_step_counts_the_same_gemm_flops_at_every_budget() {
        // The batch fan-out runs the per-sample GEMMs on spawned
        // threads; their counts come back to the caller. The `gradW`
        // bands follow the budget, so the calls do too, but every nest's
        // flops are the same at any budget.
        use easgd_tensor::gemm::{counts, Counts};
        let flops = |c: Counts| {
            let nests = [c.standard, c.skinny, c.stream, c.transposed_stream];
            nests.map(|n| n.flops)
        };
        let mut l = Conv2d::new("c", small_geom(), 4);
        let (params, mut grads) = build_arenas(&mut l, 9);
        let mut x = Tensor::zeros([3, 2, 5, 5]);
        easgd_tensor::Rng::new(10).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let mut step = |threads: usize| {
            let before = counts();
            ungated(threads, || {
                let y = l.forward(&params, &x, true);
                l.backward(&params, &mut grads, &y);
            });
            counts().since(&before)
        };
        let serial = flops(step(1));
        assert!(serial.iter().sum::<u64>() > 0);
        for threads in [2, 3] {
            let spawned = par::threads_spawned();
            assert_eq!(flops(step(threads)), serial, "threads={threads}");
            assert!(
                par::threads_spawned() > spawned,
                "threads={threads} forked nothing"
            );
        }
    }

    #[test]
    fn one_thread_group_keeps_conv_on_the_calling_thread() {
        // Big enough to clear the fork-join gate (2·8·64·72·1024 flops),
        // so only the budget decides. A serve shard or a §6.2 partition
        // group of one thread must not borrow threads it does not own.
        let geom = Conv2dGeometry {
            in_channels: 8,
            in_h: 32,
            in_w: 32,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let b = 8;
        let mut l = Conv2d::new("c", geom, 64);
        assert_eq!(par::with_budget(2, || l.batch_threads(b)), 2);
        let (params, mut grads) = build_arenas(&mut l, 3);
        let mut x = Tensor::zeros([b, 8, 32, 32]);
        easgd_tensor::Rng::new(21).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        for (threads, forks) in [(1usize, 0u64), (2, 2)] {
            let before = par::threads_spawned();
            par::with_budget(threads, || {
                let y = l.forward(&params, &x, true);
                l.backward(&params, &mut grads, &y);
            });
            // One fork forward, one backward, each spawning one thread
            // per budgeted thread beyond the caller.
            assert_eq!(par::threads_spawned() - before, forks, "threads={threads}");
        }
    }

    proptest::proptest! {
        #[test]
        fn any_geometry_batch_and_budget_matches_the_per_sample_loop(
            dims in (1usize..6, 1usize..6, 1usize..4, 0usize..3),
            extent in (1usize..6, 0usize..9, 0usize..9),
            sizes in (1usize..6, 1usize..6, 1usize..4),
        ) {
            let (k_h, k_w, stride, pad) = dims;
            let (in_channels, dh, dw) = extent;
            let (oc, b, threads) = sizes;
            let geom = Conv2dGeometry {
                in_channels,
                in_h: k_h.saturating_sub(2 * pad).max(1) + dh,
                in_w: k_w.saturating_sub(2 * pad).max(1) + dw,
                k_h,
                k_w,
                stride,
                pad,
            };
            let mut l = Conv2d::new("c", geom, oc);
            let (params, mut grads) = build_arenas(&mut l, (k_h * 11 + dh) as u64);
            let mut rng = easgd_tensor::Rng::new((k_w * 13 + dw) as u64);
            rng.fill_normal(grads.as_mut_slice(), 0.0, 1.0);
            let mut x = Tensor::zeros([b, in_channels, geom.in_h, geom.in_w]);
            rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let mut gy = Tensor::zeros([b, oc, geom.out_h(), geom.out_w()]);
            rng.fill_normal(gy.as_mut_slice(), 0.0, 1.0);
            let mut want_grads = grads.clone();
            want_grads.zero();
            let (want_y, want_gx) = per_sample_reference(&l, &params, &mut want_grads, &x, &gy);
            let (y, gx) = ungated(threads, || {
                let y = l.forward(&params, &x, true);
                (y, l.backward(&params, &mut grads, &gy))
            });
            let at = format!("{geom:?} oc={oc} b={b} threads={threads}");
            proptest::prop_assert_eq!(bits(y.as_slice()), bits(&want_y), "y, {}", at);
            proptest::prop_assert_eq!(bits(gx.as_slice()), bits(&want_gx), "grad_in, {}", at);
            proptest::prop_assert_eq!(
                bits(grads.as_slice()),
                bits(want_grads.as_slice()),
                "gradW/gradB, {}", at
            );
        }
    }

    #[test]
    fn bias_gradient_keeps_the_sequential_sum_on_signed_zeros_and_mixed_signs() {
        // 19 planes: two groups of eight chains and a three-plane tail.
        // All-`-0.0` planes tell the chains' start apart (`-0.0 + -0.0`
        // is `-0.0`, `0.0 + -0.0` is not); the mixed-sign ones cancel
        // catastrophically, so any reassociation shows in the low bits.
        let (planes, cols) = (19, 37);
        let mut rng = easgd_tensor::Rng::new(5);
        for negative_zeros in [true, false] {
            let gy: Vec<f32> = (0..planes * cols)
                .map(|i| match (negative_zeros, i % 3) {
                    (true, _) => -0.0,
                    (false, 0) => 1e6 * rng.normal(),
                    (false, _) => rng.normal(),
                })
                .collect();
            for seed in [-0.0f32, 0.25] {
                let mut gb = vec![seed; planes];
                add_plane_sums(&gy, cols, &mut gb);
                let want: Vec<f32> = gy
                    .chunks(cols)
                    .map(|plane| seed + plane.iter().sum::<f32>())
                    .collect();
                assert_eq!(bits(&gb), bits(&want), "-0.0 planes: {negative_zeros}");
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "conv 'c' backward: the gradient holds 8 samples, the last forward ran 2"
    )]
    fn backward_refuses_a_gradient_for_an_earlier_larger_batch() {
        // forward(8), forward(2), backward(grad of 8): the buffers of the
        // first batch are still allocated, but six of its samples are
        // stale — folding them into gradW was a silent wrong answer.
        let mut l = Conv2d::new("c", small_geom(), 2);
        let (params, mut grads) = build_arenas(&mut l, 1);
        let y8 = l.forward(&params, &Tensor::zeros([8, 2, 5, 5]), true);
        l.forward(&params, &Tensor::zeros([2, 2, 5, 5]), true);
        l.backward(&params, &mut grads, &y8);
    }

    /// VGG conv2: 32 → 32 channels, 3×3, pad 1, on 32×32 maps.
    fn conv2_geom() -> Conv2dGeometry {
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

    #[test]
    fn a_forward_keeps_the_padded_batch_and_nothing_of_the_lowered_matrix() {
        let geom = conv2_geom();
        let (b, oc, threads) = (64, 32, 2);
        let lowered = geom.col_rows() * geom.col_cols();
        assert!(
            geom.padded_len() * 7 < lowered,
            "the matrix is 8x the image"
        );
        for train in [true, false] {
            let mut l = Conv2d::new("c", geom, oc);
            let (params, mut grads) = build_arenas(&mut l, 2);
            let x = Tensor::zeros([b, 32, 32, 32]);
            let (mut y, mut scratch) = (Tensor::default(), TrainScratch::default());
            par::with_budget(threads, || {
                l.forward_into(&params, &x, train, &mut y, &mut scratch);
            });
            assert_eq!(l.held_floats(), b * geom.padded_len(), "train={train}");
            // A params-only backward adds the gradWᵀ panel alone.
            let mut gx = Tensor::default();
            par::with_budget(threads, || {
                l.backward_params_into(&params, &mut grads, &y, &mut gx, &mut scratch)
            });
            assert_eq!(
                l.held_floats(),
                b * geom.padded_len() + geom.col_rows() * oc
            );
            // The full one its `Wᵀ·gy` panel per thread as well.
            par::with_budget(threads, || l.backward(&params, &mut grads, &y));
            assert_eq!(
                l.held_floats(),
                b * geom.padded_len() + threads * lowered + geom.col_rows() * oc
            );
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
