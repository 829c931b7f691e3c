//! im2col / col2im lowering for convolution-as-GEMM.
//!
//! Convolutional layers in the paper's era of frameworks (Caffe, cuDNN)
//! were implemented by unrolling input patches into a matrix and calling
//! GEMM; we do the same so the per-worker compute path matches what the
//! paper benchmarked — except that the conv layer never writes the
//! matrix: the GEMM packs read it in place through [`Lowered`].

/// Geometry of a 2-D convolution (single spatial configuration shared by
/// im2col, col2im and the conv layer).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same both directions).
    pub stride: usize,
    /// Zero padding (same all sides).
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Panics with the offending geometry unless [`is_valid`](Self::is_valid)
    /// holds. The dimension accessors call this so an impossible geometry
    /// (kernel larger than the padded input, zero stride or kernel) fails
    /// loudly at the first size computation — a `saturating_sub` here used
    /// to round such geometries to a bogus 1-pixel output, and every
    /// buffer sized from it was silently wrong.
    fn assert_valid(&self) {
        assert!(
            self.is_valid(),
            "invalid conv geometry (kernel must fit the padded input, \
             stride and kernel must be non-zero): {self:?}"
        );
    }

    /// Output height after the convolution.
    ///
    /// # Panics
    /// Panics if the geometry is not [`is_valid`](Self::is_valid).
    pub fn out_h(&self) -> usize {
        self.assert_valid();
        (self.in_h + 2 * self.pad - self.k_h) / self.stride + 1
    }

    /// Output width after the convolution.
    ///
    /// # Panics
    /// Panics if the geometry is not [`is_valid`](Self::is_valid).
    pub fn out_w(&self) -> usize {
        self.assert_valid();
        (self.in_w + 2 * self.pad - self.k_w) / self.stride + 1
    }

    /// Rows of the im2col matrix: one per kernel element per input channel.
    pub fn col_rows(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Columns of the im2col matrix: one per output pixel.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Number of elements in one input image (C·H·W).
    pub fn input_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Number of elements in one zero-padded image, C·(H+2p)·(W+2p) —
    /// what [`pad_image`] writes and a [`Lowered`] view reads.
    pub fn padded_len(&self) -> usize {
        self.in_channels * (self.in_h + 2 * self.pad) * (self.in_w + 2 * self.pad)
    }

    /// Validates that the geometry produces at least one output pixel.
    pub fn is_valid(&self) -> bool {
        self.in_h + 2 * self.pad >= self.k_h
            && self.in_w + 2 * self.pad >= self.k_w
            && self.stride > 0
            && self.k_h > 0
            && self.k_w > 0
    }
}

/// Range of output columns `ox` for which `ix = ox·stride + k - pad`
/// lands inside `[0, extent)`. Empty ranges come back as `(lo, lo)`.
fn valid_out_range(
    extent: usize,
    out_extent: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let off = k as isize - pad as isize;
    // Smallest ox with ox·stride + off ≥ 0.
    let lo = if off >= 0 {
        0
    } else {
        ((-off) as usize).div_ceil(stride)
    };
    // Largest ox with ox·stride + off < extent, plus one.
    let hi = if off >= extent as isize {
        lo
    } else {
        out_extent.min((extent as isize - 1 - off) as usize / stride + 1)
    };
    (lo.min(out_extent), hi.max(lo).min(out_extent))
}

/// Unrolls one CHW image into the `col_rows() × col_cols()` patch matrix.
///
/// Out-of-image (padding) positions contribute zeros.
///
/// # Panics
/// Panics if buffer sizes don't match the geometry.
pub fn im2col(geom: &Conv2dGeometry, image: &[f32], col: &mut [f32]) {
    assert!(geom.is_valid(), "invalid conv geometry {geom:?}");
    assert_eq!(image.len(), geom.input_len(), "image buffer size mismatch");
    assert_eq!(
        col.len(),
        geom.col_rows() * geom.col_cols(),
        "col buffer size mismatch"
    );
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let n_cols = oh * ow;
    let mut row = 0;
    for c in 0..geom.in_channels {
        let plane = &image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..geom.k_h {
            for kx in 0..geom.k_w {
                let (ox_lo, ox_hi) = valid_out_range(geom.in_w, ow, kx, geom.stride, geom.pad);
                let out_row = &mut col[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= geom.in_h as isize {
                        dst.iter_mut().for_each(|x| *x = 0.0);
                        continue;
                    }
                    let src_row = &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                    // Padding columns outside the valid window are zeros;
                    // inside it `ix` advances by `stride` with no bounds
                    // checks, and the stride-1 case is a straight copy.
                    dst[..ox_lo].iter_mut().for_each(|x| *x = 0.0);
                    dst[ox_hi..].iter_mut().for_each(|x| *x = 0.0);
                    let ix0 = (ox_lo * geom.stride + kx) - geom.pad;
                    if geom.stride == 1 {
                        dst[ox_lo..ox_hi].copy_from_slice(&src_row[ix0..ix0 + (ox_hi - ox_lo)]);
                    } else {
                        for (i, d) in dst[ox_lo..ox_hi].iter_mut().enumerate() {
                            *d = src_row[ix0 + i * geom.stride];
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Scatters a patch-matrix gradient back to image space (the adjoint of
/// [`im2col`]): overlapping patches accumulate.
///
/// # Panics
/// Panics if buffer sizes don't match the geometry.
pub fn col2im(geom: &Conv2dGeometry, col: &[f32], image: &mut [f32]) {
    assert!(geom.is_valid(), "invalid conv geometry {geom:?}");
    assert_eq!(image.len(), geom.input_len(), "image buffer size mismatch");
    assert_eq!(
        col.len(),
        geom.col_rows() * geom.col_cols(),
        "col buffer size mismatch"
    );
    image.iter_mut().for_each(|x| *x = 0.0);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let n_cols = oh * ow;
    let mut row = 0;
    for c in 0..geom.in_channels {
        let plane = &mut image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
        for ky in 0..geom.k_h {
            for kx in 0..geom.k_w {
                let (ox_lo, ox_hi) = valid_out_range(geom.in_w, ow, kx, geom.stride, geom.pad);
                let src_row = &col[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    // Same `ox`-ascending accumulation order as the
                    // per-element form (bit-identical adjoint); only the
                    // padding bounds checks are hoisted out of the loop.
                    let ix0 = (ox_lo * geom.stride + kx) - geom.pad;
                    let dst = &mut plane[iy as usize * geom.in_w + ix0..];
                    let src = &src_row[oy * ow + ox_lo..oy * ow + ox_hi];
                    if geom.stride == 1 {
                        for (d, s) in dst[..src.len()].iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (i, s) in src.iter().enumerate() {
                            dst[i * geom.stride] += s;
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Writes the zero-padded copy of one CHW image: every element of
/// `padded` is stored, so a dirty reused buffer is fine.
///
/// # Panics
/// Panics if buffer sizes don't match the geometry.
pub fn pad_image(geom: &Conv2dGeometry, image: &[f32], padded: &mut [f32]) {
    assert_eq!(image.len(), geom.input_len(), "image buffer size mismatch");
    assert_eq!(
        padded.len(),
        geom.padded_len(),
        "padded buffer size mismatch"
    );
    let (w, pad) = (geom.in_w, geom.pad);
    let (ph, pw) = (geom.in_h + 2 * pad, w + 2 * pad);
    let planes = image.chunks(geom.in_h * w).zip(padded.chunks_mut(ph * pw));
    for (plane, out) in planes {
        let (top, rest) = out.split_at_mut(pad * pw);
        let (body, bottom) = rest.split_at_mut(geom.in_h * pw);
        top.fill(0.0);
        bottom.fill(0.0);
        for (src, dst) in plane.chunks(w).zip(body.chunks_mut(pw)) {
            dst[..pad].fill(0.0);
            dst[pad..pad + w].copy_from_slice(src);
            dst[pad + w..].fill(0.0);
        }
    }
}

/// The `col_rows() × col_cols()` matrix [`im2col`] would write, read in
/// place from one sample's zero-padded image ([`pad_image`]): row
/// `(c, ky, kx)` × output row `oy` is the `out_w()` floats at stride
/// `stride` from `padded[c][oy·stride + ky][kx]` — no clipping and no
/// zero fill, the border is in the image. The GEMM packs gather their
/// tiles through it ([`crate::Operand::Lowered`]), so a convolution never
/// materialises the matrix. A view may start at a later row
/// ([`rows_from`](Self::rows_from)): a band of a product over the matrix
/// is then a product over that window.
#[derive(Copy, Clone, Debug)]
pub struct Lowered<'a> {
    geom: &'a Conv2dGeometry,
    padded: &'a [f32],
    out_w: usize,
    cols: usize,
    /// The lowered matrix's row that is this view's row 0.
    row0: usize,
}

impl<'a> Lowered<'a> {
    /// The lowering of `padded` under `geom`.
    ///
    /// # Panics
    /// Panics if the geometry is invalid or `padded` is not
    /// [`padded_len`](Conv2dGeometry::padded_len) long.
    pub fn new(geom: &'a Conv2dGeometry, padded: &'a [f32]) -> Self {
        assert_eq!(
            padded.len(),
            geom.padded_len(),
            "padded buffer size mismatch"
        );
        Self {
            geom,
            padded,
            out_w: geom.out_w(),
            cols: geom.col_cols(),
            row0: 0,
        }
    }

    /// The view's rows from `row` on, its row 0 the lowered matrix's row
    /// `row` — the `A` of one band of a product over the whole matrix.
    ///
    /// # Panics
    /// Panics if `row` is past the view's last row.
    pub fn rows_from(self, row: usize) -> Self {
        assert!(
            row <= self.rows(),
            "row {row} of a {}-row lowering",
            self.rows()
        );
        Self {
            row0: self.row0 + row,
            ..self
        }
    }

    /// Rows of the view: the lowered matrix's, less the ones it skips.
    pub fn rows(&self) -> usize {
        self.geom.col_rows() - self.row0
    }

    /// Columns of the lowered matrix (its row stride as a GEMM operand).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `dst[p·ld + j] = view[row0 + p][col0 + j]` for `p < nrows`,
    /// `j < ncols`; the other floats of `dst` are left alone.
    pub(crate) fn gather(
        &self,
        row0: usize,
        nrows: usize,
        col0: usize,
        ncols: usize,
        dst: &mut [f32],
        ld: usize,
    ) {
        let g = self.geom;
        assert!(
            row0 + nrows <= self.rows() && col0 + ncols <= self.cols,
            "gather {row0}+{nrows} x {col0}+{ncols} outside the lowered matrix"
        );
        assert!(
            ncols <= ld && (nrows == 0 || (nrows - 1) * ld + ncols <= dst.len()),
            "gather of {nrows} x {ncols} at stride {ld} overruns its destination"
        );
        let pw = g.in_w + 2 * g.pad;
        let plane = (g.in_h + 2 * g.pad) * pw;
        let (oy0, ox0) = (col0 / self.out_w, col0 % self.out_w);
        let first = (oy0 * pw + ox0) * g.stride;
        let row = self.row0 + row0;
        let (mut c, mut ky, mut kx) = (row / (g.k_h * g.k_w), row / g.k_w % g.k_h, row % g.k_w);
        for out in dst.chunks_mut(ld).take(nrows) {
            // Output row by output row: the first run starts at `ox0`,
            // every later one at the row's left edge.
            let mut src = c * plane + ky * pw + kx + first;
            let mut ox = ox0;
            let mut rest = &mut out[..ncols];
            while !rest.is_empty() {
                let (run, tail) = rest.split_at_mut((self.out_w - ox).min(rest.len()));
                copy_run(&self.padded[src..], g.stride, run);
                src += (pw - ox) * g.stride;
                ox = 0;
                rest = tail;
            }
            kx += 1;
            if kx == g.k_w {
                (kx, ky) = (0, ky + 1);
                if ky == g.k_h {
                    (ky, c) = (0, c + 1);
                }
            }
        }
    }
}

/// `dst[i] = src[i·stride]`. The unit-stride run — every conv in the
/// repo's models — moves as fixed eight-float blocks, which compile to
/// one vector load/store each; at the 8–32-float runs of a 3×3 or 5×5
/// layer a `memcpy` call per run costs more than the bytes it moves.
fn copy_run(src: &[f32], stride: usize, dst: &mut [f32]) {
    if stride == 1 {
        let (src8, src_rest) = src[..dst.len()].as_chunks::<8>();
        let (dst8, dst_rest) = dst.as_chunks_mut::<8>();
        for (d, s) in dst8.iter_mut().zip(src8) {
            *d = *s;
        }
        for (d, s) in dst_rest.iter_mut().zip(src_rest) {
            *d = *s;
        }
    } else {
        for (d, s) in dst.iter_mut().zip(src.iter().step_by(stride)) {
            *d = *s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Conv2dGeometry {
        /// A valid geometry from property-test draws: `(k_h, k_w, stride,
        /// pad)` and `(in_channels, dh, dw)`, the input `dh × dw` larger than
        /// the smallest one the kernel fits.
        pub(crate) fn sampled(
            (k_h, k_w, stride, pad): (usize, usize, usize, usize),
            (in_channels, dh, dw): (usize, usize, usize),
        ) -> Self {
            Self {
                in_channels,
                in_h: k_h.saturating_sub(2 * pad).max(1) + dh,
                in_w: k_w.saturating_sub(2 * pad).max(1) + dw,
                k_h,
                k_w,
                stride,
                pad,
            }
        }
    }

    fn geom_3x3_input_2x2_kernel() -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 2,
            k_w: 2,
            stride: 1,
            pad: 0,
        }
    }

    #[test]
    fn output_dims() {
        let g = geom_3x3_input_2x2_kernel();
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
        let padded = Conv2dGeometry { pad: 1, ..g };
        assert_eq!((padded.out_h(), padded.out_w()), (4, 4));
        let strided = Conv2dGeometry {
            in_h: 5,
            in_w: 5,
            stride: 2,
            ..g
        };
        assert_eq!((strided.out_h(), strided.out_w()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn oversized_kernel_is_rejected_not_rounded() {
        // 2×2 input, 3×3 kernel, no padding: no valid output position.
        // The old saturating arithmetic reported a 1×1 output here.
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 0,
        };
        let _ = g.out_h();
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn zero_stride_is_rejected() {
        let g = Conv2dGeometry {
            stride: 0,
            ..geom_3x3_input_2x2_kernel()
        };
        let _ = g.out_w();
    }

    #[test]
    fn kernel_exactly_filling_padded_input_is_valid() {
        // 2×2 input + pad 1 = 4×4 padded extent with a 4×4 kernel: exactly
        // one output pixel, the boundary the rejection must not eat.
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 4,
            k_w: 4,
            stride: 1,
            pad: 1,
        };
        assert!(g.is_valid());
        assert_eq!((g.out_h(), g.out_w()), (1, 1));
    }

    #[test]
    fn im2col_known_patches() {
        let g = geom_3x3_input_2x2_kernel();
        // image: 0..9 row-major
        let image: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        // Row 0 = kernel (0,0) across the 4 output pixels: 0,1,3,4
        assert_eq!(&col[0..4], &[0., 1., 3., 4.]);
        // Row 3 = kernel (1,1): 4,5,7,8
        assert_eq!(&col[12..16], &[4., 5., 7., 8.]);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let g = Conv2dGeometry {
            pad: 1,
            ..geom_3x3_input_2x2_kernel()
        };
        let image = vec![1.0; 9];
        let mut col = vec![7.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        // Kernel (0,0), output (0,0) reads image(-1,-1) → 0.
        assert_eq!(col[0], 0.0);
        // There must be real values too.
        assert!(col.contains(&1.0));
    }

    #[test]
    fn conv_via_gemm_matches_direct() {
        // 1×4×4 input, 2×2 kernel, stride 1, no pad; compare GEMM result to
        // a direct sliding-window convolution.
        let g = Conv2dGeometry {
            in_channels: 1,
            in_h: 4,
            in_w: 4,
            k_h: 2,
            k_w: 2,
            stride: 1,
            pad: 0,
        };
        let mut rng = crate::rng::Rng::new(1);
        let image: Vec<f32> = (0..16).map(|_| rng.uniform()).collect();
        let kernel: Vec<f32> = (0..4).map(|_| rng.uniform()).collect();
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        // out = kernel(1×4) · col(4×9)
        let out = crate::gemm::matmul(1, g.col_cols(), g.col_rows(), &kernel, &col);
        for oy in 0..3 {
            for ox in 0..3 {
                let mut acc = 0.0;
                for ky in 0..2 {
                    for kx in 0..2 {
                        acc += kernel[ky * 2 + kx] * image[(oy + ky) * 4 + (ox + kx)];
                    }
                }
                assert!((out[oy * 3 + ox] - acc).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property,
        // which is exactly what backprop correctness needs.
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 4,
            k_h: 3,
            k_w: 2,
            stride: 2,
            pad: 1,
        };
        let mut rng = crate::rng::Rng::new(2);
        let x: Vec<f32> = (0..g.input_len()).map(|_| rng.normal()).collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|_| rng.normal())
            .collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&g, &x, &mut cx);
        let mut aty = vec![0.0; x.len()];
        col2im(&g, &y, &mut aty);
        let lhs = crate::ops::dot(&cx, &y);
        let rhs = crate::ops::dot(&x, &aty);
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    /// Per-element reference forms of both lowerings, exactly the loop
    /// nest the slivered fast paths replaced; the fast paths must match
    /// them bit-for-bit (same adds, same order).
    fn im2col_ref(geom: &Conv2dGeometry, image: &[f32], col: &mut [f32]) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n_cols = oh * ow;
        let mut row = 0;
        for c in 0..geom.in_channels {
            let plane = &image[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
            for ky in 0..geom.k_h {
                for kx in 0..geom.k_w {
                    let out_row = &mut col[row * n_cols..(row + 1) * n_cols];
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                        if iy < 0 || iy >= geom.in_h as isize {
                            dst.iter_mut().for_each(|x| *x = 0.0);
                            continue;
                        }
                        let src_row =
                            &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                        for (ox, d) in dst.iter_mut().enumerate() {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            *d = if ix < 0 || ix >= geom.in_w as isize {
                                0.0
                            } else {
                                src_row[ix as usize]
                            };
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    fn col2im_ref(geom: &Conv2dGeometry, col: &[f32], image: &mut [f32]) {
        image.iter_mut().for_each(|x| *x = 0.0);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let n_cols = oh * ow;
        let mut row = 0;
        for c in 0..geom.in_channels {
            let plane_off = c * geom.in_h * geom.in_w;
            for ky in 0..geom.k_h {
                for kx in 0..geom.k_w {
                    let src_row = &col[row * n_cols..(row + 1) * n_cols];
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= geom.in_h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= geom.in_w as isize {
                                continue;
                            }
                            image[plane_off + iy as usize * geom.in_w + ix as usize] +=
                                src_row[oy * ow + ox];
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    #[test]
    fn slivered_paths_match_per_element_reference_bitwise() {
        let geoms = [
            (1, 3, 3, 2, 2, 1, 0),
            (2, 5, 4, 3, 2, 2, 1),
            (3, 8, 8, 3, 3, 1, 1),
            (2, 7, 5, 3, 3, 2, 2),
            (1, 4, 4, 4, 4, 1, 3),
            (2, 6, 6, 1, 1, 1, 0),
            (1, 5, 5, 5, 5, 3, 2),
        ];
        for (idx, &(in_channels, in_h, in_w, k_h, k_w, stride, pad)) in geoms.iter().enumerate() {
            let g = Conv2dGeometry {
                in_channels,
                in_h,
                in_w,
                k_h,
                k_w,
                stride,
                pad,
            };
            assert!(g.is_valid(), "bad fixture {idx}");
            let mut rng = crate::rng::Rng::new(90 + idx as u64);
            let image: Vec<f32> = (0..g.input_len()).map(|_| rng.normal()).collect();
            let n = g.col_rows() * g.col_cols();
            // Dirty output buffers: both paths must fully overwrite.
            let mut fast = vec![7.0; n];
            let mut want = vec![-3.0; n];
            im2col(&g, &image, &mut fast);
            im2col_ref(&g, &image, &mut want);
            for (i, (a, b)) in fast.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "im2col geom {idx} elem {i}");
            }
            let grad: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
            let mut gx_fast = vec![9.0; g.input_len()];
            let mut gx_want = vec![-1.0; g.input_len()];
            col2im(&g, &grad, &mut gx_fast);
            col2im_ref(&g, &grad, &mut gx_want);
            for (i, (a, b)) in gx_fast.iter().zip(&gx_want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "col2im geom {idx} elem {i}");
            }
        }
    }

    #[test]
    fn pad_image_stores_every_element_of_a_dirty_buffer() {
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 3,
            in_w: 2,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 2,
        };
        let image: Vec<f32> = (1..=12).map(|i| i as f32).collect();
        let mut padded = vec![f32::NAN; g.padded_len()];
        pad_image(&g, &image, &mut padded);
        let (ph, pw) = (7, 6);
        for (i, v) in padded.iter().enumerate() {
            let (c, y, x) = (i / (ph * pw), i / pw % ph, i % pw);
            let inside = (2..5).contains(&y) && (2..4).contains(&x);
            let want = if inside {
                image[c * 6 + (y - 2) * 2 + (x - 2)]
            } else {
                0.0
            };
            assert_eq!(v.to_bits(), want.to_bits(), "padded[{c}][{y}][{x}]");
        }
    }

    proptest::proptest! {
        #[test]
        fn lowered_windows_hold_the_bits_of_im2col(
            dims in (1usize..6, 1usize..6, 1usize..4, 0usize..3),
            extent in (1usize..6, 0usize..12, 0usize..12),
            window in (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
            slack in 0usize..3,
        ) {
            let g = Conv2dGeometry::sampled(dims, extent);
            let mut rng = crate::rng::Rng::new((g.col_rows() * 7 + g.in_h * 3 + g.in_w) as u64);
            let image: Vec<f32> = (0..g.input_len()).map(|_| rng.normal()).collect();
            let (rows, cols) = (g.col_rows(), g.col_cols());
            let mut col = vec![0.0; rows * cols];
            im2col(&g, &image, &mut col);
            let mut padded = vec![f32::NAN; g.padded_len()];
            pad_image(&g, &image, &mut padded);
            let lowered = Lowered::new(&g, &padded);
            proptest::prop_assert_eq!((lowered.rows(), lowered.cols()), (rows, cols));

            let (row0, col0) = (window.0 % rows, window.1 % cols);
            let (nrows, ncols) = (1 + window.2 % (rows - row0), 1 + window.3 % (cols - col0));
            let ld = ncols + slack;
            let mut got = vec![f32::NAN; nrows * ld];
            // Part of the row offset is the view's own (a band's window),
            // the rest the gather's.
            let window = lowered.rows_from(row0 / 2);
            proptest::prop_assert_eq!(window.rows(), rows - row0 / 2);
            window.gather(row0 - row0 / 2, nrows, col0, ncols, &mut got, ld);
            for (p, out) in got.chunks(ld).enumerate() {
                let want = &col[(row0 + p) * cols + col0..][..ncols];
                proptest::prop_assert_eq!(
                    out[..ncols].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{:?} row {} cols {}+{}", g, row0 + p, col0, ncols
                );
                // Floats between rows are not the gather's to write.
                proptest::prop_assert!(out[ncols..].iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn multichannel_rows_are_grouped_by_channel() {
        let g = Conv2dGeometry {
            in_channels: 2,
            in_h: 2,
            in_w: 2,
            k_h: 1,
            k_w: 1,
            stride: 1,
            pad: 0,
        };
        let image = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let mut col = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&g, &image, &mut col);
        assert_eq!(&col[0..4], &[1., 2., 3., 4.]);
        assert_eq!(&col[4..8], &[10., 20., 30., 40.]);
    }
}
