//! Spatial pooling layers.

use crate::layer::{batch_of, Layer};
use easgd_tensor::{Panels, ParamArena, Tensor, TrainScratch};

/// Shared spatial bookkeeping for pooling windows.
#[derive(Clone, Copy, Debug)]
struct PoolGeom {
    channels: usize,
    in_h: usize,
    in_w: usize,
    size: usize,
    stride: usize,
}

impl PoolGeom {
    fn out_h(&self) -> usize {
        (self.in_h - self.size) / self.stride + 1
    }
    fn out_w(&self) -> usize {
        (self.in_w - self.size) / self.stride + 1
    }
    fn in_plane(&self) -> usize {
        self.in_h * self.in_w
    }
    fn out_plane(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Max pooling over square windows.
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    name: String,
    geom: PoolGeom,
    /// For each output element of the last batch: the flat input index of
    /// its maximum (the routing for backward).
    argmax: Vec<usize>,
    /// Set by [`Layer::freeze`]: forward only, no argmax kept.
    frozen: bool,
}

impl MaxPool2d {
    /// Max pooling on `[channels, in_h, in_w]` maps with the given window
    /// `size` and `stride`.
    ///
    /// # Panics
    /// Panics if the window doesn't fit the input.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        in_h: usize,
        in_w: usize,
        size: usize,
        stride: usize,
    ) -> Self {
        assert!(size > 0 && stride > 0, "pool size/stride must be > 0");
        assert!(in_h >= size && in_w >= size, "pool window exceeds input");
        Self {
            name: name.into(),
            geom: PoolGeom {
                channels,
                in_h,
                in_w,
                size,
                stride,
            },
            argmax: Vec::new(),
            frozen: false,
        }
    }
}

/// The maximum of every window of `g` over the planes of `x`, into `y`,
/// and — given a sink — its flat index in `x`. Candidates come in
/// row-major window order and a later one wins only when strictly
/// greater: the first maximum, and a NaN neither displaces a number nor
/// is displaced when it came first.
fn max_windows(g: &PoolGeom, x: &[f32], y: &mut [f32], mut argmax: Option<&mut [usize]>) {
    let (oh, ow, k, s) = (g.out_h(), g.out_w(), g.size, g.stride);
    for (row, yrow) in y.chunks_exact_mut(ow).enumerate() {
        let x0 = row / oh * g.in_plane() + row % oh * s * g.in_w;
        let mut arow = argmax.as_deref_mut().map(|a| &mut a[row * ow..][..ow]);
        // The 2×2/2 windows of every model but AlexNet's tile a row in
        // exact pairs: a window row at a time, the outputs in vector
        // lanes, one select per candidate and no branch.
        if (k, s) == (2, 2) {
            for ky in 0..2 {
                let at = x0 + ky * g.in_w;
                let pairs = x[at..][..2 * ow].chunks_exact(2).enumerate();
                let Some(arow) = arow.as_deref_mut() else {
                    for (best, (_, pair)) in yrow.iter_mut().zip(pairs) {
                        let mut b = *best;
                        for (kx, &v) in pair.iter().enumerate() {
                            b = if (ky == 0 && kx == 0) || v > b { v } else { b };
                        }
                        *best = b;
                    }
                    continue;
                };
                for ((best, arg), (ox, pair)) in yrow.iter_mut().zip(arow).zip(pairs) {
                    let (mut b, mut a) = (*best, *arg);
                    for (kx, &v) in pair.iter().enumerate() {
                        let wins = (ky == 0 && kx == 0) || v > b;
                        b = if wins { v } else { b };
                        a = if wins { at + 2 * ox + kx } else { a };
                    }
                    (*best, *arg) = (b, a);
                }
            }
            continue;
        }
        // Any other window, one output at a time: there a select chain is
        // latency-bound, and a predicted branch is not.
        for (ox, best) in yrow.iter_mut().enumerate() {
            let (mut b, mut a) = (x[x0 + ox * s], x0 + ox * s);
            for ky in 0..k {
                for kx in 0..k {
                    let i = x0 + ky * g.in_w + ox * s + kx;
                    if x[i] > b {
                        (b, a) = (x[i], i);
                    }
                }
            }
            *best = b;
            if let Some(arow) = arow.as_deref_mut() {
                arow[ox] = a;
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.geom.channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        _params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = self.geom;
        let b = batch_of(input);
        let in_len = g.channels * g.in_plane();
        assert_eq!(input.len(), b * in_len, "maxpool input shape mismatch");
        let (oh, ow) = (g.out_h(), g.out_w());
        let out_len = g.channels * g.out_plane();
        scratch.shape_tensor(out, &[b, g.channels, oh, ow]);
        let argmax = (!self.frozen).then(|| {
            scratch.ensure_usize(&mut self.argmax, b * out_len);
            &mut self.argmax[..]
        });
        max_windows(&g, input.as_slice(), out.as_mut_slice(), argmax);
    }

    fn backward_into(
        &mut self,
        _params: &ParamArena,
        _grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = &self.geom;
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "backward called with mismatched batch"
        );
        let b = grad_out.len() / (g.channels * g.out_plane());
        // The scatter below accumulates, so the buffer must start zeroed.
        scratch.shape_tensor_zeroed(grad_in, &[b, g.channels, g.in_h, g.in_w]);
        let gx = grad_in.as_mut_slice();
        for (o, &src) in self.argmax.iter().enumerate() {
            gx[src] += grad_out.as_slice()[o];
        }
    }

    fn freeze(&mut self) -> Vec<Option<Panels>> {
        (self.frozen, self.argmax) = (true, Vec::new());
        Vec::new()
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        let mut c = self.clone();
        c.argmax = Vec::new();
        Box::new(c)
    }
}

/// Average pooling over square windows.
#[derive(Clone, Debug)]
pub struct AvgPool2d {
    name: String,
    geom: PoolGeom,
    last_batch: usize,
}

impl AvgPool2d {
    /// Average pooling on `[channels, in_h, in_w]` maps.
    ///
    /// # Panics
    /// Panics if the window doesn't fit the input.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        in_h: usize,
        in_w: usize,
        size: usize,
        stride: usize,
    ) -> Self {
        assert!(size > 0 && stride > 0, "pool size/stride must be > 0");
        assert!(in_h >= size && in_w >= size, "pool window exceeds input");
        Self {
            name: name.into(),
            geom: PoolGeom {
                channels,
                in_h,
                in_w,
                size,
                stride,
            },
            last_batch: 0,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.geom.channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        _params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = self.geom;
        let b = batch_of(input);
        let in_len = g.channels * g.in_plane();
        assert_eq!(input.len(), b * in_len, "avgpool input shape mismatch");
        self.last_batch = b;
        let (oh, ow) = (g.out_h(), g.out_w());
        let norm = 1.0 / (g.size * g.size) as f32;
        scratch.shape_tensor(out, &[b, g.channels, oh, ow]);
        let x = input.as_slice();
        let y = out.as_mut_slice();
        let out_len = g.channels * g.out_plane();
        for s in 0..b {
            for c in 0..g.channels {
                let plane_off = s * in_len + c * g.in_plane();
                let out_off = s * out_len + c * g.out_plane();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..g.size {
                            for kx in 0..g.size {
                                acc += x[plane_off
                                    + (oy * g.stride + ky) * g.in_w
                                    + (ox * g.stride + kx)];
                            }
                        }
                        y[out_off + oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
    }

    fn backward_into(
        &mut self,
        _params: &ParamArena,
        _grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = &self.geom;
        let b = self.last_batch;
        assert_eq!(
            grad_out.len(),
            b * g.channels * g.out_plane(),
            "backward called with mismatched batch"
        );
        let (oh, ow) = (g.out_h(), g.out_w());
        let norm = 1.0 / (g.size * g.size) as f32;
        // Overlapping windows accumulate, so the buffer must start zeroed.
        scratch.shape_tensor_zeroed(grad_in, &[b, g.channels, g.in_h, g.in_w]);
        let gx = grad_in.as_mut_slice();
        let gy = grad_out.as_slice();
        let in_len = g.channels * g.in_plane();
        let out_len = g.channels * g.out_plane();
        for s in 0..b {
            for c in 0..g.channels {
                let plane_off = s * in_len + c * g.in_plane();
                let out_off = s * out_len + c * g.out_plane();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = gy[out_off + oy * ow + ox] * norm;
                        for ky in 0..g.size {
                            for kx in 0..g.size {
                                gx[plane_off
                                    + (oy * g.stride + ky) * g.in_w
                                    + (ox * g.stride + kx)] += gv;
                            }
                        }
                    }
                }
            }
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut l = MaxPool2d::new("p", 1, 4, 4, 2, 2);
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(y.as_slice(), &[5., 7., 13., 15.]);
    }

    #[test]
    fn maxpool_keeps_the_first_maximum_and_its_nan_rule_frozen_or_not() {
        // Inputs drawn from five values, so windows hold ties, signed
        // zeros and NaNs both first and later; the branchy scan the
        // layer used to run is the reference.
        let pick = [f32::NAN, -0.0, 0.0, 1.0, 1.0];
        for (size, stride) in [(2, 2), (3, 2), (2, 1), (1, 3)] {
            let (b, c, h, w) = (2, 3, 7, 8);
            let mut rng = easgd_tensor::Rng::new((size * 10 + stride) as u64);
            let xs: Vec<f32> = (0..b * c * h * w).map(|_| pick[rng.below(5)]).collect();
            let x = Tensor::from_vec([b, c, h, w], xs.clone());
            let mut l = MaxPool2d::new("p", c, h, w, size, stride);
            let y = l.forward(&ParamArena::flat(0), &x, true);
            let (oh, ow) = (l.geom.out_h(), l.geom.out_w());
            let (mut want_y, mut want_arg) = (Vec::new(), Vec::new());
            for (plane, oy, ox) in (0..b * c)
                .flat_map(|p| (0..oh).flat_map(move |oy| (0..ow).map(move |ox| (p, oy, ox))))
            {
                let mut at = plane * h * w + oy * stride * w + ox * stride;
                for ky in 0..size {
                    for kx in 0..size {
                        let i = plane * h * w + (oy * stride + ky) * w + ox * stride + kx;
                        if xs[i] > xs[at] {
                            at = i;
                        }
                    }
                }
                want_y.push(xs[at].to_bits());
                want_arg.push(at);
            }
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let at = format!("{size}x{size}/{stride}");
            assert_eq!(bits(&y), want_y, "{at}");
            assert_eq!(l.argmax, want_arg, "{at}");
            let _ = l.freeze();
            assert_eq!(
                bits(&l.forward(&ParamArena::flat(0), &x, false)),
                want_y,
                "frozen {at}"
            );
            assert!(l.argmax.is_empty(), "a frozen pool keeps no argmax");
        }
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool2d::new("p", 1, 2, 2, 2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let _ = l.forward(&ParamArena::flat(0), &x, true);
        let gy = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let mut g = ParamArena::flat(0);
        let gx = l.backward(&ParamArena::flat(0), &mut g, &gy);
        assert_eq!(gx.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut l = MaxPool2d::new("p", 2, 6, 6, 2, 2);
        let (params, grads) = build_arenas(&mut l, 1);
        // Max pooling is piecewise linear; random normal inputs avoid ties.
        check_layer(&mut l, params, grads, &[2, 6, 6], 2, 1e-2, 3);
    }

    #[test]
    fn avgpool_averages() {
        let mut l = AvgPool2d::new("p", 1, 2, 2, 2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 6.]);
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut l = AvgPool2d::new("p", 3, 4, 4, 2, 2);
        let (params, grads) = build_arenas(&mut l, 2);
        check_layer(&mut l, params, grads, &[3, 4, 4], 2, 1e-2, 4);
    }

    #[test]
    fn overlapping_stride_supported() {
        // AlexNet uses overlapping 3x3/stride-2 pooling.
        let mut l = MaxPool2d::new("p", 1, 5, 5, 3, 2);
        let x = Tensor::from_vec([1, 1, 5, 5], (0..25).map(|i| i as f32).collect());
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(l.out_shape(), vec![1, 2, 2]);
        assert_eq!(y.as_slice(), &[12., 14., 22., 24.]);
    }

    #[test]
    #[should_panic(expected = "window exceeds input")]
    fn rejects_oversized_window() {
        let _ = MaxPool2d::new("p", 1, 2, 2, 3, 1);
    }
}
