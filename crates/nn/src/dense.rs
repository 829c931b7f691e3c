//! Fully-connected layer.

use crate::layer::{batch_of, Init, Layer, ParamSpec};
use easgd_tensor::{gemm, gemm_packs, gemm_rowstable, gemm_view, Operand, Panels};
use easgd_tensor::{ParamArena, Tensor, TrainScratch, Transpose};

/// Fully-connected (inner-product) layer: `Y = X·Wᵀ + b`.
///
/// `W` is stored `[out_features, in_features]` row-major (Caffe
/// convention), `b` is `[out_features]`.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Layer name used for parameter segments.
    pub name: String,
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    w_seg: usize,
    b_seg: usize,
    input_cache: Option<Tensor>,
    /// Set by [`Layer::freeze`]: forward only, nothing cached.
    frozen: bool,
    /// Once frozen with a row product that packs: the weight's layout in
    /// the arena, the B panels of `Wᵀ`.
    w_panels: Option<Panels>,
}

impl Dense {
    /// A dense layer mapping `in_features → out_features`.
    pub fn new(name: impl Into<String>, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dims must be > 0"
        );
        Self {
            name: name.into(),
            in_features,
            out_features,
            w_seg: usize::MAX,
            b_seg: usize::MAX,
            input_cache: None,
            frozen: false,
            w_panels: None,
        }
    }

    /// Number of parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec {
                name: format!("{}.weight", self.name),
                len: self.in_features * self.out_features,
                init: Init::Xavier {
                    fan_in: self.in_features,
                    fan_out: self.out_features,
                },
            },
            ParamSpec {
                name: format!("{}.bias", self.name),
                len: self.out_features,
                init: Init::Constant(0.0),
            },
        ]
    }

    fn bind(&mut self, segments: &[usize]) {
        assert_eq!(segments.len(), 2, "dense expects weight+bias segments");
        self.w_seg = segments[0];
        self.b_seg = segments[1];
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.out_features]
    }

    fn forward_into(
        &mut self,
        params: &ParamArena,
        input: &Tensor,
        train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let b = batch_of(input);
        assert_eq!(
            input.len(),
            b * self.in_features,
            "dense '{}' expected {} features/sample, input is {:?}",
            self.name,
            self.in_features,
            input.shape()
        );
        let w = params.segment(self.w_seg);
        let bias = params.segment(self.b_seg);
        scratch.shape_tensor(out, &[b, self.out_features]);
        // Y[B,out] = X[B,in] · Wᵀ  (W stored [out,in]; β = 0 never reads
        // the reused buffer, so no zeroing is needed). Eval mode picks
        // the kernel per row (`gemm_rowstable`) so a sample's logits are
        // bit-identical at any serving batch size; training keeps the
        // total-flops dispatch that the golden traces pin. Packed weights
        // exist only where a row takes the packs, so there every
        // dispatch is the same one.
        let (no, yes, panels) = (Transpose::No, Transpose::Yes, self.w_panels);
        let (n, k) = (self.out_features, self.in_features);
        let (x, y) = (input.as_slice(), out.as_mut_slice());
        let w = panels.map_or(Operand::Stored(w), |p| Operand::Packed(p, w));
        match (train, w) {
            (false, Operand::Stored(w)) => gemm_rowstable(no, yes, b, n, k, 1.0, x, w, 0.0, y),
            (_, w) => gemm_view(no, yes, b, n, k, 1.0, Operand::Stored(x), w, 0.0, y),
        }
        for row in y.chunks_mut(n) {
            easgd_tensor::ops::fold_sum(row, &[bias]);
        }
        if !self.frozen {
            let cache = self.input_cache.get_or_insert_with(Tensor::default);
            scratch.shape_tensor(cache, input.shape().dims());
            cache.as_mut_slice().copy_from_slice(x);
        }
    }

    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.backward_params_into(params, grads, grad_out, grad_in, scratch);
        let input = self.input_cache.as_ref().expect("checked above");
        // gradX[B,in] = gradY[B,out] · W[out,in]
        let w = params.segment(self.w_seg);
        scratch.shape_tensor(grad_in, input.shape().dims());
        gemm(
            Transpose::No,
            Transpose::No,
            batch_of(input),
            self.in_features,
            self.out_features,
            1.0,
            grad_out.as_slice(),
            w,
            0.0,
            grad_in.as_mut_slice(),
        );
    }

    /// `gradW` and `gradB` only: as a network's first parametrised layer
    /// the `gy·W` product — a second pass over the whole weight matrix —
    /// would feed nothing.
    fn backward_params_into(
        &mut self,
        _params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        _grad_in: &mut Tensor,
        _scratch: &mut TrainScratch,
    ) {
        let input = self
            .input_cache
            .as_ref()
            .expect("backward called before forward");
        let b = batch_of(input);
        assert_eq!(
            grad_out.len(),
            b * self.out_features,
            "grad_out shape mismatch"
        );

        // gradW[out,in] += Σ_b gradY[b,out]·X[b,in] = gradYᵀ · X
        gemm(
            Transpose::Yes,
            Transpose::No,
            self.out_features,
            self.in_features,
            b,
            1.0,
            grad_out.as_slice(),
            input.as_slice(),
            1.0,
            grads.segment_mut(self.w_seg),
        );
        // gradB[j] += Σ_b gradY[b,j]
        let gb = grads.segment_mut(self.b_seg);
        for row in grad_out.as_slice().chunks(self.out_features) {
            easgd_tensor::ops::fold_sum(gb, &[row]);
        }
    }

    /// The weight is the forward GEMM's B, transposed: packed once when
    /// one row's product takes the packs (`gemm_rowstable`'s rule).
    fn freeze(&mut self) -> Vec<Option<Panels>> {
        let (n, k) = (self.out_features, self.in_features);
        self.w_panels = gemm_packs(1, n, k).then(|| Panels::b(Transpose::Yes, k, n));
        (self.frozen, self.input_cache) = (true, None);
        vec![self.w_panels, None]
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        // The cached input is transient; a replica warms its own.
        Box::new(Self {
            name: self.name.clone(),
            input_cache: None,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_tensor::Rng;

    fn build(layer: &mut Dense, rng: &mut Rng) -> (ParamArena, ParamArena) {
        let mut b = ParamArena::builder();
        let mut segs = Vec::new();
        for spec in layer.param_specs() {
            segs.push(b.push(spec.name.clone(), spec.len));
        }
        let mut params = b.build();
        for (i, spec) in layer.param_specs().iter().enumerate() {
            spec.init.fill(params.segment_mut(segs[i]), rng);
        }
        layer.bind(&segs);
        let grads = ParamArena::like(&params);
        (params, grads)
    }

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::new(1);
        let mut l = Dense::new("fc", 3, 2);
        let (mut params, _) = build(&mut l, &mut rng);
        // W = [[1,0,0],[0,1,0]], b = [0.5, -0.5]
        params
            .segment_mut(0)
            .copy_from_slice(&[1., 0., 0., 0., 1., 0.]);
        params.segment_mut(1).copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec([1, 3], vec![2.0, 3.0, 4.0]);
        let y = l.forward(&params, &x, true);
        assert_eq!(y.as_slice(), &[2.5, 2.5]);
    }

    #[test]
    fn backward_grad_shapes_and_bias() {
        let mut rng = Rng::new(2);
        let mut l = Dense::new("fc", 4, 3);
        let (params, mut grads) = build(&mut l, &mut rng);
        let x = Tensor::from_vec([2, 4], (0..8).map(|i| i as f32).collect());
        let _ = l.forward(&params, &x, true);
        let gy = Tensor::from_vec([2, 3], vec![1.0; 6]);
        let gx = l.backward(&params, &mut grads, &gy);
        assert_eq!(gx.shape().dims(), &[2, 4]);
        // Bias gradient = column sums of gradY = 2 each.
        assert_eq!(grads.segment(1), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = Rng::new(3);
        let mut l = Dense::new("fc", 5, 4);
        let (params, grads) = build(&mut l, &mut rng);
        crate::gradcheck::check_layer(&mut l, params, grads, &[5], 3, 1e-2, 42);
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        assert_eq!(Dense::new("fc", 10, 7).num_params(), 77);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn forward_rejects_wrong_width() {
        let mut rng = Rng::new(4);
        let mut l = Dense::new("fc", 3, 2);
        let (params, _) = build(&mut l, &mut rng);
        let x = Tensor::from_vec([1, 4], vec![0.0; 4]);
        let _ = l.forward(&params, &x, true);
    }
}
