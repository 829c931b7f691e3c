//! The element-wise non-linearity of the paper's networks: ReLU (§2.2
//! also lists tanh and the sigmoid, which none of them runs).

use crate::layer::Layer;
use easgd_tensor::{ParamArena, Tensor, TrainScratch};

/// Rectified linear unit `max(0, x)`.
#[derive(Clone, Debug)]
pub struct Relu {
    name: String,
    shape: Vec<usize>,
    /// Mask of active units from the last forward (1.0 where x > 0).
    mask: Vec<f32>,
}

impl Relu {
    /// ReLU over per-sample shape `shape`.
    pub fn new(name: impl Into<String>, shape: Vec<usize>) -> Self {
        Self {
            name: name.into(),
            shape,
            mask: Vec::new(),
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn out_shape(&self) -> Vec<usize> {
        self.shape.clone()
    }

    fn forward_into(
        &mut self,
        _params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        scratch.ensure_f32(&mut self.mask, input.len());
        scratch.shape_tensor(out, input.shape().dims());
        out.as_mut_slice().copy_from_slice(input.as_slice());
        for (v, m) in out.as_mut_slice().iter_mut().zip(self.mask.iter_mut()) {
            if *v > 0.0 {
                *m = 1.0;
            } else {
                *m = 0.0;
                *v = 0.0;
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
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward");
        scratch.shape_tensor(grad_in, grad_out.shape().dims());
        grad_in.as_mut_slice().copy_from_slice(grad_out.as_slice());
        for (gi, &m) in grad_in.as_mut_slice().iter_mut().zip(&self.mask) {
            *gi *= m;
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        let mut c = self.clone();
        c.mask = Vec::new();
        Box::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    #[test]
    fn relu_clamps_negatives() {
        let mut l = Relu::new("r", vec![4]);
        let x = Tensor::from_vec([1, 4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = Relu::new("r", vec![3]);
        let x = Tensor::from_vec([1, 3], vec![-1.0, 1.0, 2.0]);
        let _ = l.forward(&ParamArena::flat(0), &x, true);
        let gy = Tensor::from_vec([1, 3], vec![10.0, 10.0, 10.0]);
        let mut g = ParamArena::flat(0);
        let gx = l.backward(&ParamArena::flat(0), &mut g, &gy);
        assert_eq!(gx.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn relu_gradcheck() {
        let mut l = Relu::new("r", vec![8]);
        let (params, grads) = build_arenas(&mut l, 1);
        check_layer(&mut l, params, grads, &[8], 2, 1e-2, 7);
    }
}
