//! Finite-difference gradient verification.
//!
//! Every layer's backward pass is certified against central finite
//! differences of its forward pass. The check probes a random linear
//! functional `L(y) = Σᵢ cᵢ·yᵢ` of the layer output, whose analytic
//! gradient is exactly what `backward` computes when fed `c` as the
//! upstream gradient.
//!
//! This lives in the library (not just the test tree) so integration
//! tests and downstream users can certify custom layers too.

use crate::layer::Layer;
use easgd_tensor::{ParamArena, Rng, Tensor};

/// Result of probing one coordinate.
#[derive(Debug, Clone, Copy)]
struct Probe {
    analytic: f64,
    numeric: f64,
}

impl Probe {
    fn agrees(&self, tol: f64) -> bool {
        let scale = self.analytic.abs().max(self.numeric.abs()).max(1.0);
        (self.analytic - self.numeric).abs() <= tol * scale
    }
}

fn loss(c: &[f32], y: &Tensor) -> f64 {
    assert_eq!(c.len(), y.len(), "probe functional length mismatch");
    c.iter()
        .zip(y.as_slice())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum()
}

/// Verifies `layer.backward` against finite differences.
///
/// * `in_shape` — per-sample input shape (batch is prepended).
/// * `batch` — batch size to probe with.
/// * `tol` — relative tolerance (1e-2 is appropriate for `f32` kernels).
/// * `seed` — RNG seed; the check is deterministic.
///
/// The layer must be deterministic across repeated forwards, as every
/// layer of this crate is: none reads the `train` flag of its forward.
///
/// # Panics
/// Panics with a diagnostic if any probed coordinate disagrees.
pub fn check_layer(
    layer: &mut dyn Layer,
    mut params: ParamArena,
    mut grads: ParamArena,
    in_shape: &[usize],
    batch: usize,
    tol: f64,
    seed: u64,
) {
    let mut rng = Rng::new(seed);
    let mut full_shape = vec![batch];
    full_shape.extend_from_slice(in_shape);
    let in_len: usize = full_shape.iter().product();

    let mut x = Tensor::zeros(full_shape.clone());
    rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);

    // Forward once to learn the output size, then draw the probe functional.
    let y0 = layer.forward(&params, &x, false);
    let mut c = vec![0.0f32; y0.len()];
    rng.fill_normal(&mut c, 0.0, 1.0);

    // Analytic gradients.
    grads.zero();
    let grad_out = Tensor::from_vec(y0.shape().clone(), c.clone());
    let grad_in = layer.backward(&params, &mut grads, &grad_out);
    assert_eq!(
        grad_in.shape().dims(),
        &full_shape[..],
        "grad_in shape must match input shape"
    );

    let eps = 1e-3f32;
    let n_probes = 24;

    // Probe parameter coordinates.
    if !params.is_empty() {
        for _ in 0..n_probes {
            let idx = rng.below(params.len());
            let orig = params.as_slice()[idx];
            params.as_mut_slice()[idx] = orig + eps;
            let lp = loss(&c, &layer.forward(&params, &x, false));
            params.as_mut_slice()[idx] = orig - eps;
            let lm = loss(&c, &layer.forward(&params, &x, false));
            params.as_mut_slice()[idx] = orig;
            let probe = Probe {
                analytic: grads.as_slice()[idx] as f64,
                numeric: (lp - lm) / (2.0 * eps as f64),
            };
            assert!(
                probe.agrees(tol),
                "layer '{}' param[{idx}]: analytic {:.6} vs numeric {:.6}",
                layer.name(),
                probe.analytic,
                probe.numeric
            );
        }
        // Restore the forward cache to the unperturbed input.
        let _ = layer.forward(&params, &x, false);
    }

    // Probe input coordinates.
    for _ in 0..n_probes {
        let idx = rng.below(in_len);
        let orig = x.as_slice()[idx];
        x.as_mut_slice()[idx] = orig + eps;
        let lp = loss(&c, &layer.forward(&params, &x, false));
        x.as_mut_slice()[idx] = orig - eps;
        let lm = loss(&c, &layer.forward(&params, &x, false));
        x.as_mut_slice()[idx] = orig;
        let probe = Probe {
            analytic: grad_in.as_slice()[idx] as f64,
            numeric: (lp - lm) / (2.0 * eps as f64),
        };
        assert!(
            probe.agrees(tol),
            "layer '{}' input[{idx}]: analytic {:.6} vs numeric {:.6}",
            layer.name(),
            probe.analytic,
            probe.numeric
        );
    }
}

/// Builds a layer's arenas (params + zeroed grads), initializing
/// parameters with the layer's declared schemes — the standard harness
/// for layer-level tests.
pub fn build_arenas(layer: &mut dyn Layer, seed: u64) -> (ParamArena, ParamArena) {
    let mut rng = Rng::new(seed);
    let specs = layer.param_specs();
    let mut b = ParamArena::builder();
    let mut segs = Vec::new();
    for spec in &specs {
        segs.push(b.push(spec.name.clone(), spec.len));
    }
    let mut params = b.build();
    for (i, spec) in specs.iter().enumerate() {
        spec.init.fill(params.segment_mut(segs[i]), &mut rng);
    }
    layer.bind(&segs);
    let grads = ParamArena::like(&params);
    (params, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use easgd_tensor::TrainScratch;

    #[test]
    fn build_arenas_allocates_declared_segments() {
        let mut l = Dense::new("fc", 3, 2);
        let (params, grads) = build_arenas(&mut l, 1);
        assert_eq!(params.segments().len(), 2);
        assert_eq!(params.len(), 3 * 2 + 2);
        assert_eq!(grads.len(), params.len());
        // Weights initialized, biases zero.
        assert!(params.segment(0).iter().any(|&x| x != 0.0));
        assert!(params.segment(1).iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "analytic")]
    fn check_layer_catches_wrong_gradient() {
        /// A deliberately broken layer: forward is x², backward claims 1.
        #[derive(Clone)]
        struct Broken;
        impl Layer for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn out_shape(&self) -> Vec<usize> {
                vec![4]
            }
            fn forward_into(
                &mut self,
                _p: &ParamArena,
                input: &Tensor,
                _t: bool,
                out: &mut Tensor,
                _s: &mut TrainScratch,
            ) {
                let data = input.as_slice().iter().map(|x| x * x).collect();
                *out = Tensor::from_vec(input.shape().clone(), data);
            }
            fn backward_into(
                &mut self,
                _p: &ParamArena,
                _g: &mut ParamArena,
                grad_out: &Tensor,
                grad_in: &mut Tensor,
                _s: &mut TrainScratch,
            ) {
                *grad_in = grad_out.clone();
            }
            fn boxed_clone(&self) -> Box<dyn Layer> {
                Box::new(self.clone())
            }
        }
        let mut l = Broken;
        let (params, grads) = build_arenas(&mut l, 2);
        check_layer(&mut l, params, grads, &[4], 2, 1e-2, 7);
    }
}
