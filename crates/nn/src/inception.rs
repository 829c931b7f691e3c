//! Inception modules: the branching building block of GoogLeNet (§4.2).
//!
//! The paper's large-scale runs train GoogLeNet; its defining structure
//! is the inception module — four parallel branches (1×1, 1×1→3×3,
//! 1×1→5×5, pool→1×1 projection) whose outputs are concatenated along
//! the channel axis. [`Inception`] is a composite [`Layer`]: it owns the
//! branch sub-layers, forwards the same input through each, and
//! concatenates; backward splits the upstream gradient per branch and
//! sums the branch input-gradients.

use crate::conv::Conv2d;
use crate::layer::{batch_of, forward_chain, Layer, ParamSpec};
use easgd_tensor::{Conv2dGeometry, ParamArena, Tensor, TrainScratch};

/// One parallel branch: a sequential stack of sub-layers.
struct Branch {
    layers: Vec<Box<dyn Layer>>,
    /// Output channels of the branch (spatial dims match the module's).
    out_channels: usize,
    /// Ping/pong activation slots for the sequential chain. A pass leaves
    /// its result in `pong`, and `balance_slots` gives each slot the same
    /// part on every call.
    ping: Tensor,
    pong: Tensor,
}

impl Branch {
    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        scratch: &mut TrainScratch,
    ) {
        // Traded first, the slots end where they began, result in `pong`.
        balance_slots(self.layers.len(), &mut self.ping, &mut self.pong);
        let mut first = true;
        for l in self.layers.iter_mut().rev() {
            if first {
                l.backward_into(params, grads, grad_out, &mut self.pong, scratch);
                first = false;
            } else {
                std::mem::swap(&mut self.ping, &mut self.pong);
                l.backward_into(params, grads, &self.ping, &mut self.pong, scratch);
            }
        }
    }
}

/// Trades `ping` and `pong` when a chain over `layers` layers (forward or
/// backward) trades them an odd number of times. Done once before or
/// after such a chain, it leaves each slot where the chain found it, so
/// each slot holds the same activations on every call and one call at
/// the largest batch sizes both for good.
fn balance_slots(layers: usize, ping: &mut Tensor, pong: &mut Tensor) {
    if layers.saturating_sub(1) % 2 == 1 {
        std::mem::swap(ping, pong);
    }
}

/// Channel counts of one inception module (GoogLeNet table notation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct InceptionConfig {
    /// 1×1 branch output channels.
    pub c1: usize,
    /// 3×3 branch: 1×1 reduction channels.
    pub c3_reduce: usize,
    /// 3×3 branch output channels.
    pub c3: usize,
    /// 5×5 branch: 1×1 reduction channels.
    pub c5_reduce: usize,
    /// 5×5 branch output channels.
    pub c5: usize,
    /// Pool-projection branch output channels.
    pub pool_proj: usize,
}

impl InceptionConfig {
    /// Total output channels after concatenation.
    pub fn out_channels(&self) -> usize {
        self.c1 + self.c3 + self.c5 + self.pool_proj
    }
}

/// A GoogLeNet inception module over `[in_channels, h, w]` maps.
///
/// Branch ReLUs are omitted (append a `relu()` after the module, as the
/// builder does) — gradients remain exact either way.
pub struct Inception {
    name: String,
    in_channels: usize,
    h: usize,
    w: usize,
    config: InceptionConfig,
    branches: Vec<Branch>,
    /// Per-branch slice of the upstream gradient, reused across branches
    /// and steps.
    gslice: Tensor,
    last_batch: usize,
}

impl Inception {
    /// Builds the four standard branches.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        h: usize,
        w: usize,
        config: InceptionConfig,
    ) -> Self {
        let name = name.into();
        let conv =
            |suffix: &str, in_c: usize, out_c: usize, k: usize, pad: usize| -> Box<dyn Layer> {
                Box::new(Conv2d::new(
                    format!("{name}.{suffix}"),
                    Conv2dGeometry {
                        in_channels: in_c,
                        in_h: h,
                        in_w: w,
                        k_h: k,
                        k_w: k,
                        stride: 1,
                        pad,
                    },
                    out_c,
                ))
            };
        let branch = |layers: Vec<Box<dyn Layer>>, out_channels: usize| Branch {
            layers,
            out_channels,
            ping: Tensor::default(),
            pong: Tensor::default(),
        };
        let branches = vec![
            branch(vec![conv("1x1", in_channels, config.c1, 1, 0)], config.c1),
            branch(
                vec![
                    conv("3x3r", in_channels, config.c3_reduce, 1, 0),
                    conv("3x3", config.c3_reduce, config.c3, 3, 1),
                ],
                config.c3,
            ),
            branch(
                vec![
                    conv("5x5r", in_channels, config.c5_reduce, 1, 0),
                    conv("5x5", config.c5_reduce, config.c5, 5, 2),
                ],
                config.c5,
            ),
            // GoogLeNet's fourth branch is a same-size 3×3 max pool
            // followed by a 1×1 projection. Our pooling layer has no
            // padding, so the pool stage is folded away and only the
            // projection is kept — same parameter count and channel
            // arithmetic, slightly different features; the cost specs
            // (`spec::spec_googlenet`) are unaffected.
            branch(
                vec![conv("proj", in_channels, config.pool_proj, 1, 0)],
                config.pool_proj,
            ),
        ];
        Self {
            name,
            in_channels,
            h,
            w,
            config,
            branches,
            gslice: Tensor::default(),
            last_batch: 0,
        }
    }

    /// The module's channel configuration.
    pub fn config(&self) -> &InceptionConfig {
        &self.config
    }

    fn plane(&self) -> usize {
        self.h * self.w
    }
}

impl Layer for Inception {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        self.branches
            .iter()
            .flat_map(|b| b.layers.iter().flat_map(|l| l.param_specs()))
            .collect()
    }

    fn bind(&mut self, segments: &[usize]) {
        let mut off = 0;
        for b in &mut self.branches {
            for l in &mut b.layers {
                let n = l.param_specs().len();
                l.bind(&segments[off..off + n]);
                off += n;
            }
        }
        assert_eq!(
            off,
            segments.len(),
            "segment count mismatch in inception bind"
        );
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.config.out_channels(), self.h, self.w]
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
        assert_eq!(
            input.len(),
            b * self.in_channels * self.plane(),
            "inception '{}' input shape mismatch",
            self.name
        );
        self.last_batch = b;
        // Concatenate along channels: per sample, branch planes in order.
        // The branch slices tile the channel axis exactly, so every output
        // element is written and the reused buffer needs no zeroing.
        let out_c = self.config.out_channels();
        let plane = self.plane();
        scratch.shape_tensor(out, &[b, out_c, self.h, self.w]);
        let mut c_off = 0;
        for br in &mut self.branches {
            forward_chain(
                &mut br.layers,
                params,
                input,
                &mut br.ping,
                &mut br.pong,
                scratch,
            );
            let bc = br.out_channels;
            let t = br.pong.as_slice();
            let dst = out.as_mut_slice();
            for s in 0..b {
                let src = &t[s * bc * plane..(s + 1) * bc * plane];
                let d = &mut dst[s * out_c * plane + c_off * plane..][..bc * plane];
                d.copy_from_slice(src);
            }
            balance_slots(br.layers.len(), &mut br.ping, &mut br.pong);
            c_off += bc;
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
        let b = self.last_batch;
        let out_c = self.config.out_channels();
        let plane = self.plane();
        assert_eq!(grad_out.len(), b * out_c * plane, "backward before forward");
        // Split grad per branch, run branch backward, sum input grads.
        // The accumulation must start from zeros (not a copy of the first
        // branch): `0.0 + (-0.0)` is `+0.0`, so copy-first would not be
        // bit-identical when a branch gradient contains negative zeros.
        scratch.shape_tensor_zeroed(grad_in, &[b, self.in_channels, self.h, self.w]);
        let mut c_off = 0;
        for br in &mut self.branches {
            let bc = br.out_channels;
            scratch.shape_tensor(&mut self.gslice, &[b, bc, self.h, self.w]);
            for s in 0..b {
                let src = &grad_out.as_slice()[s * out_c * plane + c_off * plane..][..bc * plane];
                self.gslice.as_mut_slice()[s * bc * plane..(s + 1) * bc * plane]
                    .copy_from_slice(src);
            }
            br.backward_into(params, grads, &self.gslice, scratch);
            easgd_tensor::ops::fold_sum(grad_in.as_mut_slice(), &[br.pong.as_slice()]);
            c_off += bc;
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        let mut clone = Inception::new(
            self.name.clone(),
            self.in_channels,
            self.h,
            self.w,
            self.config,
        );
        // Rebuild preserves structure; bindings are re-applied by the
        // cloning Network via... no — clones must carry bindings. Copy the
        // sub-layer boxes directly instead.
        clone.branches = self
            .branches
            .iter()
            .map(|b| Branch {
                layers: b.layers.iter().map(|l| l.boxed_clone()).collect(),
                out_channels: b.out_channels,
                ping: Tensor::default(),
                pong: Tensor::default(),
            })
            .collect();
        Box::new(clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    fn small_config() -> InceptionConfig {
        InceptionConfig {
            c1: 2,
            c3_reduce: 2,
            c3: 3,
            c5_reduce: 2,
            c5: 2,
            pool_proj: 1,
        }
    }

    #[test]
    fn out_shape_concatenates_channels() {
        let m = Inception::new("inc", 4, 6, 6, small_config());
        assert_eq!(m.out_shape(), vec![8, 6, 6]);
        assert_eq!(small_config().out_channels(), 8);
    }

    #[test]
    fn declares_params_for_all_branch_convs() {
        let m = Inception::new("inc", 4, 6, 6, small_config());
        // 6 convs (1x1, 3x3r, 3x3, 5x5r, 5x5, proj) × (weight + bias).
        assert_eq!(m.param_specs().len(), 12);
        let names: Vec<String> = m.param_specs().iter().map(|s| s.name.clone()).collect();
        assert!(names.iter().any(|n| n.contains("3x3r")));
        assert!(names.iter().any(|n| n.contains("proj")));
    }

    #[test]
    fn forward_shape_and_branch_placement() {
        let mut m = Inception::new("inc", 3, 4, 4, small_config());
        let (params, _) = build_arenas(&mut m, 1);
        let x = Tensor::full([2, 3, 4, 4], 0.5);
        let y = m.forward(&params, &x, true);
        assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut m = Inception::new("inc", 3, 5, 5, small_config());
        let (params, grads) = build_arenas(&mut m, 2);
        check_layer(&mut m, params, grads, &[3, 5, 5], 2, 2e-2, 31);
    }

    #[test]
    fn clone_preserves_bindings_and_output() {
        let mut m = Inception::new("inc", 3, 4, 4, small_config());
        let (params, _) = build_arenas(&mut m, 3);
        let x = Tensor::full([1, 3, 4, 4], 0.25);
        let y = m.forward(&params, &x, false);
        let mut c = m.boxed_clone();
        let yc = c.forward(&params, &x, false);
        assert_eq!(y.as_slice(), yc.as_slice());
    }

    #[test]
    fn batch_samples_independent() {
        let mut m = Inception::new("inc", 2, 4, 4, small_config());
        let (params, _) = build_arenas(&mut m, 4);
        let mut rng = easgd_tensor::Rng::new(5);
        let mut x1 = Tensor::zeros([1, 2, 4, 4]);
        rng.fill_normal(x1.as_mut_slice(), 0.0, 1.0);
        let mut x2 = Tensor::zeros([1, 2, 4, 4]);
        rng.fill_normal(x2.as_mut_slice(), 0.0, 1.0);
        let y1 = m.forward(&params, &x1, true);
        let y2 = m.forward(&params, &x2, true);
        let mut both = Tensor::zeros([2, 2, 4, 4]);
        both.as_mut_slice()[..32].copy_from_slice(x1.as_slice());
        both.as_mut_slice()[32..].copy_from_slice(x2.as_slice());
        let y = m.forward(&params, &both, true);
        assert_eq!(&y.as_slice()[..y1.len()], y1.as_slice());
        assert_eq!(&y.as_slice()[y1.len()..], y2.as_slice());
    }
}
