//! Cost specifications of the paper's full-size models.
//!
//! The large-scale experiments (Table 4 weak scaling, Figure 10 layer
//! packing) never require *training* GoogLeNet or VGG here — they require
//! knowing, per layer, how many parameters must be communicated and how
//! many flops one sample costs. These specs encode exactly that, built
//! from the published architectures so the derived totals can be checked
//! against well-known figures (AlexNet ≈ 249 MB of weights, VGG-19 ≈
//! 575 MB — both quoted in the paper).

/// Cost of one layer: parameters to communicate, flops to compute.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerCost {
    /// Layer name.
    pub name: String,
    /// Parameter count (weights + biases).
    pub params: usize,
    /// Forward flops for ONE sample (multiply-add counted as 2 flops).
    pub flops_fwd: f64,
}

/// A full model as a list of layer costs.
#[derive(Clone, Debug)]
pub struct ModelSpec {
    /// Model name, e.g. `"GoogLeNet"`.
    pub name: String,
    /// Per-layer costs in forward order.
    pub layers: Vec<LayerCost>,
}

impl ModelSpec {
    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Weight size in bytes (f32).
    pub fn weight_bytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Forward flops for one sample.
    pub fn flops_fwd(&self) -> f64 {
        self.layers.iter().map(|l| l.flops_fwd).sum()
    }

    /// Training flops for one sample. Backward propagation costs about
    /// twice the forward pass (one GEMM for the input gradient, one for
    /// the weight gradient), the standard 3× rule.
    pub fn flops_train(&self) -> f64 {
        3.0 * self.flops_fwd()
    }

    /// Byte sizes of the parameter messages in the *per-layer* (unpacked)
    /// communication schedule. Only layers that carry parameters send.
    pub fn layer_message_bytes(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter(|l| l.params > 0)
            .map(|l| l.params * 4)
            .collect()
    }
}

/// Cost of a conv layer: `out_c` filters of `in_c·k·k` over an
/// `out_h × out_w` output map.
fn conv(name: &str, in_c: usize, out_c: usize, k: usize, out_hw: usize) -> LayerCost {
    let params = out_c * in_c * k * k + out_c;
    let flops = 2.0 * (out_c * in_c * k * k) as f64 * (out_hw * out_hw) as f64;
    LayerCost {
        name: name.to_string(),
        params,
        flops_fwd: flops,
    }
}

/// Cost of a dense layer.
fn fc(name: &str, in_f: usize, out_f: usize) -> LayerCost {
    LayerCost {
        name: name.to_string(),
        params: in_f * out_f + out_f,
        flops_fwd: 2.0 * (in_f * out_f) as f64,
    }
}

/// Caffe LeNet on 28×28 MNIST (the Table 3 / Figure 11 workload).
pub fn spec_lenet() -> ModelSpec {
    ModelSpec {
        name: "LeNet".to_string(),
        layers: vec![
            conv("conv1", 1, 20, 5, 24),
            conv("conv2", 20, 50, 5, 8),
            fc("fc1", 50 * 4 * 4, 500),
            fc("fc2", 500, 10),
        ],
    }
}

/// AlexNet on 224×224 ImageNet (group-free variant, ≈ 62 M parameters ≈
/// 249 MB — the figure §6.1.1 quotes for the CPU↔GPU traffic analysis).
pub fn spec_alexnet() -> ModelSpec {
    ModelSpec {
        name: "AlexNet".to_string(),
        layers: vec![
            conv("conv1", 3, 96, 11, 55),
            conv("conv2", 96, 256, 5, 27),
            conv("conv3", 256, 384, 3, 13),
            conv("conv4", 384, 384, 3, 13),
            conv("conv5", 384, 256, 3, 13),
            fc("fc6", 256 * 6 * 6, 4096),
            fc("fc7", 4096, 4096),
            fc("fc8", 4096, 1000),
        ],
    }
}

/// One VGG conv block: `n` 3×3 convolutions at `ch` channels on `hw²` maps.
fn vgg_block(
    layers: &mut Vec<LayerCost>,
    block: usize,
    in_c: usize,
    ch: usize,
    n: usize,
    hw: usize,
) {
    let mut prev = in_c;
    for i in 0..n {
        layers.push(conv(&format!("conv{block}_{}", i + 1), prev, ch, 3, hw));
        prev = ch;
    }
}

/// VGG-19 on 224×224 ImageNet (≈ 144 M parameters ≈ 575 MB, the size the
/// paper quotes when arguing weights fit on one GPU, §6.1.2). This is the
/// Table 4 "VGG" workload.
pub fn spec_vgg19() -> ModelSpec {
    let mut layers = Vec::new();
    vgg_block(&mut layers, 1, 3, 64, 2, 224);
    vgg_block(&mut layers, 2, 64, 128, 2, 112);
    vgg_block(&mut layers, 3, 128, 256, 4, 56);
    vgg_block(&mut layers, 4, 256, 512, 4, 28);
    vgg_block(&mut layers, 5, 512, 512, 4, 14);
    layers.push(fc("fc6", 512 * 7 * 7, 4096));
    layers.push(fc("fc7", 4096, 4096));
    layers.push(fc("fc8", 4096, 1000));
    ModelSpec {
        name: "VGG-19".to_string(),
        layers,
    }
}

/// One GoogLeNet inception module: parallel 1×1 / 3×3 / 5×5 / pool-proj
/// branches, concatenated.
#[allow(clippy::too_many_arguments)]
fn inception(
    layers: &mut Vec<LayerCost>,
    name: &str,
    in_c: usize,
    c1: usize,
    c3r: usize,
    c3: usize,
    c5r: usize,
    c5: usize,
    proj: usize,
    hw: usize,
) {
    layers.push(conv(&format!("{name}.1x1"), in_c, c1, 1, hw));
    layers.push(conv(&format!("{name}.3x3r"), in_c, c3r, 1, hw));
    layers.push(conv(&format!("{name}.3x3"), c3r, c3, 3, hw));
    layers.push(conv(&format!("{name}.5x5r"), in_c, c5r, 1, hw));
    layers.push(conv(&format!("{name}.5x5"), c5r, c5, 5, hw));
    layers.push(conv(&format!("{name}.proj"), in_c, proj, 1, hw));
}

/// GoogLeNet (Inception v1) on 224×224 ImageNet, auxiliary classifiers
/// omitted (≈ 7 M parameters ≈ 27 MB). This is the Table 4 "GoogleNet"
/// workload; its tiny weight size relative to VGG is exactly why it
/// weak-scales so much better (91.6 % vs 80.2 % at 4352 cores).
pub fn spec_googlenet() -> ModelSpec {
    let mut layers = Vec::new();
    layers.push(conv("conv1", 3, 64, 7, 112));
    layers.push(conv("conv2r", 64, 64, 1, 56));
    layers.push(conv("conv2", 64, 192, 3, 56));
    inception(&mut layers, "3a", 192, 64, 96, 128, 16, 32, 32, 28);
    inception(&mut layers, "3b", 256, 128, 128, 192, 32, 96, 64, 28);
    inception(&mut layers, "4a", 480, 192, 96, 208, 16, 48, 64, 14);
    inception(&mut layers, "4b", 512, 160, 112, 224, 24, 64, 64, 14);
    inception(&mut layers, "4c", 512, 128, 128, 256, 24, 64, 64, 14);
    inception(&mut layers, "4d", 512, 112, 144, 288, 32, 64, 64, 14);
    inception(&mut layers, "4e", 528, 256, 160, 320, 32, 128, 128, 14);
    inception(&mut layers, "5a", 832, 256, 160, 320, 32, 128, 128, 7);
    inception(&mut layers, "5b", 832, 384, 192, 384, 48, 128, 128, 7);
    layers.push(fc("fc", 1024, 1000));
    ModelSpec {
        name: "GoogLeNet".to_string(),
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_matches_runnable_model() {
        // The spec and the runnable `models::lenet` must agree exactly.
        let spec = spec_lenet();
        assert_eq!(spec.num_params(), 520 + 25_050 + 400_500 + 5_010);
    }

    #[test]
    fn alexnet_weights_about_249_mb() {
        let spec = spec_alexnet();
        let mb = spec.weight_bytes() as f64 / 1e6;
        // The paper quotes 249 MB (§6.1.1).
        assert!((230.0..260.0).contains(&mb), "AlexNet = {mb:.1} MB");
    }

    #[test]
    fn vgg19_weights_about_575_mb() {
        let spec = spec_vgg19();
        let mb = spec.weight_bytes() as f64 / 1e6;
        // The paper quotes 575 MB (§6.1.2).
        assert!((550.0..590.0).contains(&mb), "VGG-19 = {mb:.1} MB");
    }

    #[test]
    fn googlenet_has_about_7m_params() {
        let m = spec_googlenet().num_params() as f64 / 1e6;
        assert!((6.0..8.0).contains(&m), "GoogLeNet = {m:.2} M");
    }

    #[test]
    fn googlenet_is_much_smaller_than_vgg_but_still_deep() {
        // The weak-scaling contrast of Table 4 rests on this ratio.
        let g = spec_googlenet();
        let v = spec_vgg19();
        assert!(v.num_params() > 15 * g.num_params());
        assert!(g.layers.len() > 50);
    }

    #[test]
    fn vgg_flops_dominated_by_convs() {
        let spec = spec_vgg19();
        let conv_flops: f64 = spec
            .layers
            .iter()
            .filter(|l| l.name.starts_with("conv"))
            .map(|l| l.flops_fwd)
            .sum();
        assert!(conv_flops / spec.flops_fwd() > 0.9);
        // VGG-19 forward ≈ 39 GFLOPs/sample (2 flops per MAC).
        let g = spec.flops_fwd() / 1e9;
        assert!((35.0..45.0).contains(&g), "VGG-19 fwd = {g:.1} GFLOPs");
    }

    #[test]
    fn per_layer_messages_sum_to_total() {
        let spec = spec_googlenet();
        let total: usize = spec.layer_message_bytes().iter().sum();
        assert_eq!(total, spec.weight_bytes());
    }

    #[test]
    fn train_flops_are_triple_forward() {
        let spec = spec_lenet();
        assert!((spec.flops_train() - 3.0 * spec.flops_fwd()).abs() < 1.0);
    }
}
