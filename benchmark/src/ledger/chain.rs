// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! A benchmark-owned layer chain built from `nn`'s public `Layer`
//! impls, stepping exactly as `Network::forward_backward` does but with
//! one span per `forward_into` / `backward_into`. Parameters are copied
//! from the `NetworkBuilder` network, so its loss must equal the
//! network's bit for bit — the traced pass checks that it does.

use crate::trace::Lane;
use easgd_nn::{
    Conv2d, Dense, Flatten, Layer, MaxPool2d, Network, NetworkBuilder, Relu, SoftmaxCrossEntropy,
};
use easgd_tensor::{Conv2dGeometry, ParamArena, ScratchStats, Tensor, TrainScratch};

/// One stage of a feed-forward stack; the same list builds the
/// `NetworkBuilder` network and the traced chain, so they cannot drift.
#[derive(Clone, Copy)]
pub enum Stage {
    Conv {
        out: usize,
        k: usize,
        stride: usize,
        pad: usize,
    },
    Relu,
    MaxPool {
        size: usize,
        stride: usize,
    },
    Flatten,
    Dense {
        out: usize,
    },
}

/// conv32·conv32·pool·conv64·conv64·pool·conv128·pool·dense256·dense10.
pub const VGG_SHAPED: [Stage; 17] = [
    Stage::Conv {
        out: 32,
        k: 3,
        stride: 1,
        pad: 1,
    },
    Stage::Relu,
    Stage::Conv {
        out: 32,
        k: 3,
        stride: 1,
        pad: 1,
    },
    Stage::Relu,
    Stage::MaxPool { size: 2, stride: 2 },
    Stage::Conv {
        out: 64,
        k: 3,
        stride: 1,
        pad: 1,
    },
    Stage::Relu,
    Stage::Conv {
        out: 64,
        k: 3,
        stride: 1,
        pad: 1,
    },
    Stage::Relu,
    Stage::MaxPool { size: 2, stride: 2 },
    Stage::Conv {
        out: 128,
        k: 3,
        stride: 1,
        pad: 1,
    },
    Stage::Relu,
    Stage::MaxPool { size: 2, stride: 2 },
    Stage::Flatten,
    Stage::Dense { out: 256 },
    Stage::Relu,
    Stage::Dense { out: 10 },
];

/// The `NetworkBuilder` network of a stage list.
pub fn build_network(input: [usize; 3], stages: &[Stage], seed: u64) -> Network {
    let mut b = NetworkBuilder::new(input);
    for s in stages {
        b = match *s {
            Stage::Conv {
                out,
                k,
                stride,
                pad,
            } => b.conv2d(out, k, stride, pad),
            Stage::Relu => b.relu(),
            Stage::MaxPool { size, stride } => b.maxpool(size, stride),
            Stage::Flatten => b.flatten(),
            Stage::Dense { out } => b.dense(out),
        };
    }
    b.build(seed)
}

struct Link {
    layer: Box<dyn Layer>,
    fwd: &'static str,
    bwd: &'static str,
}

/// The traced chain. See the module docs.
pub struct Chain {
    links: Vec<Link>,
    pub params: ParamArena,
    pub grads: ParamArena,
    scratch: TrainScratch,
    loss: SoftmaxCrossEntropy,
    /// GEMM flops of one forward pass per sample, from the layer shapes.
    pub fwd_flops_per_sample: f64,
}

impl Chain {
    /// Builds the chain of `stages` over `input`-shaped samples and
    /// copies `net`'s parameters into its arena.
    pub fn new(input: [usize; 3], stages: &[Stage], net: &Network) -> Self {
        let mut cur: Vec<usize> = input.to_vec();
        let mut links = Vec::new();
        let mut flops = 0.0;
        for (i, s) in stages.iter().enumerate() {
            let name = format!("stage{i}");
            let (layer, fwd, bwd): (Box<dyn Layer>, _, _) = match *s {
                Stage::Conv {
                    out,
                    k,
                    stride,
                    pad,
                } => {
                    let geom = Conv2dGeometry {
                        in_channels: cur[0],
                        in_h: cur[1],
                        in_w: cur[2],
                        k_h: k,
                        k_w: k,
                        stride,
                        pad,
                    };
                    flops += 2.0 * (out * geom.col_rows() * geom.col_cols()) as f64;
                    (
                        Box::new(Conv2d::new(name, geom, out)),
                        "nn.conv.fwd",
                        "nn.conv.bwd",
                    )
                }
                Stage::Relu => (
                    Box::new(Relu::new(name, cur.clone())),
                    "nn.act.fwd",
                    "nn.act.bwd",
                ),
                Stage::MaxPool { size, stride } => (
                    Box::new(MaxPool2d::new(name, cur[0], cur[1], cur[2], size, stride)),
                    "nn.pool.fwd",
                    "nn.pool.bwd",
                ),
                Stage::Flatten => (
                    Box::new(Flatten::new(name, cur.clone())),
                    "nn.flatten.fwd",
                    "nn.flatten.bwd",
                ),
                Stage::Dense { out } => {
                    flops += 2.0 * (cur[0] * out) as f64;
                    (
                        Box::new(Dense::new(name, cur[0], out)),
                        "nn.dense.fwd",
                        "nn.dense.bwd",
                    )
                }
            };
            cur = layer.out_shape();
            links.push(Link { layer, fwd, bwd });
        }
        // Arena layout as `NetworkBuilder::build`: segments in layer order.
        let mut builder = ParamArena::builder();
        let bindings: Vec<Vec<usize>> = links
            .iter()
            .map(|l| {
                l.layer
                    .param_specs()
                    .iter()
                    .map(|spec| builder.push(spec.name.clone(), spec.len))
                    .collect()
            })
            .collect();
        let mut params = builder.build();
        for (l, segs) in links.iter_mut().zip(&bindings) {
            l.layer.bind(segs);
        }
        assert_eq!(
            params.len(),
            net.num_params(),
            "chain and network disagree on parameters"
        );
        params
            .as_mut_slice()
            .copy_from_slice(net.params().as_slice());
        Self {
            links,
            grads: ParamArena::like(&params),
            params,
            scratch: TrainScratch::default(),
            loss: SoftmaxCrossEntropy,
            fwd_flops_per_sample: flops,
        }
    }

    /// GEMM flops of one training step at batch `b`: the forward GEMM of
    /// every conv and dense layer, plus two GEMMs of the same size in
    /// the backward pass (weight gradient and input gradient).
    pub fn flops_per_step(&self, b: usize) -> f64 {
        3.0 * self.fwd_flops_per_sample * b as f64
    }

    pub fn scratch_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// One training step — `Network::forward_backward`'s sequence —
    /// under an `nn.step` span with one child span per layer call.
    /// Returns the loss.
    pub fn step(&mut self, x: &Tensor, labels: &[usize], lane: &mut Lane, op: u64) -> f32 {
        let step = lane.enter("nn.step", op);
        let mut ping = self.scratch.take_ping();
        let mut pong = self.scratch.take_pong();
        let mut probs = self.scratch.take_probs();
        for (i, l) in self.links.iter_mut().enumerate() {
            let id = lane.enter(l.fwd, op);
            if i == 0 {
                l.layer
                    .forward_into(&self.params, x, true, &mut pong, &mut self.scratch);
            } else {
                std::mem::swap(&mut ping, &mut pong);
                l.layer
                    .forward_into(&self.params, &ping, true, &mut pong, &mut self.scratch);
            }
            lane.exit(id);
        }
        let id = lane.enter("nn.loss.fwd", op);
        let (loss, _) = self
            .loss
            .forward_into(&pong, labels, &mut probs, &mut self.scratch);
        lane.exit(id);
        let id = lane.enter("nn.loss.bwd", op);
        self.loss
            .backward_into(&probs, labels, &mut ping, &mut self.scratch);
        lane.exit(id);
        let id = lane.enter("nn.zero_grads", op);
        self.grads.zero();
        lane.exit(id);
        for l in self.links.iter_mut().rev() {
            let id = lane.enter(l.bwd, op);
            l.layer.backward_into(
                &self.params,
                &mut self.grads,
                &ping,
                &mut pong,
                &mut self.scratch,
            );
            lane.exit(id);
            std::mem::swap(&mut ping, &mut pong);
        }
        self.scratch.put_ping(ping);
        self.scratch.put_pong(pong);
        self.scratch.put_probs(probs);
        lane.exit(step);
        loss
    }
}
