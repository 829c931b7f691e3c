//! Inference sessions: gradient-stripped network replicas with
//! forward-only pooled scratch, sharded over a `PartitionedPool`.

use crate::batcher::{add_stats, Batch};
use crate::engine::Backend;
use easgd_nn::Network;
use easgd_tensor::par::{with_budget, PartitionedPool};
use easgd_tensor::{InferScratch, ScratchStats, Tensor};

/// One serving replica: a [`Network`] with its gradient arena stripped
/// (half the training replica's memory; calling `forward_backward`
/// panics), a forward-only [`InferScratch`], and an owned logits
/// tensor. After one warm-up dispatch per batch size, `infer` performs
/// zero pooled allocations — the serving analogue of the training
/// step's steady state (DESIGN.md §11).
pub struct InferSession {
    net: Network,
    scratch: InferScratch,
    logits: Tensor,
    sample_len: usize,
}

impl InferSession {
    /// Wraps a built network as a serving replica, dropping its
    /// gradient arena.
    pub fn new(mut net: Network) -> Self {
        net.strip_gradients();
        let sample_len = net.input_shape().iter().product();
        let classes = net.num_classes();
        Self {
            net,
            scratch: InferScratch::new(),
            logits: Tensor::zeros([1, classes]),
            sample_len,
        }
    }

    /// Pixels per sample (the flattened input shape).
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Runs eval-mode forward on a ragged batch of `batch` samples
    /// packed in `pixels`, returning the `[batch × classes]` logits.
    ///
    /// # Panics
    /// Panics unless `pixels.len() == batch * sample_len`.
    pub fn infer(&mut self, batch: usize, pixels: &[f32]) -> &[f32] {
        self.net
            .infer_from_slice(batch, pixels, &mut self.logits, &mut self.scratch);
        self.logits.as_slice()
    }

    /// Logits of the most recent [`infer`](Self::infer) call.
    pub fn logits(&self) -> &[f32] {
        self.logits.as_slice()
    }

    /// Pooled allocation counters of this replica's scratch.
    pub fn stats(&self) -> ScratchStats {
        self.scratch.stats()
    }
}

/// `shards` independent replicas, one per [`PartitionedPool`] group:
/// the in-process analogue of the paper's one-worker-per-device layout,
/// reused here so batch dispatches on different shards never contend
/// for a worker thread.
pub struct ReplicaSet {
    sessions: Vec<InferSession>,
    part: PartitionedPool,
}

impl ReplicaSet {
    /// One replica per entry of `replicas`, sharded over a fresh
    /// partitioned pool with `replicas.len()` groups.
    ///
    /// # Panics
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<Network>) -> Self {
        assert!(!replicas.is_empty(), "need at least one replica");
        let part = PartitionedPool::new(replicas.len());
        Self {
            sessions: replicas.into_iter().map(InferSession::new).collect(),
            part,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.sessions.len()
    }

    /// A shard's session, for logits inspection after a dispatch.
    pub fn session(&self, shard: usize) -> &InferSession {
        &self.sessions[shard]
    }
}

impl Backend for ReplicaSet {
    /// Runs the batch on `shard`'s replica under one group's thread
    /// budget, so concurrent shards never borrow each other's threads.
    fn run_batch(&mut self, shard: usize, batch: &Batch, pixels: &[f32]) {
        let Self { sessions, part } = self;
        with_budget(part.group_threads(), || {
            let _ = sessions[shard].infer(batch.len(), pixels);
        });
    }

    fn stats(&self) -> ScratchStats {
        self.sessions
            .iter()
            .map(InferSession::stats)
            .fold(ScratchStats::default(), add_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_nn::NetworkBuilder;

    fn tiny_net(seed: u64) -> Network {
        NetworkBuilder::new([1, 6, 6])
            .conv2d(2, 3, 1, 1)
            .relu()
            .maxpool(2, 2)
            .flatten()
            .dense(10)
            .build(seed)
    }

    #[test]
    fn session_matches_unstripped_forward_bitwise() {
        let mut reference = tiny_net(7);
        let mut session = InferSession::new(tiny_net(7));
        let pixels: Vec<f32> = (0..2 * 36).map(|i| (i as f32).sin()).collect();
        let x = Tensor::from_vec([2, 1, 6, 6], pixels.clone());
        let want = reference.forward(&x, false);
        let got = session.infer(2, &pixels);
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn ragged_sizes_are_zero_alloc_once_warm() {
        let mut session = InferSession::new(tiny_net(3));
        let pixels = vec![0.25f32; 4 * 36];
        // Warm both sizes the ragged schedule will use.
        let _ = session.infer(4, &pixels);
        let _ = session.infer(1, &pixels[..36]);
        let warm = session.stats();
        for _ in 0..6 {
            let _ = session.infer(4, &pixels);
            let _ = session.infer(1, &pixels[..36]);
            let _ = session.infer(3, &pixels[..3 * 36]);
        }
        let delta = session.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "warm ragged inference allocated");
        assert!(delta.reused > 0);
    }

    #[test]
    fn replica_set_shards_agree_on_equal_seeds() {
        let mut set = ReplicaSet::new(vec![tiny_net(11), tiny_net(11)]);
        let pixels: Vec<f32> = (0..36).map(|i| (i as f32).cos()).collect();
        let ReplicaSet { sessions, part } = &mut set;
        let mut serve = |shard: usize| {
            with_budget(part.group_threads(), || {
                sessions[shard].infer(1, &pixels).to_vec()
            })
        };
        let (a, b) = (serve(0), serve(1));
        assert_eq!(a, b, "equal-seed replicas must serve identical logits");
    }
}
