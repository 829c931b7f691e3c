//! The trace pipeline: off-clock evaluation, timestamped accuracy
//! traces, parameter fingerprints, and [`RunResult`] assembly.

use crate::metrics::{RunResult, TracePoint};
use easgd_cluster::TimeBreakdown;
use easgd_data::Dataset;
use easgd_nn::Network;

/// Evaluates `weights` on the test set using a fresh forward-only
/// replica of `proto` (no gradient arena). Off-clock: the replica is
/// thrown away and no trainer state is touched.
pub fn evaluate_center(proto: &Network, weights: &[f32], test: &Dataset) -> f32 {
    let mut net = proto.forward_replica();
    net.set_params(weights);
    net.evaluate(&test.as_tensor(), test.labels(), 256)
}

/// FNV-1a 64 over the bit patterns of `weights` — the cheap determinism
/// fingerprint stored in [`RunResult::center_hash`].
pub fn center_fingerprint(weights: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for b in w.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Collects `(iteration, seconds, accuracy)` points every `every`
/// rounds (`every = 0` disables tracing). The caller supplies the clock
/// value — simulated or wall — so evaluation stays off-clock.
pub struct TraceRecorder {
    every: usize,
    points: Vec<TracePoint>,
}

impl TraceRecorder {
    /// A recorder firing every `every` rounds (0 = never).
    pub fn new(every: usize) -> Self {
        Self {
            every,
            points: Vec::new(),
        }
    }

    /// Whether 0-indexed `round` is a recording round: rounds
    /// `every−1, 2·every−1, …`, i.e. after `every` complete rounds.
    pub fn due(&self, round: usize) -> bool {
        self.every > 0 && (round + 1).is_multiple_of(self.every)
    }

    /// Evaluates `weights` and appends a point at `(round+1, seconds)`.
    /// Callers gate on [`TraceRecorder::due`] so the (expensive)
    /// evaluation runs only on recording rounds.
    pub fn record(
        &mut self,
        round: usize,
        seconds: f64,
        proto: &Network,
        weights: &[f32],
        test: &Dataset,
    ) {
        self.points.push(TracePoint {
            iteration: round + 1,
            seconds,
            accuracy: evaluate_center(proto, weights, test),
        });
    }

    /// Consumes the recorder into its points.
    pub fn into_points(self) -> Vec<TracePoint> {
        self.points
    }
}

/// Builder assembling a [`RunResult`] from whatever a trainer produced.
/// Centralizes the final-loss rule (mean of the reported per-worker
/// losses), the off-clock final evaluation, and the center fingerprint.
pub struct RunAssembler<'a> {
    method: String,
    proto: &'a Network,
    test: &'a Dataset,
    iterations: usize,
    wall_seconds: f64,
    sim_seconds: Option<f64>,
    breakdown: Option<TimeBreakdown>,
    trace: Vec<TracePoint>,
    loss_trace: Vec<f32>,
    worker_losses: Vec<f32>,
    final_loss: Option<f32>,
}

impl<'a> RunAssembler<'a> {
    /// Starts a result for `method` over `iterations` iterations.
    pub fn new(
        method: impl Into<String>,
        proto: &'a Network,
        test: &'a Dataset,
        iterations: usize,
    ) -> Self {
        Self {
            method: method.into(),
            proto,
            test,
            iterations,
            wall_seconds: 0.0,
            sim_seconds: None,
            breakdown: None,
            trace: Vec::new(),
            loss_trace: Vec::new(),
            worker_losses: Vec::new(),
            final_loss: None,
        }
    }

    /// Sets the measured wall-clock seconds.
    pub fn wall(mut self, seconds: f64) -> Self {
        self.wall_seconds = seconds;
        self
    }

    /// Sets the simulated seconds.
    pub fn sim(mut self, seconds: f64) -> Self {
        self.sim_seconds = Some(seconds);
        self
    }

    /// Attaches a time-category breakdown.
    pub fn breakdown(mut self, b: Option<TimeBreakdown>) -> Self {
        self.breakdown = b;
        self
    }

    /// Attaches the accuracy trace.
    pub fn trace(mut self, t: Vec<TracePoint>) -> Self {
        self.trace = t;
        self
    }

    /// Attaches the canonical worker's per-step loss trace.
    pub fn loss_trace(mut self, t: Vec<f32>) -> Self {
        self.loss_trace = t;
        self
    }

    /// Reports the workers' last-step losses; the final loss becomes
    /// their mean (NaN-free filtering is the caller's policy).
    pub fn worker_losses(mut self, losses: Vec<f32>) -> Self {
        self.worker_losses = losses;
        self
    }

    /// Overrides the final loss (e.g. serial SGD reports the literal
    /// last-step loss rather than a worker mean).
    pub fn final_loss(mut self, loss: f32) -> Self {
        self.final_loss = Some(loss);
        self
    }

    /// Evaluates `center`, fingerprints it, and produces the result.
    pub fn finish(self, center: &[f32]) -> RunResult {
        let mean = self.worker_losses.iter().sum::<f32>() / self.worker_losses.len().max(1) as f32;
        let final_loss = match self.final_loss {
            Some(l) => l,
            None => mean,
        };
        RunResult {
            method: self.method,
            iterations: self.iterations,
            wall_seconds: self.wall_seconds,
            sim_seconds: self.sim_seconds,
            accuracy: evaluate_center(self.proto, center, self.test),
            final_loss,
            breakdown: self.breakdown,
            trace: self.trace,
            loss_trace: self.loss_trace,
            center_hash: center_fingerprint(center),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    fn setup() -> (Network, Dataset) {
        let task = SyntheticSpec::mnist_small().task(7);
        let (_, test) = task.train_test(32, 32, 8);
        (lenet_tiny(9), test)
    }

    #[test]
    fn fingerprint_is_bit_sensitive() {
        let a = center_fingerprint(&[1.0, 2.0, 3.0]);
        let b = center_fingerprint(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        // ±0.0 differ in bits, so the fingerprint must differ.
        assert_ne!(center_fingerprint(&[0.0]), center_fingerprint(&[-0.0]));
        assert_ne!(a, center_fingerprint(&[1.0, 2.0]));
    }

    #[test]
    fn recorder_fires_on_the_historical_schedule() {
        let rec = TraceRecorder::new(10);
        assert!(!rec.due(0));
        assert!(rec.due(9));
        assert!(rec.due(19));
        assert!(!rec.due(10));
        // Disabled recorder never fires.
        assert!(!TraceRecorder::new(0).due(9));
    }

    #[test]
    fn recorder_points_carry_one_based_iterations() {
        let (proto, test) = setup();
        let w = proto.params().as_slice().to_vec();
        let mut rec = TraceRecorder::new(5);
        rec.record(4, 1.5, &proto, &w, &test);
        let pts = rec.into_points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].iteration, 5);
        assert_eq!(pts[0].seconds, 1.5);
    }

    #[test]
    fn assembler_applies_the_mean_loss_rule() {
        let (proto, test) = setup();
        let w = proto.params().as_slice().to_vec();
        let r = RunAssembler::new("m", &proto, &test, 7)
            .wall(2.0)
            .worker_losses(vec![1.0, 3.0])
            .finish(&w);
        assert_eq!(r.final_loss, 2.0);
        assert_eq!(r.iterations, 7);
        assert_eq!(r.center_hash, center_fingerprint(&w));
        assert!(r.sim_seconds.is_none());
        // Empty losses divide by max(1), not zero.
        let e = RunAssembler::new("m", &proto, &test, 1).finish(&w);
        assert_eq!(e.final_loss, 0.0);
    }

    #[test]
    fn assembler_final_loss_override_wins() {
        let (proto, test) = setup();
        let w = proto.params().as_slice().to_vec();
        let r = RunAssembler::new("m", &proto, &test, 1)
            .worker_losses(vec![1.0, 3.0])
            .final_loss(9.0)
            .finish(&w);
        assert_eq!(r.final_loss, 9.0);
    }
}
