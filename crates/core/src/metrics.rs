//! Run results and derived metrics.

use easgd_cluster::TimeBreakdown;

/// One point of an accuracy-vs-time curve.
#[derive(Clone, Copy, Debug)]
pub struct TracePoint {
    /// Iterations completed at this point.
    pub iteration: usize,
    /// Seconds elapsed (wall or simulated — see the owning result).
    pub seconds: f64,
    /// Test accuracy at this point, if measured.
    pub accuracy: f32,
}

/// Outcome of one distributed training run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Method name, e.g. `"Hogwild EASGD"`.
    pub method: String,
    /// Iteration budget of the run.
    pub iterations: usize,
    /// Real elapsed seconds.
    pub wall_seconds: f64,
    /// Simulated seconds, for cluster-scheduled methods.
    pub sim_seconds: Option<f64>,
    /// Final test accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Final training loss (mean cross-entropy of the last step).
    pub final_loss: f32,
    /// Time-category breakdown (Table 3), where the method tracks one.
    pub breakdown: Option<TimeBreakdown>,
    /// Intermediate accuracy measurements, if the run recorded any.
    pub trace: Vec<TracePoint>,
    /// Per-step training losses of the canonical worker (worker 0, or
    /// the first computing rank), in step order.
    pub loss_trace: Vec<f32>,
    /// FNV-1a 64 hash of the final center parameters' bit patterns —
    /// a cheap fingerprint for determinism and golden-trace tests.
    pub center_hash: u64,
}

impl RunResult {
    /// The time axis a figure should plot: simulated seconds when
    /// available, wall-clock otherwise.
    pub fn seconds(&self) -> f64 {
        self.sim_seconds.unwrap_or(self.wall_seconds)
    }

    /// Error rate `1 − accuracy` (the y-axis of Figure 8).
    pub fn error_rate(&self) -> f32 {
        1.0 - self.accuracy
    }

    /// `log₁₀` of the error rate, clamped away from −∞ (Figure 8's
    /// "log10 scale of error rate").
    pub fn log10_error(&self) -> f32 {
        self.error_rate().max(1e-4).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(secs: f64, acc: f32) -> RunResult {
        RunResult {
            method: "m".to_string(),
            iterations: 100,
            wall_seconds: secs,
            sim_seconds: None,
            accuracy: acc,
            final_loss: 0.1,
            breakdown: None,
            trace: Vec::new(),
            loss_trace: Vec::new(),
            center_hash: 0,
        }
    }

    #[test]
    fn seconds_prefers_simulated() {
        let mut r = run(5.0, 0.9);
        assert_eq!(r.seconds(), 5.0);
        r.sim_seconds = Some(2.0);
        assert_eq!(r.seconds(), 2.0);
    }

    #[test]
    fn error_rate_and_log() {
        let r = run(1.0, 0.99);
        assert!((r.error_rate() - 0.01).abs() < 1e-6);
        assert!((r.log10_error() - (-2.0)).abs() < 1e-3);
        // Perfect accuracy clamps instead of -inf.
        assert!(run(1.0, 1.0).log10_error().is_finite());
    }
}
