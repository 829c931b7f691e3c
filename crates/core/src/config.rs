//! Training hyperparameters shared by every algorithm.

/// Hyperparameters of one distributed training run.
///
/// The paper's evaluation rule (§2.4): “All algorithmic comparisons used
/// the same hardware and the same hyper-parameters (e.g. batch size,
/// learning rate).” One `TrainConfig` drives every method in a
/// comparison.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of workers `P` (the master, where one exists, is extra).
    pub workers: usize,
    /// Mini-batch size `b` per worker per step (§2.2: typically 16–2048).
    pub batch: usize,
    /// Learning rate `η`.
    pub eta: f32,
    /// Elastic strength `ρ` (Equations 1–2). The EASGD paper recommends
    /// `ρ = β/(η·P)`-style small values; 0.1–1.0 works for these tasks.
    pub rho: f32,
    /// Momentum rate `µ` (Equations 3–6); rule of thumb 0.9 (§5.1).
    pub mu: f32,
    /// Iteration budget. For synchronous methods this is the number of
    /// bulk-synchronous rounds (every worker steps once per round); for
    /// asynchronous and round-robin methods it is the number of steps
    /// *per worker*, so the total gradient evaluations match.
    pub iterations: usize,
    /// RNG seed; every run is a pure function of this.
    pub seed: u64,
    /// Communication period `τ`: an elastic worker exchanges every `τ`-th
    /// step and takes local steps in between (the EASGD paper's knob;
    /// `τ = 1` is the SC '17 setting). Honoured by the wall-clock Async
    /// EASGD/MEASGD, Original EASGD and Hogwild EASGD; ignored by the
    /// non-elastic baselines. Shared-memory Sync EASGD and the simulated
    /// trainers (`async_server_sim`, `original_easgd_sim`,
    /// `sync_easgd_sim[_with]`, `hierarchical_sync_easgd`) panic on `τ ≠ 1`.
    pub comm_period: usize,
}

impl TrainConfig {
    /// A sensible default for the Figure 6/8 experiments: 4 workers (the
    /// paper's 4-GPU node), batch 64, µ = 0.9, an aggressive η = 0.2 (the
    /// regime where asynchronous staleness hurts plain SGD and elastic
    /// averaging's stabilization — the paper's headline effect — shows),
    /// and the elastic strength from the EASGD paper's rule `ρ = β/(η·P)`
    /// with β = 0.9, so the center tracks the workers closely.
    pub fn figure6(iterations: usize) -> Self {
        let workers = 4;
        let eta = 0.2;
        Self {
            workers,
            batch: 64,
            eta,
            rho: 0.9 / (eta * workers as f32),
            mu: 0.9,
            iterations,
            seed: 0x5C17,
            comm_period: 1,
        }
    }

    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the learning rate, re-deriving the elastic strength from
    /// the `ρ = β/(η·P)` rule (β = 0.9) so the center-tracking speed is
    /// preserved.
    pub fn with_eta(mut self, eta: f32) -> Self {
        self.eta = eta;
        self.rho = 0.9 / (eta * self.workers as f32);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on zero workers/batch/iterations or out-of-range rates.
    pub fn validate(&self) {
        assert!(self.workers > 0, "need at least one worker");
        assert!(self.batch > 0, "batch size must be positive");
        assert!(self.iterations > 0, "iteration budget must be positive");
        assert!(
            self.eta > 0.0 && self.eta.is_finite(),
            "learning rate must be positive"
        );
        assert!(
            self.rho >= 0.0 && self.rho.is_finite(),
            "elastic strength must be non-negative"
        );
        assert!((0.0..1.0).contains(&self.mu), "momentum must be in [0, 1)");
        assert!(self.comm_period >= 1, "communication period must be >= 1");
    }

    /// Overrides the communication period `τ`.
    pub fn with_comm_period(mut self, tau: usize) -> Self {
        self.comm_period = tau;
        self
    }

    /// Panics naming `trainer`, which exchanges every step, unless `τ = 1`:
    /// a `τ ≠ 1` run would otherwise be a `τ = 1` run reported as `τ`.
    pub(crate) fn refuse_comm_period(&self, trainer: &str) {
        assert!(
            self.comm_period == 1,
            "{trainer} does not honour comm_period: τ = {} (it exchanges every step; use τ = 1)",
            self.comm_period
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_defaults_are_valid() {
        let c = TrainConfig::figure6(1000);
        c.validate();
        assert_eq!(c.workers, 4);
        assert_eq!(c.batch, 64);
        assert_eq!(c.iterations, 1000);
    }

    #[test]
    fn builders_override_fields() {
        let c = TrainConfig::figure6(10)
            .with_workers(8)
            .with_seed(99)
            .with_iterations(20);
        assert_eq!(c.workers, 8);
        assert_eq!(c.seed, 99);
        assert_eq!(c.iterations, 20);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_invalid() {
        TrainConfig::figure6(10).with_workers(0).validate();
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn momentum_of_one_invalid() {
        let mut c = TrainConfig::figure6(10);
        c.mu = 1.0;
        c.validate();
    }
}
