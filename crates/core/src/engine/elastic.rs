//! The elastic-averaging rule — Equations (1), (2), (5)–(6) and the
//! bulk-synchronous center dilution — in one tested place.
//!
//! Every EASGD variant in the paper is one of four applications of the
//! same `(η, ρ, µ)` triple:
//!
//! | method family          | update                        | here              |
//! |------------------------|-------------------------------|-------------------|
//! | worker, Eq (1)         | `Wᵢ ← Wᵢ − ηΔWᵢ − ηρ(Wᵢ−W̄)` | [`ElasticRule::worker_pull`]   |
//! | center, Eq (2)         | `W̄ ← W̄ + ηρ(Wᵢ−W̄)`         | [`ElasticRule::center_pull`]   |
//! | momentum worker, (5)–(6)| Eq (1) with velocity         | [`ElasticRule::momentum_pull`] |
//! | BSP center, Σ-form     | `W̄ ← W̄ + ηρ(ΣWᵢ − P·W̄)`    | [`ElasticRule::center_dilution`] |
//!
//! The Σ-form is Equation (2) applied once with the full worker sum —
//! what Sync EASGD's tree reduction produces — and is kept as a separate
//! method because its FP evaluation order (one fused pass over the sum)
//! is pinned by the golden-trace tests.

use crate::config::TrainConfig;
use easgd_tensor::ops;

/// The `(η, ρ, µ)` triple driving every elastic update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElasticRule {
    /// Learning rate `η`.
    pub eta: f32,
    /// Elastic strength `ρ`.
    pub rho: f32,
    /// Momentum `µ` (used only by [`ElasticRule::momentum_pull`]).
    pub mu: f32,
}

impl ElasticRule {
    /// Extracts the rule from a training configuration.
    pub fn from_config(cfg: &TrainConfig) -> Self {
        Self {
            eta: cfg.eta,
            rho: cfg.rho,
            mu: cfg.mu,
        }
    }

    /// Equation (1): the worker's gradient step plus the elastic pull
    /// toward the center.
    pub fn worker_pull(&self, local: &mut [f32], grad: &[f32], center: &[f32]) {
        ops::elastic_worker_update(self.eta, self.rho, local, grad, center);
    }

    /// Equation (2): the center's pull toward one worker.
    pub fn center_pull(&self, center: &mut [f32], local: &[f32]) {
        ops::elastic_center_update(self.eta, self.rho, center, local);
    }

    /// Equations (5)–(6): the momentum form of the worker update.
    pub fn momentum_pull(
        &self,
        local: &mut [f32],
        velocity: &mut [f32],
        grad: &[f32],
        center: &[f32],
    ) {
        ops::elastic_momentum_update(self.eta, self.mu, self.rho, local, velocity, grad, center);
    }

    /// Equation (2) in bulk-synchronous Σ-form: one center update with
    /// the full `P`-worker weight sum,
    /// `W̄ ← W̄ + ηρ·(ΣWᵢ − P·W̄)`.
    pub fn center_dilution(&self, center: &mut [f32], weight_sum: &[f32], workers: usize) {
        ops::center_dilution(self.eta, self.rho, center, weight_sum, workers);
    }

    /// The fused exchange step: captures `Wᵢ` into `contribution` (the
    /// Equation (2) reduce input) and applies the Equation (1) pull in
    /// one sweep. Bit-identical to copying the weights and then calling
    /// [`ElasticRule::worker_pull`].
    pub fn exchange(
        &self,
        local: &mut [f32],
        contribution: &mut [f32],
        grad: &[f32],
        center: &[f32],
    ) {
        ops::elastic_exchange(self.eta, self.rho, local, contribution, grad, center);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> ElasticRule {
        ElasticRule {
            eta: 0.1,
            rho: 0.5,
            mu: 0.9,
        }
    }

    #[test]
    fn from_config_copies_the_triple() {
        let cfg = TrainConfig::figure6(10);
        let r = ElasticRule::from_config(&cfg);
        assert_eq!((r.eta, r.rho, r.mu), (cfg.eta, cfg.rho, cfg.mu));
    }

    #[test]
    fn worker_pull_is_gradient_step_plus_elastic_term() {
        let r = rule();
        let mut local = vec![1.0f32];
        r.worker_pull(&mut local, &[2.0], &[0.5]);
        // 1 − 0.1·2 − 0.1·0.5·(1 − 0.5) = 0.775
        assert!((local[0] - 0.775).abs() < 1e-6);
    }

    #[test]
    fn dilution_with_one_worker_equals_center_pull() {
        // Σ-form with P = 1 must be bit-identical to Equation (2):
        // both compute c + ηρ(w − c) in the same order.
        let r = rule();
        let w = vec![0.25f32, -1.5, 3.0];
        let mut a = vec![0.5f32, 0.75, -2.0];
        let mut b = a.clone();
        r.center_pull(&mut a, &w);
        r.center_dilution(&mut b, &w, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dilution_fixed_point_is_the_worker_mean() {
        let r = rule();
        // ΣWᵢ = P·W̄ ⇒ no movement.
        let mut c = vec![2.0f32, -1.0];
        let sum = vec![8.0f32, -4.0];
        r.center_dilution(&mut c, &sum, 4);
        assert_eq!(c, vec![2.0, -1.0]);
    }

    #[test]
    fn momentum_pull_matches_the_two_equation_form() {
        let r = rule();
        let mut local = vec![1.0f32];
        let mut vel = vec![0.2f32];
        r.momentum_pull(&mut local, &mut vel, &[2.0], &[0.5]);
        // v ← 0.9·0.2 − 0.1·2 = −0.02; w ← 1 − 0.02 − 0.05·(1−0.5) = 0.955
        assert!((vel[0] + 0.02).abs() < 1e-6);
        assert!((local[0] - 0.955).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dilution length mismatch")]
    fn dilution_rejects_mismatched_lengths() {
        rule().center_dilution(&mut [0.0], &[0.0, 0.0], 2);
    }

    #[test]
    fn fused_exchange_is_bit_identical_to_copy_then_worker_pull() {
        let r = rule();
        let w0 = vec![1.0f32, -0.5, 0.25, 3.5];
        let grad = vec![0.5f32, 1.5, -2.0, 0.125];
        let center = vec![0.75f32, -0.25, 0.5, 3.0];

        let mut fused = w0.clone();
        let mut contribution = vec![0.0f32; w0.len()];
        r.exchange(&mut fused, &mut contribution, &grad, &center);

        let mut two_pass = w0.clone();
        let published = two_pass.clone();
        r.worker_pull(&mut two_pass, &grad, &center);

        for (a, b) in fused.iter().zip(&two_pass) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in contribution.iter().zip(&published) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
