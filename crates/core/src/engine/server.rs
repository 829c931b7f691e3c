//! The asynchronous exchange rule — Async SGD, MSGD, EASGD and MEASGD
//! (§3.1, §5.1) — declared once and read by the one locked server
//! ([`crate::shared`]), which also replays the simulated FCFS server's
//! order ([`crate::async_sim`]). A worker pushes, the master updates the
//! centre and replies with it, the worker takes the reply:
//!
//! | variant  | pushes   | master applies                   | worker takes the reply |
//! |----------|----------|----------------------------------|------------------------|
//! | `Sgd`    | gradient | `sgd_update`                     | adopts it              |
//! | `Msgd`   | gradient | `momentum_update`, master velocity | adopts it            |
//! | `Easgd`  | weights  | Eq (2) `center_pull`             | Eq (1) against it      |
//! | `Measgd` | weights  | Eq (2) `center_pull`             | Eqs (5)–(6) against it |
//!
//! The elastic pair (Zhang et al., arXiv 1412.6651 §3–4) honour the
//! communication period τ, taking local steps between exchanges.

use crate::engine::elastic::ElasticRule;
use crate::engine::local::LocalStep;
use easgd_tensor::ops::{momentum_update, sgd_update};

/// One of the four asynchronous parameter-server methods.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AsyncVariant {
    /// Async SGD (§3.1).
    Sgd,
    /// Async MSGD: Async SGD with Equations (3)–(4) at the master.
    Msgd,
    /// Async EASGD (§5.1).
    Easgd,
    /// Async MEASGD (§5.1): Async EASGD with the worker update of
    /// Equations (5)–(6).
    Measgd,
}

impl AsyncVariant {
    /// All four, in the order of Figure 6's panels.
    pub const ALL: [Self; 4] = [Self::Sgd, Self::Msgd, Self::Easgd, Self::Measgd];

    /// Whether the worker pushes its weights rather than its gradient.
    pub fn is_elastic(self) -> bool {
        matches!(self, Self::Easgd | Self::Measgd)
    }

    /// Whether the worker's step `step` (from 0) ends in an exchange:
    /// every step for the gradient pushers, every τ-th for the elastic
    /// pair.
    pub fn exchanges_at(self, step: usize, comm_period: usize) -> bool {
        !self.is_elastic() || (step + 1).is_multiple_of(comm_period)
    }

    /// The local step an elastic worker takes instead of an exchange.
    pub fn local_step(self, rule: &ElasticRule, local: &mut LocalStep) {
        match self {
            Self::Measgd => local.momentum_step(rule.eta, rule.mu),
            _ => local.sgd_step(rule.eta),
        }
    }

    /// What the worker pushes.
    pub fn push(self, local: &LocalStep) -> &[f32] {
        if self.is_elastic() {
            local.params()
        } else {
            local.grad()
        }
    }

    /// What the master applies to `center` on receipt of `pushed`. Only
    /// MSGD reads the master `velocity`, sizing it on first use.
    pub fn apply(
        self,
        rule: &ElasticRule,
        center: &mut [f32],
        velocity: &mut Vec<f32>,
        pushed: &[f32],
    ) {
        match self {
            Self::Sgd => sgd_update(rule.eta, center, pushed),
            Self::Msgd => {
                velocity.resize(center.len(), 0.0);
                momentum_update(rule.eta, rule.mu, center, velocity, pushed);
            }
            Self::Easgd | Self::Measgd => rule.center_pull(center, pushed),
        }
    }

    /// What the worker keeps of the master's reply: the gradient pushers
    /// adopt the centre, the elastic pair snapshot it.
    pub fn receive(self, local: &mut LocalStep, center: &[f32]) {
        if self.is_elastic() {
            local.snapshot_center(center);
        } else {
            local.set_params(center);
        }
    }

    /// The worker's update after the reply, against the snapshot
    /// [`AsyncVariant::receive`] took: none, Eq (1) or Eqs (5)–(6).
    pub fn worker_update(self, rule: &ElasticRule, local: &mut LocalStep) {
        match self {
            Self::Sgd | Self::Msgd => {}
            Self::Easgd => local.elastic_step(rule),
            Self::Measgd => local.elastic_momentum_step(rule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_elastic_pair_skips_exchanges_inside_tau() {
        for v in AsyncVariant::ALL {
            let exchanged: Vec<bool> = (0..4).map(|s| v.exchanges_at(s, 2)).collect();
            let want = if v.is_elastic() {
                vec![false, true, false, true]
            } else {
                vec![true; 4]
            };
            assert_eq!(exchanged, want, "{v:?}");
        }
    }

    #[test]
    fn only_msgd_sizes_a_master_velocity() {
        let rule = ElasticRule {
            eta: 0.1,
            rho: 0.5,
            mu: 0.9,
        };
        for v in AsyncVariant::ALL {
            let mut center = vec![1.0f32, -1.0];
            let mut velocity = Vec::new();
            v.apply(&rule, &mut center, &mut velocity, &[0.5, 0.25]);
            assert_eq!(velocity.len(), if v == AsyncVariant::Msgd { 2 } else { 0 });
        }
    }
}
