//! Uniform dispatch from [`crate::lineage::MethodId`] to the
//! wall-clock implementations — one entry point for sweeps and harnesses
//! that iterate over the whole Figure 8/9 method family.
//!
//! [`run_method`]'s match over [`MethodId`] is exhaustive with no
//! fallback arm: adding a lineage method without a trainer is a compile
//! error, not a runtime surprise.

use crate::config::TrainConfig;
use crate::lineage::MethodId;
use crate::metrics::RunResult;
use easgd_data::Dataset;
use easgd_nn::Network;

/// Runs the shared-memory (wall-clock) implementation of `method`.
///
/// Momentum methods are sensitive to the raw learning rate (the
/// effective rate is `η/(1−µ)`); callers comparing across methods
/// typically pass a smaller `η` for [`MethodId::AsyncMsgd`] /
/// [`MethodId::AsyncMeasgd`], as the paper's experiments do.
pub fn run_method(
    method: MethodId,
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> RunResult {
    let run = match method {
        MethodId::OriginalEasgd => crate::shared::original_easgd_turns,
        MethodId::AsyncSgd => crate::shared::async_sgd,
        MethodId::AsyncMsgd => crate::shared::async_msgd,
        MethodId::HogwildSgd => crate::hogwild::hogwild_sgd,
        MethodId::AsyncEasgd => crate::shared::async_easgd,
        MethodId::AsyncMeasgd => crate::shared::async_measgd,
        MethodId::HogwildEasgd => crate::hogwild::hogwild_easgd,
        MethodId::SyncEasgd => crate::shared::sync_easgd_shared,
    };
    run(proto, train, test, cfg)
}

/// Runs a method and its Figure 6 counterpart under identical settings;
/// returns `(ours, counterpart)`. `None` for the existing methods, which
/// have no counterpart.
pub fn run_comparison(
    method: MethodId,
    proto: &Network,
    train: &Dataset,
    test: &Dataset,
    cfg: &TrainConfig,
) -> Option<(RunResult, RunResult)> {
    let counterpart = method.counterpart()?;
    Some((
        run_method(method, proto, train, test, cfg),
        run_method(counterpart, proto, train, test, cfg),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use easgd_data::SyntheticSpec;
    use easgd_nn::models::lenet_tiny;

    #[test]
    fn dispatch_covers_all_methods_with_matching_names() {
        let task = SyntheticSpec::mnist_small().task(121);
        let (train, test) = task.train_test(200, 80, 122);
        let net = lenet_tiny(123);
        let cfg = TrainConfig::figure6(5).with_eta(0.02);
        for m in MethodId::ALL {
            let r = run_method(m, &net, &train, &test, &cfg);
            assert_eq!(r.method, m.name(), "dispatch mismatch for {m:?}");
            assert!(r.final_loss.is_finite(), "{m:?} diverged instantly");
            // Every trainer completes the task end-to-end and populates
            // the engine's trace fields.
            assert_eq!(r.iterations, 5);
            assert_ne!(r.center_hash, 0, "{m:?} left the center unfingerprinted");
            assert!(!r.loss_trace.is_empty(), "{m:?} produced no loss trace");
        }
    }

    #[test]
    fn comparison_pairs_match_lineage() {
        let task = SyntheticSpec::mnist_small().task(131);
        let (train, test) = task.train_test(200, 80, 132);
        let net = lenet_tiny(133);
        let cfg = TrainConfig::figure6(5).with_eta(0.02);
        let (ours, theirs) =
            run_comparison(MethodId::HogwildEasgd, &net, &train, &test, &cfg).unwrap();
        assert_eq!(ours.method, "Hogwild EASGD");
        assert_eq!(theirs.method, "Hogwild SGD");
        assert!(run_comparison(MethodId::AsyncSgd, &net, &train, &test, &cfg).is_none());
    }
}
