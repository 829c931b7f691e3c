//! Pinned service-time model for deterministic latency accounting.

/// Modeled wall time of one dispatched inference batch on a replica
/// server: `step(B) = fixed_us + B · per_sample_us`.
///
/// This is the serving twin of the paper's α-β communication model
/// (§5.2): `fixed_us` is the per-dispatch latency term α — kernel
/// launches (one per layer on the paper's GPU-era stack), batcher
/// hand-off, response framing — paid once per batch regardless of size;
/// `per_sample_us` is the bandwidth-like term β, the per-sample forward
/// flops divided by the device's sustained flop rate (derivable from
/// `easgd-hardware`'s `ComputeModel`). Micro-batching wins exactly when
/// α ≳ β: QPS at cap B is `B / step(B)`, so
/// `QPS(8)/QPS(1) = 8·(α+β)/(α+8β) ≥ 3  ⇔  α ≥ 3.2·β`.
///
/// The model is *pinned* in `BENCH_serve.json` next to the numbers
/// computed under it, so every percentile in the file is reproducible
/// bit-for-bit from the seeds alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceModel {
    /// Fixed per-dispatch cost α in microseconds.
    pub fixed_us: f64,
    /// Per-sample forward cost β in microseconds.
    pub per_sample_us: f64,
}

impl ServiceModel {
    /// A model with the given α (µs/dispatch) and β (µs/sample).
    ///
    /// # Panics
    /// Panics unless `fixed_us ≥ 0` and `per_sample_us > 0`.
    pub fn new(fixed_us: f64, per_sample_us: f64) -> Self {
        assert!(fixed_us >= 0.0, "negative fixed cost");
        assert!(per_sample_us > 0.0, "per-sample cost must be positive");
        Self {
            fixed_us,
            per_sample_us,
        }
    }

    /// Modeled service time of a batch of `batch` samples, in µs.
    ///
    /// # Panics
    /// Panics if `batch == 0` (ragged dispatch never runs empty batches).
    pub fn step_us(&self, batch: usize) -> f64 {
        assert!(batch > 0, "empty batch has no service time");
        self.fixed_us + batch as f64 * self.per_sample_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_is_affine_in_batch() {
        let m = ServiceModel::new(80.0, 5.0);
        assert_eq!(m.step_us(1), 85.0);
        assert_eq!(m.step_us(8), 120.0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn zero_batch_rejected() {
        let _ = ServiceModel::new(1.0, 1.0).step_us(0);
    }
}
