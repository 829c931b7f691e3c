//! Device compute-rate models.
//!
//! Converts model flop counts (from `easgd-nn::spec`) into simulated
//! seconds. Peak rates come from the paper (§1: KNL = 6 Tflops single
//! precision) and vendor specs; `dnn_efficiency` is the fraction of peak a
//! well-tuned DNN framework sustains on conv/GEMM-heavy work — the
//! absolute value shifts all times equally and cancels out of every ratio
//! the experiments report.

/// A device's sustained compute rate.
#[derive(Clone, Debug, PartialEq)]
pub struct ComputeModel {
    /// Device name.
    pub name: String,
    /// Peak single-precision flops/second.
    pub peak_flops: f64,
    /// Sustained fraction of peak on DNN workloads, in `(0, 1]`.
    pub dnn_efficiency: f64,
}

impl ComputeModel {
    /// A custom device.
    pub fn new(name: impl Into<String>, peak_flops: f64, dnn_efficiency: f64) -> Self {
        assert!(peak_flops > 0.0, "peak must be positive");
        assert!(
            dnn_efficiency > 0.0 && dnn_efficiency <= 1.0,
            "efficiency must be in (0,1]"
        );
        Self {
            name: name.into(),
            peak_flops,
            dnn_efficiency,
        }
    }

    /// One GPU of an Nvidia Tesla K80 board (≈ 4.1 Tflops SP with boost,
    /// half the board).
    pub fn k80_half() -> Self {
        Self::new("Nvidia Tesla K80 (1 GPU)", 4.1e12, 0.45)
    }

    /// Nvidia Tesla M40: 7 Tflops SP peak.
    pub fn m40() -> Self {
        Self::new("Nvidia Tesla M40", 7.0e12, 0.45)
    }

    /// Sustained flops/second.
    pub fn sustained_flops(&self) -> f64 {
        self.peak_flops * self.dnn_efficiency
    }

    /// Seconds to execute `flops` floating-point operations.
    pub fn time(&self, flops: f64) -> f64 {
        assert!(flops >= 0.0, "negative flops");
        flops / self.sustained_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_linear_in_flops() {
        let m = ComputeModel::m40();
        assert!((m.time(2.0e12) - 2.0 * m.time(1.0e12)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn rejects_zero_efficiency() {
        let _ = ComputeModel::new("bad", 1e12, 0.0);
    }
}
