//! α-β network links (Table 2 of the paper).
//!
//! Sending an `n`-byte message costs `α + β·n` seconds: `α` is latency,
//! `β` the reciprocal bandwidth. The paper's point (§5.2): `β ≪ α` per
//! byte, so message *count* dominates and packing layers into one message
//! wins.

/// One α-β link.
#[derive(Clone, Debug, PartialEq)]
pub struct AlphaBeta {
    /// Human-readable name, e.g. `"Mellanox 56Gb/s FDR IB"`.
    pub name: String,
    /// Latency per message, seconds.
    pub alpha_s: f64,
    /// Seconds per byte (reciprocal bandwidth).
    pub beta_s_per_byte: f64,
}

impl AlphaBeta {
    /// A custom link.
    pub fn new(name: impl Into<String>, alpha_s: f64, beta_s_per_byte: f64) -> Self {
        assert!(alpha_s >= 0.0 && beta_s_per_byte >= 0.0, "negative cost");
        Self {
            name: name.into(),
            alpha_s,
            beta_s_per_byte,
        }
    }

    /// Table 2 row 1: Mellanox 56 Gb/s FDR InfiniBand
    /// (α = 0.7 µs, β = 0.2 ns/byte).
    pub fn fdr_infiniband() -> Self {
        Self::new("Mellanox 56Gb/s FDR IB", 0.7e-6, 0.2e-9)
    }

    /// Table 2 row 2: Intel 40 Gb/s QDR InfiniBand
    /// (α = 1.2 µs, β = 0.3 ns/byte).
    pub fn qdr_infiniband() -> Self {
        Self::new("Intel 40Gb/s QDR IB", 1.2e-6, 0.3e-9)
    }

    /// Table 2 row 3: Intel 10 GbE NetEffect NE020
    /// (α = 7.2 µs, β = 0.9 ns/byte).
    pub fn ten_gbe() -> Self {
        Self::new("Intel 10GbE NetEffect NE020", 7.2e-6, 0.9e-9)
    }

    /// All of Table 2, in row order.
    pub fn table2() -> Vec<Self> {
        vec![
            Self::fdr_infiniband(),
            Self::qdr_infiniband(),
            Self::ten_gbe(),
        ]
    }

    /// PCIe 3.0 ×16 through a switch (the multi-GPU node fabric, §10.4):
    /// ~12 GB/s effective, a few µs of driver + switch latency per
    /// transfer.
    pub fn pcie_gen3_x16() -> Self {
        Self::new("PCIe 3.0 x16 switch", 4.0e-6, 1.0 / 12.0e9)
    }

    /// Transfer time of an `n`-byte message.
    pub fn time(&self, bytes: usize) -> f64 {
        self.alpha_s + self.beta_s_per_byte * bytes as f64
    }

    /// Effective bandwidth in bytes/second (∞-message asymptote).
    pub fn bandwidth(&self) -> f64 {
        if self.beta_s_per_byte == 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.beta_s_per_byte
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_match_paper() {
        let t = AlphaBeta::table2();
        assert_eq!(t.len(), 3);
        assert!((t[0].alpha_s - 0.7e-6).abs() < 1e-12);
        assert!((t[0].beta_s_per_byte - 0.2e-9).abs() < 1e-15);
        assert!((t[1].alpha_s - 1.2e-6).abs() < 1e-12);
        assert!((t[2].beta_s_per_byte - 0.9e-9).abs() < 1e-15);
    }

    #[test]
    fn time_is_affine_in_bytes() {
        let l = AlphaBeta::fdr_infiniband();
        let t0 = l.time(0);
        let t1 = l.time(1_000_000);
        assert!((t0 - 0.7e-6).abs() < 1e-12);
        assert!((t1 - t0 - 0.2e-9 * 1e6).abs() < 1e-12);
    }

    #[test]
    fn beta_much_smaller_than_alpha_for_small_messages() {
        // The §5.2 argument: for a 1 KB message latency dominates.
        for l in AlphaBeta::table2() {
            assert!(l.alpha_s > l.beta_s_per_byte * 1024.0);
        }
    }

    #[test]
    fn one_big_message_beats_many_small_ones() {
        // Figure 10's mechanism, stated directly on the model.
        let l = AlphaBeta::qdr_infiniband();
        let total = 10_000_000;
        let packed = l.time(total);
        let split: f64 = (0..20).map(|_| l.time(total / 20)).sum();
        assert!(packed < split);
        assert!((split - packed - 19.0 * l.alpha_s).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_inverts_beta() {
        let l = AlphaBeta::ten_gbe();
        assert!((l.bandwidth() - 1.0 / 0.9e-9).abs() / l.bandwidth() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_costs() {
        let _ = AlphaBeta::new("bad", -1.0, 0.0);
    }
}
