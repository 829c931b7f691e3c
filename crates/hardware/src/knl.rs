//! The Intel Knights Landing chip model (§2.1, §6.2).
//!
//! What the Figure 12 experiment reads from the hardware, and nothing
//! else: the core count a partition divides, the MCDRAM capacity rule
//! (“the fast memory should be able to handle P copies of weight and P
//! copies of data”, §6.2) with MCDRAM addressable in flat mode, and the
//! bandwidth cliff between MCDRAM (475 GB/s measured) and DDR4 (90 GB/s)
//! that a spilled working set pays.

/// A Knights Landing chip.
#[derive(Clone, Debug)]
pub struct KnlChip {
    /// Core count (68 on the paper's Cori nodes; 72 exists).
    pub cores: usize,
    /// MCDRAM capacity in bytes (16 GB), all of it addressable (flat
    /// mode).
    pub mcdram_bytes: usize,
    /// Measured MCDRAM STREAM bandwidth, bytes/s (475 GB/s, §2.1).
    pub mcdram_bw: f64,
    /// Measured DDR4 bandwidth, bytes/s (90 GB/s, §2.1).
    pub ddr_bw: f64,
}

impl Default for KnlChip {
    fn default() -> Self {
        Self::cori_node()
    }
}

impl KnlChip {
    /// The paper's Cori KNL node: Xeon Phi 7250, 68 cores @ 1.4 GHz.
    pub fn cori_node() -> Self {
        Self {
            cores: 68,
            mcdram_bytes: 16 * (1 << 30),
            mcdram_bw: 475.0e9,
            ddr_bw: 90.0e9,
        }
    }

    /// The §6.2 capacity rule: whether `p` copies of (weights + data
    /// shard) fit in MCDRAM.
    ///
    /// “The limitation of this method is that the fast memory … should be
    /// able to handle P copies of weight and P copies of data.”
    pub fn fits_copies(&self, p: usize, weight_bytes: usize, data_bytes: usize) -> bool {
        p.saturating_mul(weight_bytes.saturating_add(data_bytes)) <= self.mcdram_bytes
    }

    /// Cores available to each of `p` partitions (§6.2 divides the chip
    /// evenly).
    pub fn cores_per_partition(&self, p: usize) -> usize {
        assert!(p > 0, "partition count must be positive");
        self.cores / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cori_node_matches_section_2_1() {
        let k = KnlChip::cori_node();
        assert_eq!(k.cores, 68);
        assert_eq!(k.mcdram_bytes, 16 * (1 << 30));
        assert!((k.mcdram_bw - 475.0e9).abs() < 1.0);
        assert!((k.ddr_bw - 90.0e9).abs() < 1.0);
    }

    #[test]
    fn figure_12_capacity_rule() {
        // §6.2: AlexNet = 249 MB weights, one CIFAR copy = 687 MB →
        // MCDRAM (16 GB) holds 16 copies (16·936 MB ≈ 14.6 GB) but not 32
        // (29.9 GB).
        let k = KnlChip::cori_node();
        let weights = 249 * 1_000_000;
        let data = 687 * 1_000_000;
        assert!(k.fits_copies(16, weights, data));
        assert!(!k.fits_copies(32, weights, data));
    }

    #[test]
    fn one_oversized_copy_does_not_fit() {
        // A 20 GB working set can't even hold one copy in MCDRAM.
        let k = KnlChip::cori_node();
        assert!(!k.fits_copies(1, 20 * (1 << 30), 0));
    }

    #[test]
    fn cores_split_evenly() {
        let k = KnlChip::cori_node();
        assert_eq!(k.cores_per_partition(4), 17);
        assert_eq!(k.cores_per_partition(16), 4);
    }
}
