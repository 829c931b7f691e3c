//! Calibrated per-phase costs for the simulated multi-GPU node
//! (Table 3 / Figure 11).
//!
//! §6.1.1 decomposes an EASGD iteration into eight parts; these are the
//! per-iteration unit costs the simulated schedules charge. Two CPU↔GPU
//! paths are modelled, matching the systems story of the paper:
//!
//! * the **unpacked** path — one transfer per layer allocation, pageable
//!   memory, high per-transfer overhead. This is what pre-§5.2
//!   frameworks (and Original EASGD) pay.
//! * the **packed** path — one contiguous pinned transfer for the whole
//!   model (the §5.2 layout), which the Sync EASGD implementations use.
//!
//! The default numbers are calibrated against the paper's own Table 3
//! measurements (LeNet/MNIST, batch 64, 4 GPUs on a PCIe switch):
//! forward+backward ≈ 6 ms per iteration (the paper: 30 s for 5000
//! serialized iterations), effective unpinned PCIe ≈ 1 GB/s with ≈ 120 µs
//! per-transfer overhead, pinned path ≈ 8 GB/s. Absolute values shift all
//! rows together; the *ratios* (87 % → 14 % comm, ≈ 5× speedup) emerge
//! from the schedules.

use easgd_hardware::net::AlphaBeta;
use easgd_nn::spec::ModelSpec;

/// Per-phase unit costs of one simulated device iteration.
#[derive(Clone, Debug)]
pub struct SimCosts {
    /// CPU↔GPU link for per-layer (unpacked, pageable) transfers.
    pub cpu_gpu_unpacked: AlphaBeta,
    /// CPU↔GPU link for packed pinned transfers.
    pub cpu_gpu_packed: AlphaBeta,
    /// GPU↔GPU peer link (through the PCIe switch).
    pub gpu_gpu: AlphaBeta,
    /// Model weight size in bytes.
    pub weight_bytes: usize,
    /// Number of separate parameter allocations (per-layer transfers in
    /// the unpacked path).
    pub weight_segments: usize,
    /// One training batch in bytes.
    pub data_bytes: usize,
    /// Forward + backward propagation seconds per worker iteration.
    pub fwd_bwd: f64,
    /// Worker-side Equation (1) update seconds.
    pub gpu_update: f64,
    /// Master-side Equation (2) update seconds.
    pub cpu_update: f64,
    /// Worker compute heterogeneity: each worker step costs
    /// `fwd_bwd × (1 + compute_jitter·u)` with `u ~ U[0,1)`. 0 (the
    /// default) models the paper's homogeneous GPUs; raise it to study
    /// FCFS vs round-robin under stragglers.
    pub compute_jitter: f64,
}

impl SimCosts {
    /// The Table 3 workload: LeNet (≈ 431 k parameters ≈ 1.7 MB) on
    /// MNIST, batch 64, Tesla-class GPUs behind a PCIe switch, with the
    /// calibration described in the module docs.
    pub fn mnist_lenet_4gpu() -> Self {
        let spec = easgd_nn::spec::spec_lenet();
        Self {
            cpu_gpu_unpacked: AlphaBeta::new("PCIe pageable", 120e-6, 1.0e-9),
            cpu_gpu_packed: AlphaBeta::new("PCIe pinned", 80e-6, 1.0 / 8.0e9),
            gpu_gpu: AlphaBeta::new("PCIe peer", 80e-6, 1.0 / 8.0e9),
            weight_bytes: spec.weight_bytes(),
            weight_segments: spec.layers.len() * 2,
            data_bytes: 64 * 28 * 28 * 4,
            fwd_bwd: 6.0e-3,
            gpu_update: 0.02e-3,
            cpu_update: 0.73e-3,
            compute_jitter: 0.0,
        }
    }

    /// Costs derived from a model spec and batch size with the same link
    /// calibration (for non-LeNet workloads, e.g. the Figure 10 AlexNet
    /// run). `fwd_bwd` comes from a sustained-rate estimate.
    pub fn derive(
        spec: &ModelSpec,
        sample_bytes: usize,
        batch: usize,
        sustained_flops: f64,
    ) -> Self {
        Self {
            cpu_gpu_unpacked: AlphaBeta::new("PCIe pageable", 120e-6, 1.0e-9),
            cpu_gpu_packed: AlphaBeta::new("PCIe pinned", 80e-6, 1.0 / 8.0e9),
            gpu_gpu: AlphaBeta::new("PCIe peer", 80e-6, 1.0 / 8.0e9),
            weight_bytes: spec.weight_bytes(),
            weight_segments: spec.layers.len() * 2,
            data_bytes: sample_bytes * batch,
            fwd_bwd: spec.flops_train() * batch as f64 / sustained_flops,
            // Updates stream 3×|W| bytes; ~200 GB/s on-device, ~7 GB/s on
            // the (single-threaded, paper-era) host loop.
            gpu_update: 3.0 * spec.weight_bytes() as f64 / 200.0e9,
            cpu_update: 3.0 * spec.weight_bytes() as f64 / 7.0e9,
            compute_jitter: 0.0,
        }
    }

    /// One unpacked weight exchange in one direction: one transfer per
    /// layer allocation.
    pub fn unpacked_weight_time(&self) -> f64 {
        self.weight_segments as f64 * self.cpu_gpu_unpacked.alpha_s
            + self.weight_bytes as f64 * self.cpu_gpu_unpacked.beta_s_per_byte
    }

    /// One batch copy CPU → GPU.
    pub fn data_time(&self) -> f64 {
        self.cpu_gpu_unpacked.time(self.data_bytes)
    }

    /// These costs for a run that trains a `proxy_bytes` stand-in for the
    /// `weight_bytes` model: the two parameter links' β is multiplied by
    /// `weight_bytes / proxy_bytes`, so every executed message of the
    /// proxy's arena (or of a segment of it) takes the time the paper's
    /// model would; α is per message and stays. The identity when the
    /// trained network already has `weight_bytes`.
    pub fn for_proxy(&self, proxy_bytes: usize) -> Self {
        assert!(proxy_bytes > 0, "a proxy network has parameters");
        let scale = self.weight_bytes as f64 / proxy_bytes as f64;
        let mut costs = self.clone();
        costs.cpu_gpu_packed.beta_s_per_byte *= scale;
        costs.gpu_gpu.beta_s_per_byte *= scale;
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_calibration_is_self_consistent() {
        let c = SimCosts::mnist_lenet_4gpu();
        // LeNet ≈ 1.72 MB of weights, 8 parameter allocations.
        assert!((1_600_000..1_900_000).contains(&c.weight_bytes));
        assert_eq!(c.weight_segments, 8);
        // Unpacked exchange dominated by per-transfer overhead + 1 GB/s.
        let t = c.unpacked_weight_time();
        assert!((2.0e-3..3.5e-3).contains(&t), "unpacked = {t}");
        // Packed pinned path is several times faster.
        assert!(c.cpu_gpu_packed.time(c.weight_bytes) < t / 5.0);
    }

    #[test]
    fn packing_saves_the_latency_terms() {
        let c = SimCosts::mnist_lenet_4gpu();
        let saving = c.unpacked_weight_time()
            - (c.weight_segments as f64 * 0.0
                + c.weight_bytes as f64 * c.cpu_gpu_unpacked.beta_s_per_byte
                + c.cpu_gpu_unpacked.alpha_s);
        // Exactly (segments − 1) α of pure latency disappears, plus the
        // bandwidth uplift from pinning.
        assert!((saving - 7.0 * c.cpu_gpu_unpacked.alpha_s).abs() < 1e-12);
    }

    #[test]
    fn derive_scales_with_batch() {
        let spec = easgd_nn::spec::spec_lenet();
        let a = SimCosts::derive(&spec, 28 * 28 * 4, 64, 1.0e12);
        let b = SimCosts::derive(&spec, 28 * 28 * 4, 128, 1.0e12);
        assert!((b.fwd_bwd / a.fwd_bwd - 2.0).abs() < 1e-9);
        assert_eq!(b.data_bytes, 2 * a.data_bytes);
    }

    #[test]
    fn for_proxy_prices_the_proxy_arena_as_the_paper_model() {
        let c = SimCosts::mnist_lenet_4gpu();
        let proxy_bytes = c.weight_bytes / 37;
        let p = c.for_proxy(proxy_bytes);
        for (scaled, link) in [
            (&p.cpu_gpu_packed, &c.cpu_gpu_packed),
            (&p.gpu_gpu, &c.gpu_gpu),
        ] {
            assert_eq!(scaled.alpha_s, link.alpha_s);
            let (got, want) = (scaled.time(proxy_bytes), link.time(c.weight_bytes));
            assert!((got - want).abs() < 1e-9 * want, "{got} vs {want}");
        }
        // The unpacked path and the compute costs are not the proxy's.
        assert_eq!(p.unpacked_weight_time(), c.unpacked_weight_time());
        assert_eq!(p.fwd_bwd, c.fwd_bwd);
        // Exactly the identity at paper scale.
        let same = c.for_proxy(c.weight_bytes);
        assert_eq!(same.gpu_gpu, c.gpu_gpu);
        assert_eq!(same.cpu_gpu_packed, c.cpu_gpu_packed);
    }
}
