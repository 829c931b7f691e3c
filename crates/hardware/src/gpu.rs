//! GPU device descriptors.
//!
//! §6.1.2's placement argument is a capacity argument: ImageNet (240 GB)
//! cannot live on a 12 GB GPU, but VGG-19's 575 MB of weights can — so
//! weights move to the GPU and only batch data crosses PCIe.

use crate::compute::ComputeModel;
use crate::net::AlphaBeta;

/// A GPU with its on-board memory and host link.
#[derive(Clone, Debug)]
pub struct GpuDevice {
    /// Device name.
    pub name: String,
    /// On-board memory in bytes.
    pub memory_bytes: usize,
    /// Compute model.
    pub compute: ComputeModel,
    /// Host ↔ device link (PCIe).
    pub host_link: AlphaBeta,
}

impl GpuDevice {
    /// One GPU of a Tesla K80 board: 12 GB GDDR5 (§1 quotes "12 GB GDDR5
    /// on one Nvidia K80 GPU").
    pub fn k80_half() -> Self {
        Self {
            name: "Tesla K80 (1 GPU)".to_string(),
            memory_bytes: 12 * (1 << 30),
            compute: ComputeModel::k80_half(),
            host_link: AlphaBeta::pcie_gen3_x16(),
        }
    }

    /// Tesla M40: 12 GB GDDR5.
    pub fn m40() -> Self {
        Self {
            name: "Tesla M40".to_string(),
            memory_bytes: 12 * (1 << 30),
            compute: ComputeModel::m40(),
            host_link: AlphaBeta::pcie_gen3_x16(),
        }
    }

    /// Can a resident set of `bytes` live on the device?
    pub fn fits(&self, bytes: usize) -> bool {
        bytes <= self.memory_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_weights_fit_imagenet_does_not() {
        // §6.1.2: weights (≤ 1 GB) on GPU, 240 GB dataset stays on host.
        let gpu = GpuDevice::k80_half();
        let vgg19_bytes = 575 * 1024 * 1024;
        let imagenet_bytes = 240usize * (1 << 30);
        assert!(gpu.fits(vgg19_bytes));
        assert!(!gpu.fits(imagenet_bytes));
    }

    #[test]
    fn weight_transfer_dwarfs_batch_transfer() {
        // §6.1.1: CPU↔GPU *parameter* traffic (249 MB AlexNet) costs far
        // more than *data* traffic (768 KB per 64-sample CIFAR batch) —
        // the 86 % vs 1 % observation.
        let gpu = GpuDevice::k80_half();
        let weights = 249_000_000;
        let batch = 64 * 32 * 32 * 3 * 4;
        assert!(gpu.host_link.time(weights) > 50.0 * gpu.host_link.time(batch));
    }
}
