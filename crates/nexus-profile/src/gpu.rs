//! Catalog of accelerator device types.
//!
//! The paper evaluates on NVIDIA GTX 1080Ti (16-GPU case studies), K80
//! (100-GPU deployment), and quotes V100 / Cloud TPU peak numbers in Table 1.
//! Each device here carries the constants the cost model (Table 1) and the
//! simulator need: peak compute, an *effective* sustained throughput used to
//! derive execution latencies, memory capacity, and an hourly price.

use serde::{Deserialize, Serialize};

/// A class of accelerator (or CPU) with fixed performance characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceType {
    /// Human-readable name, e.g. `"NVIDIA GTX 1080Ti"`.
    pub name: &'static str,
    /// Peak compute in TFLOPS (the marketing number Table 1 quotes).
    pub peak_tflops: f64,
    /// Sustained effective compute in TFLOPS for DNN inference; used to
    /// derive per-model marginal batch cost from the model's FLOPs.
    pub effective_tflops: f64,
    /// Device memory available for model weights and activations.
    pub memory_bytes: u64,
    /// On-demand hourly price in USD of the cloud instance hosting one
    /// device (Table 1 footnote: c5.large, p2.xlarge, p3.2xlarge, Cloud TPU).
    pub hourly_price_usd: f64,
}

impl DeviceType {
    /// Cost in USD of occupying this device for `seconds`.
    fn cost_for_seconds(&self, seconds: f64) -> f64 {
        self.hourly_price_usd * seconds / 3_600.0
    }

    /// Lower bound on the cost of `invocations` runs of a model with
    /// `gflops` FLOPs per inference, assuming execution at peak speed
    /// (Table 1's methodology).
    pub(crate) fn peak_cost_per_invocations(&self, gflops: f64, invocations: u64) -> f64 {
        let seconds = invocations as f64 * gflops / (self.peak_tflops * 1_000.0);
        self.cost_for_seconds(seconds)
    }
}

/// Intel AVX-512 CPU (AWS c5.large), the Table 1 CPU column.
pub const CPU_C5: DeviceType = DeviceType {
    name: "Intel AVX-512 (c5.large)",
    peak_tflops: 0.1,
    effective_tflops: 0.0066,
    memory_bytes: 4 * GIB,
    hourly_price_usd: 0.085,
};

/// NVIDIA K80 (AWS p2.xlarge), used in the 100-GPU deployment (§7.4).
pub const GPU_K80: DeviceType = DeviceType {
    name: "NVIDIA K80 (p2.xlarge)",
    peak_tflops: 8.7,
    effective_tflops: 0.55,
    memory_bytes: 12 * GIB,
    hourly_price_usd: 0.90,
};

/// NVIDIA GTX 1080Ti, used in the 16-GPU case studies (§7.3).
pub const GPU_GTX1080TI: DeviceType = DeviceType {
    name: "NVIDIA GTX 1080Ti",
    peak_tflops: 11.3,
    effective_tflops: 1.25,
    memory_bytes: 11 * GIB,
    hourly_price_usd: 0.60,
};

/// NVIDIA V100 (AWS p3.2xlarge), the Table 1 GPU column.
pub const GPU_V100: DeviceType = DeviceType {
    name: "NVIDIA V100 (p3.2xlarge)",
    peak_tflops: 125.0,
    effective_tflops: 4.0,
    memory_bytes: 16 * GIB,
    hourly_price_usd: 3.06,
};

/// Google Cloud TPU v2, the Table 1 TPU column.
pub const TPU_V2: DeviceType = DeviceType {
    name: "Cloud TPU v2",
    peak_tflops: 180.0,
    effective_tflops: 20.0,
    memory_bytes: 16 * GIB,
    hourly_price_usd: 4.50,
};

const GIB: u64 = 1 << 30;

/// All device types, in the order Table 1 lists their cost columns.
pub const ALL_DEVICES: [&DeviceType; 5] = [&CPU_C5, &GPU_K80, &GPU_GTX1080TI, &GPU_V100, &TPU_V2];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_cost_per_op_is_far_below_cpu() {
        // §2.1: accelerators can yield a cost advantage of up to 34× (GPU).
        let cpu_per_tflop = CPU_C5.hourly_price_usd / CPU_C5.peak_tflops;
        let gpu_per_tflop = GPU_V100.hourly_price_usd / GPU_V100.peak_tflops;
        let advantage = cpu_per_tflop / gpu_per_tflop;
        assert!(
            (30.0..40.0).contains(&advantage),
            "V100 cost advantage {advantage:.1} should be ~34x"
        );
    }

    #[test]
    fn cost_for_seconds_is_linear() {
        let one_hour = GPU_V100.cost_for_seconds(3_600.0);
        assert!((one_hour - GPU_V100.hourly_price_usd).abs() < 1e-9);
        assert!((GPU_V100.cost_for_seconds(1_800.0) - one_hour / 2.0).abs() < 1e-9);
    }

    #[test]
    fn peak_cost_scales_with_flops_and_invocations() {
        let c1 = GPU_V100.peak_cost_per_invocations(8.0, 1_000);
        let c2 = GPU_V100.peak_cost_per_invocations(16.0, 1_000);
        let c3 = GPU_V100.peak_cost_per_invocations(8.0, 2_000);
        assert!((c2 - 2.0 * c1).abs() < 1e-12);
        assert!((c3 - 2.0 * c1).abs() < 1e-12);
    }

    #[test]
    fn device_memory_fits_many_models() {
        for dev in ALL_DEVICES {
            assert!(dev.memory_bytes >= 4 * GIB, "{} too small", dev.name);
        }
    }
}
