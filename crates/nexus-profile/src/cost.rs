//! The Table 1 cost model: execution latency and lower-bound dollar cost of
//! DNN invocations across device classes.
//!
//! Table 1 of the paper lower-bounds per-invocation cost "by assuming that
//! models can be executed at peak speed on each platform": cost = (model
//! FLOPs / device peak FLOPS) × device hourly price. We reproduce that
//! methodology. Absolute dollar figures depend on 2019 spot prices; the
//! *shape* the paper draws from the table — accelerators are one to two
//! orders of magnitude cheaper per op than CPUs, and latency constraints
//! alone can force acceleration — is what the regenerated table preserves.

use serde::{Deserialize, Serialize};

use crate::catalog::{ModelSpec, TABLE1_MODELS};
use crate::gpu::{DeviceType, CPU_C5, GPU_GTX1080TI, GPU_V100, TPU_V2};

/// One row of the regenerated Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostRow {
    /// Model name.
    pub model: String,
    /// Measured CPU latency in ms (paper's measurement, carried in the
    /// catalog).
    pub cpu_latency_ms: f64,
    /// GPU batch-1 latency in ms on the case-study GPU.
    pub gpu_latency_ms: f64,
    /// Peak-speed cost of 1000 invocations on the CPU, USD.
    pub cpu_cost_per_1k: f64,
    /// Peak-speed cost of 1000 invocations on the TPU, USD.
    pub tpu_cost_per_1k: f64,
    /// Peak-speed cost of 1000 invocations on the GPU (V100), USD.
    pub gpu_cost_per_1k: f64,
}

/// Computes one cost row for `spec`.
///
/// Returns `None` if the catalog has no measured CPU latency for the model
/// (only Table 1's five models carry one).
fn cost_row(spec: &ModelSpec) -> Option<CostRow> {
    let cpu_latency_ms = spec.cpu_latency_ms?;
    Some(CostRow {
        model: spec.name.to_string(),
        cpu_latency_ms,
        gpu_latency_ms: spec.profile_on(&GPU_GTX1080TI).latency(1).as_millis_f64(),
        cpu_cost_per_1k: peak_cost(spec, &CPU_C5),
        tpu_cost_per_1k: peak_cost(spec, &TPU_V2),
        gpu_cost_per_1k: peak_cost(spec, &GPU_V100),
    })
}

/// Lower-bound cost of 1000 invocations at peak device speed.
fn peak_cost(spec: &ModelSpec, device: &DeviceType) -> f64 {
    device.peak_cost_per_invocations(spec.gflops, 1_000)
}

/// Regenerates all rows of Table 1 in the paper's order.
pub fn table1() -> Vec<CostRow> {
    TABLE1_MODELS.iter().filter_map(|m| cost_row(m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{LENET5, RESNET50, SSD};

    #[test]
    fn table1_has_five_rows_in_order() {
        let rows = table1();
        let names: Vec<_> = rows.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(
            names,
            ["lenet5", "vgg7", "resnet50", "inception4", "darknet53"]
        );
    }

    #[test]
    fn accelerators_are_cheaper_than_cpus() {
        for row in table1() {
            assert!(
                row.gpu_cost_per_1k < row.cpu_cost_per_1k,
                "{}: GPU should be cheaper",
                row.model
            );
            assert!(
                row.tpu_cost_per_1k < row.cpu_cost_per_1k,
                "{}: TPU should be cheaper",
                row.model
            );
        }
    }

    #[test]
    fn gpu_cost_advantage_is_about_34x() {
        // §2.1: "accelerators can yield a cost advantage of up to 9× (for
        // TPUs) and 34× (for GPUs)" — the peak-cost ratio is price/TFLOPS
        // ratio, identical for every model.
        let row = cost_row(&RESNET50).unwrap();
        let advantage = row.cpu_cost_per_1k / row.gpu_cost_per_1k;
        assert!(
            (30.0..40.0).contains(&advantage),
            "GPU advantage {advantage:.1}"
        );
    }

    #[test]
    fn cpu_latency_violates_live_slos_for_big_models() {
        // Table 1's point: ResNet-class models take >1 s on CPU, far beyond
        // the tens-to-hundreds of ms live SLOs of §2.
        let row = cost_row(&RESNET50).unwrap();
        assert!(row.cpu_latency_ms > 1_000.0);
        assert!(row.gpu_latency_ms < 10.0);
    }

    #[test]
    fn larger_models_cost_more() {
        let lenet = cost_row(&LENET5).unwrap();
        let resnet = cost_row(&RESNET50).unwrap();
        assert!(resnet.cpu_cost_per_1k > lenet.cpu_cost_per_1k * 100.0);
    }

    #[test]
    fn no_row_for_models_without_cpu_measurement() {
        assert!(cost_row(&SSD).is_none());
    }
}
