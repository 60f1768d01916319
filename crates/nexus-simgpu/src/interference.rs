//! Interference model for uncoordinated GPU sharing.
//!
//! §6.3 "GPU Multiplexing": when multiple models issue kernels to a GPU
//! independently (separate processes/containers, as in Clipper, or parallel
//! streams, as in "Nexus-parallel"), the GPU runtime interleaves their
//! kernels FCFS. Each model then effectively time-shares the device *and*
//! pays an interference penalty (cache/DMA contention, suboptimal kernel
//! occupancy), which "increases the execution latency of both models and
//! makes it hard to predict".
//!
//! The model here: with `k` concurrently-executing models, one batch that
//! takes `ℓ(b)` in isolation takes `ℓ(b) · k · (1 + δ·(k−1))`. The `k`
//! factor is fair time-sharing; `δ` is the per-peer interference overhead.
//! Aggregate device throughput therefore degrades by `(1 + δ·(k−1))`, while
//! *latency* degrades by the full factor — which is what forces
//! uncoordinated systems into small batches under tight SLOs (Fig. 14).

use serde::{Deserialize, Serialize};

use nexus_profile::{repair_table, BatchingProfile, Micros};

/// Interference parameters for uncoordinated sharing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Fractional latency overhead added per concurrent peer (δ).
    pub per_peer_overhead: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        // Calibrated so that Fig. 14's relative ordering reproduces:
        // measured slowdowns for co-located DNNs are commonly 15–40% per
        // peer beyond fair sharing.
        InterferenceModel {
            per_peer_overhead: 0.25,
        }
    }
}

impl InterferenceModel {
    /// Latency stretch factor when `concurrent` models execute at once.
    pub fn slowdown(&self, concurrent: usize) -> f64 {
        if concurrent <= 1 {
            1.0
        } else {
            let k = concurrent as f64;
            k * (1.0 + self.per_peer_overhead * (k - 1.0))
        }
    }

    /// Produces the batching profile a model *observes* when sharing the
    /// GPU with `concurrent − 1` uncoordinated peers.
    pub fn stretched_profile(
        &self,
        profile: &BatchingProfile,
        concurrent: usize,
    ) -> BatchingProfile {
        let factor = self.slowdown(concurrent);
        let mut lat: Vec<Micros> = (1..=profile.max_batch())
            .map(|b| profile.latency(b).scale(factor))
            .collect();
        repair_table(&mut lat);
        BatchingProfile::new(lat)
            .expect("scaled profile stays valid")
            .with_preprocess(profile.preprocess_per_item())
            .with_postprocess(profile.postprocess_per_item())
            .with_memory_bytes(profile.memory_bytes())
            .with_load_time(profile.load_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::catalog::INCEPTION3;

    #[test]
    fn single_model_sees_no_slowdown() {
        let m = InterferenceModel::default();
        assert_eq!(m.slowdown(0), 1.0);
        assert_eq!(m.slowdown(1), 1.0);
    }

    #[test]
    fn slowdown_grows_superlinearly() {
        let m = InterferenceModel::default();
        assert!(m.slowdown(2) > 2.0);
        assert!(m.slowdown(3) > m.slowdown(2) * 1.4);
        // Time-sharing factor dominates: k models are at least k× slower.
        for k in 2..=8 {
            assert!(m.slowdown(k) >= k as f64);
        }
    }

    #[test]
    fn stretched_profile_scales_latency() {
        let p = INCEPTION3.profile_1080ti();
        let m = InterferenceModel::default();
        let s = m.stretched_profile(&p, 2);
        let factor = m.slowdown(2);
        let got = s.latency(8).as_micros() as f64;
        let want = p.latency(8).as_micros() as f64 * factor;
        assert!((got - want).abs() / want < 0.01);
        // Throughput at equal batch drops by the same factor.
        assert!(s.throughput(8) < p.throughput(8) / 2.0);
    }

    #[test]
    fn stretched_profile_preserves_metadata() {
        let p = INCEPTION3.profile_1080ti();
        let s = InterferenceModel::default().stretched_profile(&p, 3);
        assert_eq!(s.preprocess_per_item(), p.preprocess_per_item());
        assert_eq!(s.memory_bytes(), p.memory_bytes());
        assert_eq!(s.max_batch(), p.max_batch());
    }

    #[test]
    fn interference_shrinks_slo_feasible_batch() {
        // The mechanism behind Fig. 14: under a 100 ms SLO, sharing forces
        // smaller batches.
        let p = INCEPTION3.profile_1080ti();
        let slo = Micros::from_millis(100);
        let alone = p.max_batch_for_slo(slo);
        let shared = InterferenceModel::default()
            .stretched_profile(&p, 3)
            .max_batch_for_slo(slo);
        assert!(
            shared * 3 < alone,
            "shared batch {shared} should be far below exclusive {alone}"
        );
    }
}
