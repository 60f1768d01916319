//! A [`BatchRunner`] over the simulated GPU, closing the loop with the
//! management-plane profiler: upload a model, profile it on a sim GPU, get
//! back the batching profile the scheduler consumes.

use nexus_profile::{BatchRunner, BatchingProfile, Micros};

use crate::gpu::{ResidentKey, SimGpu};

/// Drives profiling batches on a [`SimGpu`].
///
/// The runner owns a "ground-truth" profile (the simulator's model of the
/// hardware) and optionally perturbs each measurement with deterministic
/// jitter, so tests can verify the profiler recovers the truth from noisy
/// observations.
pub struct SimBatchRunner {
    gpu: SimGpu,
    truth: BatchingProfile,
    jitter_permille: u32,
    lcg_state: u64,
}

impl SimBatchRunner {
    /// Creates a runner with the model already loaded on `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit in GPU memory.
    pub fn new(mut gpu: SimGpu, truth: BatchingProfile) -> Self {
        gpu.load(
            ResidentKey(0),
            truth.memory_bytes(),
            truth.load_time(),
            Micros::ZERO,
        )
        .expect("profiling model must fit on an empty GPU");
        SimBatchRunner {
            gpu,
            truth,
            jitter_permille: 0,
            lcg_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Enables symmetric measurement jitter of up to `permille`/1000 of the
    /// true latency (deterministic: an internal LCG drives it).
    pub fn with_jitter_permille(mut self, permille: u32) -> Self {
        assert!(permille < 1_000, "jitter must stay below 100%");
        self.jitter_permille = permille;
        self
    }

    fn next_jitter(&mut self, base_us: u64) -> i64 {
        if self.jitter_permille == 0 {
            return 0;
        }
        // Deterministic LCG (Numerical Recipes constants).
        self.lcg_state = self
            .lcg_state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let span = (base_us * u64::from(self.jitter_permille) / 1_000).max(1);
        ((self.lcg_state >> 33) % (2 * span)) as i64 - span as i64
    }
}

impl BatchRunner for SimBatchRunner {
    fn run_batch(&mut self, batch: u32) -> Micros {
        let true_lat = self.truth.latency_clamped(batch);
        let jitter = self.next_jitter(true_lat.as_micros());
        let measured = (true_lat.as_micros() as i64 + jitter).max(1) as u64;
        let start = self.gpu.free_at();
        self.gpu.execute(start, Micros::from_micros(measured));
        Micros::from_micros(measured)
    }

    fn memory_bytes(&self) -> u64 {
        self.truth.memory_bytes()
    }

    fn load_cost(&self) -> Micros {
        self.truth.load_time()
    }

    fn preprocess_per_item(&self) -> Micros {
        self.truth.preprocess_per_item()
    }

    fn postprocess_per_item(&self) -> Micros {
        self.truth.postprocess_per_item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::catalog::RESNET50;
    use nexus_profile::{profile_model, ProfilerConfig, GPU_GTX1080TI};

    #[test]
    fn profiler_recovers_truth_exactly_without_jitter() {
        let truth = RESNET50.profile_1080ti();
        let mut runner = SimBatchRunner::new(SimGpu::new(GPU_GTX1080TI), truth.clone());
        let measured = profile_model(
            &mut runner,
            ProfilerConfig {
                max_batch: truth.max_batch(),
                repetitions: 3,
            },
        )
        .unwrap();
        for b in 1..=truth.max_batch() {
            assert_eq!(measured.latency(b), truth.latency(b), "b={b}");
        }
        assert_eq!(measured.memory_bytes(), truth.memory_bytes());
        assert_eq!(measured.preprocess_per_item(), truth.preprocess_per_item());
    }

    #[test]
    fn profiler_recovers_truth_approximately_under_jitter() {
        let truth = RESNET50.profile_1080ti();
        let mut runner =
            SimBatchRunner::new(SimGpu::new(GPU_GTX1080TI), truth.clone()).with_jitter_permille(50);
        let measured = profile_model(
            &mut runner,
            ProfilerConfig {
                max_batch: 32,
                repetitions: 7,
            },
        )
        .unwrap();
        for b in [1, 8, 16, 32] {
            let t = truth.latency(b).as_micros() as f64;
            let m = measured.latency(b).as_micros() as f64;
            assert!((m - t).abs() / t < 0.10, "b={b}: measured {m} vs truth {t}");
        }
    }

    #[test]
    fn profiling_occupies_the_gpu() {
        let truth = RESNET50.profile_1080ti();
        let mut runner = SimBatchRunner::new(SimGpu::new(GPU_GTX1080TI), truth);
        let _ = profile_model(
            &mut runner,
            ProfilerConfig {
                max_batch: 8,
                repetitions: 2,
            },
        )
        .unwrap();
        let gpu = &runner.gpu;
        assert_eq!(gpu.executions(), 16);
        assert!(gpu.busy_total() > Micros::ZERO);
    }
}
