//! Batching profiles: how a model's batched execution latency scales with
//! batch size.
//!
//! The paper (§2.2, Eq. 1) observes that batched execution latency is well
//! fit by a linear model `ℓ(b) = α·b + β`, where `β` is the fixed cost of
//! invoking the model and `α` the marginal cost per task. All of Nexus's
//! scheduling decisions consume a *batching profile*: the measured latency
//! table `ℓ(1..=B_max)`, plus CPU pre-/post-processing costs, GPU memory
//! footprint, and model load time.
//!
//! The squishy bin packing algorithm (§6.1) only assumes that per-input
//! latency `ℓ(b)/b` is non-increasing in `b` (equivalently, throughput is
//! non-decreasing); [`BatchingProfile::new`] validates that invariant.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Micros;

/// Errors produced while constructing or fitting a [`BatchingProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// The latency table was empty.
    EmptyProfile,
    /// A latency entry was zero (a batch can never execute in zero time).
    ZeroLatency {
        /// Batch size with the offending entry.
        batch: u32,
    },
    /// Latency decreased with batch size, which breaks duty-cycle math.
    DecreasingLatency {
        /// Batch size at which latency decreased relative to `batch - 1`.
        batch: u32,
    },
    /// Throughput decreased with batch size, violating the §6.1 assumption.
    DecreasingThroughput {
        /// Batch size at which `ℓ(b)/b` increased relative to `batch - 1`.
        batch: u32,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::EmptyProfile => write!(f, "batching profile has no entries"),
            ProfileError::ZeroLatency { batch } => {
                write!(f, "batching profile has zero latency at batch size {batch}")
            }
            ProfileError::DecreasingLatency { batch } => write!(
                f,
                "batch latency decreases at batch size {batch}; \
                 profiles must be non-decreasing"
            ),
            ProfileError::DecreasingThroughput { batch } => write!(
                f,
                "per-input latency increases at batch size {batch}; \
                 throughput must be non-decreasing in batch size"
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// Least-squares fit of a latency table to the paper's linear model
/// `ℓ(b) = α·b + β` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Marginal cost per task in the batch, in microseconds.
    pub alpha_us: f64,
    /// Fixed invocation cost, in microseconds.
    pub beta_us: f64,
}

impl LinearFit {
    /// Predicted latency at batch size `b`.
    pub fn latency(&self, b: u32) -> Micros {
        Micros::from_micros(
            (self.alpha_us * f64::from(b) + self.beta_us)
                .round()
                .max(0.0) as u64,
        )
    }
}

/// A model's measured batching behaviour on a particular GPU type.
///
/// Index `b` of the internal table holds `ℓ(b)`, the latency of executing one
/// batch of `b` inputs, for `b` in `1..=max_batch()`.
///
/// # Examples
///
/// ```
/// use nexus_profile::{BatchingProfile, Micros};
///
/// // Model A from Table 2 of the paper: ℓ(4)=50ms, ℓ(8)=75ms, ℓ(16)=100ms.
/// let profile = BatchingProfile::from_anchors(&[
///     (4, Micros::from_millis(50)),
///     (8, Micros::from_millis(75)),
///     (16, Micros::from_millis(100)),
/// ]);
/// assert_eq!(profile.latency(4), Micros::from_millis(50));
/// assert_eq!(profile.latency(16), Micros::from_millis(100));
/// // Largest batch whose worst-case latency 2·ℓ(b) fits a 200 ms SLO:
/// assert_eq!(profile.max_batch_for_slo(Micros::from_millis(200)), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchingProfile {
    /// `latencies[b - 1]` is the latency of a batch of `b` inputs.
    latencies: Vec<Micros>,
    /// CPU pre-processing cost per input (image decode + resize + pack).
    preprocess_per_item: Micros,
    /// CPU post-processing cost per input (unpack + serialize outputs).
    postprocess_per_item: Micros,
    /// GPU memory held while the model is resident.
    memory_bytes: u64,
    /// One-time cost of loading the model onto a GPU.
    load_time: Micros,
}

impl BatchingProfile {
    /// Builds a profile from an explicit latency table `ℓ(1..=B)`.
    ///
    /// Validates the §6.1 assumptions: latency non-decreasing and throughput
    /// (`b/ℓ(b)`) non-decreasing in batch size.
    pub fn new(latencies: Vec<Micros>) -> Result<Self, ProfileError> {
        if latencies.is_empty() {
            return Err(ProfileError::EmptyProfile);
        }
        for (i, &lat) in latencies.iter().enumerate() {
            let b = (i + 1) as u32;
            if lat == Micros::ZERO {
                return Err(ProfileError::ZeroLatency { batch: b });
            }
            if i > 0 {
                let prev = latencies[i - 1];
                if lat < prev {
                    return Err(ProfileError::DecreasingLatency { batch: b });
                }
                // Throughput non-decreasing <=> ℓ(b)/b non-increasing
                // <=> ℓ(b) · (b-1) <= ℓ(b-1) · b, in integer arithmetic.
                if lat.as_micros() * (b as u64 - 1) > prev.as_micros() * b as u64 {
                    return Err(ProfileError::DecreasingThroughput { batch: b });
                }
            }
        }
        Ok(BatchingProfile {
            latencies,
            preprocess_per_item: Micros::ZERO,
            postprocess_per_item: Micros::ZERO,
            memory_bytes: 0,
            load_time: Micros::ZERO,
        })
    }

    /// Builds a profile from the linear model `ℓ(b) = α·b + β` with both
    /// coefficients in microseconds.
    ///
    /// Rounding to integer microseconds can introduce microscopic violations
    /// of throughput monotonicity for tiny `α`; the table is repaired with
    /// [`repair_table`] before validation.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or the coefficients produce an invalid
    /// profile (e.g. both zero).
    pub fn from_linear_us(alpha_us: f64, beta_us: f64, max_batch: u32) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let fit = LinearFit { alpha_us, beta_us };
        let mut latencies: Vec<Micros> = (1..=max_batch).map(|b| fit.latency(b)).collect();
        repair_table(&mut latencies);
        BatchingProfile::new(latencies).expect("linear profile must be valid")
    }

    /// Builds a profile by piecewise-linear interpolation through measured
    /// `(batch, latency)` anchor points, the way the paper presents profiles
    /// (e.g. Table 2 lists ℓ(4), ℓ(8), ℓ(16)).
    ///
    /// Batch sizes below the first anchor extrapolate the first segment's
    /// slope; the table ends at the last anchor. The interpolated table is
    /// repaired with [`repair_table`] and validated.
    ///
    /// # Panics
    ///
    /// Panics if `anchors` is empty, not strictly increasing in batch size,
    /// or yields an invalid profile.
    pub fn from_anchors(anchors: &[(u32, Micros)]) -> Self {
        assert!(!anchors.is_empty(), "anchors must be non-empty");
        for w in anchors.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "anchor batch sizes must be strictly increasing"
            );
        }
        assert!(anchors[0].0 >= 1, "anchor batch sizes start at 1");
        let max_batch = anchors[anchors.len() - 1].0;
        let mut latencies = Vec::with_capacity(max_batch as usize);
        for b in 1..=max_batch {
            latencies.push(interpolate(anchors, b));
        }
        repair_table(&mut latencies);
        BatchingProfile::new(latencies).expect("anchored profile must be valid")
    }

    /// Builds a profile from the linear model with coefficients in
    /// milliseconds (the unit the paper reports).
    pub fn from_linear_ms(alpha_ms: f64, beta_ms: f64, max_batch: u32) -> Self {
        BatchingProfile::from_linear_us(alpha_ms * 1_000.0, beta_ms * 1_000.0, max_batch)
    }

    /// Sets the per-item CPU pre-processing cost.
    pub fn with_preprocess(mut self, per_item: Micros) -> Self {
        self.preprocess_per_item = per_item;
        self
    }

    /// Sets the per-item CPU post-processing cost.
    pub fn with_postprocess(mut self, per_item: Micros) -> Self {
        self.postprocess_per_item = per_item;
        self
    }

    /// Sets the GPU memory footprint of the loaded model.
    pub fn with_memory_bytes(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Sets the one-time model load cost.
    pub fn with_load_time(mut self, load_time: Micros) -> Self {
        self.load_time = load_time;
        self
    }

    /// The largest batch size in the profile.
    pub fn max_batch(&self) -> u32 {
        self.latencies.len() as u32
    }

    /// GPU execution latency of a batch of `b` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero or exceeds [`max_batch`](Self::max_batch).
    pub fn latency(&self, b: u32) -> Micros {
        assert!(
            b >= 1 && b <= self.max_batch(),
            "batch size {b} out of profile range 1..={}",
            self.max_batch()
        );
        self.latencies[(b - 1) as usize]
    }

    /// Like [`latency`](Self::latency) but clamps `b` into the profiled
    /// range, which is convenient for exploratory sweeps.
    pub fn latency_clamped(&self, b: u32) -> Micros {
        self.latency(b.clamp(1, self.max_batch()))
    }

    /// Per-item CPU pre-processing cost.
    pub fn preprocess_per_item(&self) -> Micros {
        self.preprocess_per_item
    }

    /// Per-item CPU post-processing cost.
    pub fn postprocess_per_item(&self) -> Micros {
        self.postprocess_per_item
    }

    /// GPU memory held while the model is resident.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// One-time cost of loading the model onto a GPU.
    pub fn load_time(&self) -> Micros {
        self.load_time
    }

    /// Throughput in requests/second when executing back-to-back batches of
    /// size `b`.
    pub fn throughput(&self, b: u32) -> f64 {
        f64::from(b) / self.latency(b).as_secs_f64()
    }

    /// Peak throughput (at the maximum profiled batch size).
    pub fn peak_throughput(&self) -> f64 {
        self.throughput(self.max_batch())
    }

    /// Derives this profile's batch-size ladder (powers of two topped by
    /// `max_batch`) with cached per-rung latencies. See
    /// [`crate::ladder::BatchLadder`].
    pub fn ladder(&self) -> crate::ladder::BatchLadder {
        crate::ladder::BatchLadder::from_profile(self)
    }

    /// Largest batch size whose single-batch latency fits within `limit`,
    /// or 0 if even a batch of one does not fit.
    pub fn max_batch_within(&self, limit: Micros) -> u32 {
        // The table is non-decreasing, so binary search for the boundary.
        let mut lo = 0u32; // ℓ(lo) <= limit (with lo = 0 as virtual zero)
        let mut hi = self.max_batch() + 1; // ℓ(hi) > limit (virtual infinity)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.latency(mid) <= limit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Largest batch size `b` with `2·ℓ(b) ≤ slo` — the §4.1/§6.1 rule for a
    /// saturated GPU, where a request that just misses one batch waits for
    /// the whole next batch. Returns 0 if no batch size is feasible.
    pub fn max_batch_for_slo(&self, slo: Micros) -> u32 {
        self.max_batch_within(Micros::from_micros(slo.as_micros() / 2))
    }

    /// Maximal throughput achievable on one GPU while meeting `slo`
    /// (the `T_i = B_i / ℓ(B_i)` of Algorithm 1), or `None` if the SLO is
    /// infeasible even at batch size 1.
    pub fn max_throughput_for_slo(&self, slo: Micros) -> Option<f64> {
        let b = self.max_batch_for_slo(slo);
        if b == 0 {
            None
        } else {
            Some(self.throughput(b))
        }
    }

    /// Least-squares fit of the latency table to `ℓ(b) = α·b + β`.
    ///
    /// The paper profiles each model empirically and notes the linear model
    /// is usually a good fit; the fit is exposed so experiments (Fig. 5/9)
    /// can sweep `α` while holding optimal throughput fixed.
    pub fn fit_linear(&self) -> LinearFit {
        let n = self.latencies.len() as f64;
        if self.latencies.len() == 1 {
            return LinearFit {
                alpha_us: 0.0,
                beta_us: self.latencies[0].as_micros() as f64,
            };
        }
        let mut sum_b = 0.0;
        let mut sum_l = 0.0;
        let mut sum_bl = 0.0;
        let mut sum_bb = 0.0;
        for (i, &lat) in self.latencies.iter().enumerate() {
            let b = (i + 1) as f64;
            let l = lat.as_micros() as f64;
            sum_b += b;
            sum_l += l;
            sum_bl += b * l;
            sum_bb += b * b;
        }
        let denom = n * sum_bb - sum_b * sum_b;
        let alpha = (n * sum_bl - sum_b * sum_l) / denom;
        let beta = (sum_l - alpha * sum_b) / n;
        LinearFit {
            alpha_us: alpha,
            beta_us: beta,
        }
    }

    /// Folds CPU pre-/post-processing into the latency table, yielding the
    /// *effective* profile a node executor experiences.
    ///
    /// With `overlap` (the paper's OL technique, §6.3) the CPU pool works on
    /// adjacent batches while the GPU forwards the current one, so the
    /// effective round cost is `max(ℓ(b), cpu(b))`; without it the stages
    /// serialize to `pre(b) + ℓ(b) + post(b)`. `cpu_workers` is the size of
    /// the per-GPU worker pool (§6.3: 4–5 cores saturate a GPU). The
    /// returned profile has zero pre/post cost (it is already folded in).
    ///
    /// # Panics
    ///
    /// Panics if `cpu_workers` is zero.
    pub fn effective(&self, overlap: bool, cpu_workers: u32) -> BatchingProfile {
        assert!(cpu_workers >= 1, "need at least one CPU worker");
        let mut lat = Vec::with_capacity(self.latencies.len());
        for b in 1..=self.max_batch() {
            let gpu = self.latency(b);
            let cpu = (self.preprocess_per_item + self.postprocess_per_item) * u64::from(b)
                / u64::from(cpu_workers);
            lat.push(if overlap { gpu.max(cpu) } else { gpu + cpu });
        }
        repair_table(&mut lat);
        BatchingProfile::new(lat)
            .expect("effective profile stays valid")
            .with_memory_bytes(self.memory_bytes)
            .with_load_time(self.load_time)
    }

    /// Truncates the profile to a smaller maximum batch size (used when GPU
    /// memory limits the feasible batch).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn truncated(&self, max_batch: u32) -> BatchingProfile {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let keep = (max_batch as usize).min(self.latencies.len());
        BatchingProfile {
            latencies: self.latencies[..keep].to_vec(),
            ..self.clone()
        }
    }
}

/// Evaluates the piecewise-linear interpolation through `anchors` at `b`.
fn interpolate(anchors: &[(u32, Micros)], b: u32) -> Micros {
    debug_assert!(!anchors.is_empty());
    // Find the segment containing `b`; extrapolate the first segment for
    // batch sizes below the first anchor.
    if anchors.len() == 1 {
        return anchors[0].1;
    }
    let seg = anchors
        .windows(2)
        .find(|w| b <= w[1].0)
        .unwrap_or_else(|| &anchors[anchors.len() - 2..]);
    let (b0, l0) = seg[0];
    let (b1, l1) = seg[1];
    let slope = (l1.as_micros() as f64 - l0.as_micros() as f64) / (f64::from(b1) - f64::from(b0));
    let val = l0.as_micros() as f64 + slope * (f64::from(b) - f64::from(b0));
    Micros::from_micros(val.round().max(1.0) as u64)
}

/// Minimally raises or caps entries of a latency table so that ℓ(b) is
/// non-decreasing and throughput `b/ℓ(b)` is non-decreasing.
///
/// Measured or rounded tables can violate these by a microsecond; the
/// scheduler's correctness arguments (§6.1) need them to hold exactly.
pub fn repair_table(latencies: &mut [Micros]) {
    for i in 0..latencies.len() {
        if latencies[i] == Micros::ZERO {
            latencies[i] = Micros::from_micros(1);
        }
        if i > 0 {
            let b = (i + 1) as u64;
            let prev = latencies[i - 1].as_micros();
            // Cap so throughput does not drop: ℓ(b)·(b−1) ≤ ℓ(b−1)·b.
            let cap = prev * b / (b - 1);
            let v = latencies[i].as_micros().min(cap).max(prev);
            latencies[i] = Micros::from_micros(v);
        }
    }
}

/// A cheaply-cloneable shared handle to a [`BatchingProfile`].
///
/// Profiles are immutable once built, but session specs, backend slots,
/// and scheduler epochs each used to carry their own deep copy of the
/// latency table. Sharing one allocation turns those per-epoch clones
/// into reference-count bumps; the handle derefs to the profile, so call
/// sites read exactly as before. Serializes as a plain profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(from = "BatchingProfile", into = "BatchingProfile")]
pub struct SharedProfile(std::sync::Arc<BatchingProfile>);

impl SharedProfile {
    /// Wraps a profile in a shared handle.
    pub fn new(profile: BatchingProfile) -> Self {
        SharedProfile(std::sync::Arc::new(profile))
    }
}

impl std::ops::Deref for SharedProfile {
    type Target = BatchingProfile;

    fn deref(&self) -> &BatchingProfile {
        &self.0
    }
}

impl From<BatchingProfile> for SharedProfile {
    fn from(profile: BatchingProfile) -> Self {
        SharedProfile::new(profile)
    }
}

impl From<&BatchingProfile> for SharedProfile {
    fn from(profile: &BatchingProfile) -> Self {
        SharedProfile::new(profile.clone())
    }
}

impl From<SharedProfile> for BatchingProfile {
    fn from(shared: SharedProfile) -> Self {
        // Unwrap without cloning when this is the last handle.
        std::sync::Arc::try_unwrap(shared.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table2_model_a() -> BatchingProfile {
        // Model A of Table 2: ℓ(4)=50, ℓ(8)=75, ℓ(16)=100 (ms).
        BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(50)),
            (8, Micros::from_millis(75)),
            (16, Micros::from_millis(100)),
        ])
    }

    #[test]
    fn table2_model_a_matches_paper() {
        let p = table2_model_a();
        assert_eq!(p.latency(4), Micros::from_millis(50));
        assert_eq!(p.latency(8), Micros::from_millis(75));
        assert_eq!(p.latency(16), Micros::from_millis(100));
        // Throughputs from Table 2: 80, 107, 160 req/s.
        assert!((p.throughput(4) - 80.0).abs() < 0.5);
        assert!((p.throughput(8) - 106.7).abs() < 0.5);
        assert!((p.throughput(16) - 160.0).abs() < 0.5);
    }

    #[test]
    fn max_batch_for_slo_matches_paper_example() {
        // §4.1: "the latency SLO for Model A tasks is 200 ms, so the maximum
        // batch size we can use is 16".
        let p = table2_model_a();
        assert_eq!(p.max_batch_for_slo(Micros::from_millis(200)), 16);
        // With a 150 ms SLO only 2·ℓ(b) ≤ 150 , i.e. ℓ(b) ≤ 75 -> b = 8.
        assert_eq!(p.max_batch_for_slo(Micros::from_millis(150)), 8);
    }

    #[test]
    fn max_batch_within_boundaries() {
        let p = table2_model_a();
        assert_eq!(p.max_batch_within(Micros::from_millis(100)), 16);
        assert_eq!(p.max_batch_within(Micros::from_millis(99)), 15);
        // Extrapolated ℓ(1) = 50 − 3·6.25 = 31.25 ms, so nothing fits 30 ms.
        assert_eq!(p.max_batch_within(Micros::from_millis(30)), 0);
        assert_eq!(p.max_batch_within(Micros::MAX), 16);
    }

    #[test]
    fn rejects_empty_profile() {
        assert_eq!(
            BatchingProfile::new(vec![]).unwrap_err(),
            ProfileError::EmptyProfile
        );
    }

    #[test]
    fn rejects_zero_latency() {
        let err = BatchingProfile::new(vec![Micros::ZERO]).unwrap_err();
        assert_eq!(err, ProfileError::ZeroLatency { batch: 1 });
    }

    #[test]
    fn rejects_decreasing_latency() {
        let err = BatchingProfile::new(vec![Micros::from_millis(10), Micros::from_millis(9)])
            .unwrap_err();
        assert_eq!(err, ProfileError::DecreasingLatency { batch: 2 });
    }

    #[test]
    fn rejects_decreasing_throughput() {
        // ℓ(1)=10, ℓ(2)=25: per-item latency rises from 10 to 12.5.
        let err = BatchingProfile::new(vec![Micros::from_millis(10), Micros::from_millis(25)])
            .unwrap_err();
        assert_eq!(err, ProfileError::DecreasingThroughput { batch: 2 });
    }

    #[test]
    fn fit_recovers_linear_coefficients() {
        let p = BatchingProfile::from_linear_us(1_250.0, 4_000.0, 32);
        let fit = p.fit_linear();
        assert!(
            (fit.alpha_us - 1_250.0).abs() < 1.0,
            "alpha={}",
            fit.alpha_us
        );
        assert!((fit.beta_us - 4_000.0).abs() < 5.0, "beta={}", fit.beta_us);
    }

    #[test]
    fn fit_single_entry() {
        let p = BatchingProfile::new(vec![Micros::from_millis(5)]).unwrap();
        let fit = p.fit_linear();
        assert_eq!(fit.alpha_us, 0.0);
        assert_eq!(fit.beta_us, 5_000.0);
    }

    #[test]
    fn throughput_is_non_decreasing() {
        let p = BatchingProfile::from_linear_ms(1.0, 10.0, 64);
        let mut prev = 0.0;
        for b in 1..=64 {
            let t = p.throughput(b);
            assert!(t >= prev, "throughput dropped at b={b}");
            prev = t;
        }
    }

    #[test]
    fn effective_profile_overlap_takes_max_of_cpu_and_gpu() {
        let p =
            BatchingProfile::from_linear_ms(1.0, 10.0, 32).with_preprocess(Micros::from_millis(8));
        let eff = p.effective(true, 4);
        // At b=4: gpu 14 ms vs cpu 8 ms ⇒ gpu-bound.
        assert_eq!(eff.latency(4), Micros::from_millis(14));
        // At b=32: gpu 42 ms vs cpu 64 ms ⇒ cpu-bound.
        assert_eq!(eff.latency(32), Micros::from_millis(64));
        assert_eq!(eff.preprocess_per_item(), Micros::ZERO);
    }

    #[test]
    fn effective_profile_serial_adds_cpu_stages() {
        let p = BatchingProfile::from_linear_ms(1.0, 10.0, 8)
            .with_preprocess(Micros::from_millis(4))
            .with_postprocess(Micros::from_millis(1));
        let eff = p.effective(false, 5);
        // b=5: gpu 15 ms + cpu 5·5/5 = 5 ms.
        assert_eq!(eff.latency(5), Micros::from_millis(20));
        assert!(eff.latency(8) > p.latency(8));
    }

    #[test]
    fn effective_profile_without_cpu_cost_is_identity() {
        let p = BatchingProfile::from_linear_ms(2.0, 5.0, 16);
        let eff = p.effective(false, 4);
        for b in 1..=16 {
            assert_eq!(eff.latency(b), p.latency(b));
        }
    }

    #[test]
    fn truncation_limits_max_batch() {
        let p = BatchingProfile::from_linear_ms(1.0, 10.0, 64).truncated(8);
        assert_eq!(p.max_batch(), 8);
        assert_eq!(p.latency_clamped(100), p.latency(8));
    }

    #[test]
    fn builder_fields_round_trip() {
        let p = BatchingProfile::from_linear_ms(1.0, 5.0, 4)
            .with_preprocess(Micros::from_millis(2))
            .with_postprocess(Micros::from_micros(300))
            .with_memory_bytes(123_456)
            .with_load_time(Micros::from_millis(900));
        assert_eq!(p.preprocess_per_item(), Micros::from_millis(2));
        assert_eq!(p.postprocess_per_item(), Micros::from_micros(300));
        assert_eq!(p.memory_bytes(), 123_456);
        assert_eq!(p.load_time(), Micros::from_millis(900));
    }

    #[test]
    #[should_panic(expected = "out of profile range")]
    fn latency_out_of_range_panics() {
        let _ = table2_model_a().latency(17);
    }
}
