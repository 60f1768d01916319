//! Sessions: the unit of scheduling.
//!
//! §6.1: "We refer to the requests for a given model and latency SLO as a
//! *session*." A session aggregates classification requests from many users
//! and applications that invoke the same model under the same latency
//! constraint; the global scheduler allocates GPU capacity per session.

use serde::{Deserialize, Serialize};

use nexus_profile::{Micros, SharedProfile};

/// Identifies a session within one scheduling problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A session as the scheduler sees it: model batching behaviour, latency
/// SLO, and observed request rate (`⟨M_k, L_i, R_i⟩` in Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Session identifier.
    pub id: SessionId,
    /// Batching profile of the session's model on the cluster GPU type,
    /// behind a shared handle — specs are rebuilt every scheduling epoch,
    /// and the latency table is immutable, so epochs share one allocation.
    ///
    /// For the -OL ablation or prefix-merged sessions, callers pass the
    /// already-transformed profile (`BatchingProfile::effective`,
    /// `PrefixPlan::merged_profile`).
    pub profile: SharedProfile,
    /// End-to-end latency SLO for requests of this session.
    pub slo: Micros,
    /// Observed request rate, requests/second.
    pub rate: f64,
}

impl SessionSpec {
    /// Creates a session spec.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite, or `slo` is zero.
    pub fn new(id: SessionId, profile: impl Into<SharedProfile>, slo: Micros, rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid rate {rate}");
        assert!(slo > Micros::ZERO, "SLO must be positive");
        SessionSpec {
            id,
            profile: profile.into(),
            slo,
            rate,
        }
    }

    /// Largest batch meeting the saturated-GPU SLO rule `2·ℓ(b) ≤ L`
    /// (`B_i` in Algorithm 1), or 0 if the SLO is infeasible.
    pub fn max_batch(&self) -> u32 {
        self.profile.max_batch_for_slo(self.slo)
    }

    /// Peak single-GPU throughput under the SLO (`T_i = B_i / ℓ(B_i)`).
    pub fn peak_throughput(&self) -> Option<f64> {
        self.profile.max_throughput_for_slo(self.slo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::catalog::RESNET50;

    #[test]
    fn derived_quantities_match_profile() {
        let profile = RESNET50.profile_1080ti();
        let s = SessionSpec::new(
            SessionId(0),
            profile.clone(),
            Micros::from_millis(100),
            300.0,
        );
        let b = s.max_batch();
        assert!(b > 0);
        assert!(profile.latency(b) * 2 <= Micros::from_millis(100));
        let t = s.peak_throughput().unwrap();
        assert!((t - profile.throughput(b)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_slo_yields_none() {
        let profile = RESNET50.profile_1080ti();
        let s = SessionSpec::new(SessionId(1), profile, Micros::from_millis(5), 10.0);
        assert_eq!(s.max_batch(), 0);
        assert!(s.peak_throughput().is_none());
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn negative_rate_rejected() {
        let profile = RESNET50.profile_1080ti();
        let _ = SessionSpec::new(SessionId(0), profile, Micros::from_millis(100), -1.0);
    }
}
