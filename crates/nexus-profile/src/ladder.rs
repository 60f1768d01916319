//! Batch-size ladders: the discrete set of batch shapes a backend actually
//! executes (ROADMAP item 5, cervo's `FixedBatchInferer` shape).
//!
//! A [`BatchLadder`] precomputes the rung sizes — powers of two clamped to
//! the profile's `max_batch`, with `max_batch` itself as the top rung — and
//! caches the per-rung latency `ℓ(rung)` from the batching profile. Both
//! the scheduler (rung-restricted squishy planning, replacing the linear
//! `1..=max_batch` scans) and the dispatcher (greedy largest-rung minibatch
//! assembly over a scratchpad) consume the same table, so a planned batch
//! is always an executable shape and duty-cycle accounting stays exact.
//!
//! Everything here is derived deterministically from the profile alone:
//! ladder choice at dispatch time is a pure function of queue state and the
//! plan, which is what keeps sharded/threaded runs byte-identical.

use crate::profile::BatchingProfile;
use crate::time::Micros;

/// Precomputed batch-size ladder for one model profile.
///
/// Rungs are strictly increasing; the bottom rung is always 1 and the top
/// rung is always the profile's `max_batch`, so any queue depth up to
/// `max_batch` decomposes exactly and any single request is servable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLadder {
    rungs: Vec<u32>,
    latencies: Vec<Micros>,
}

impl BatchLadder {
    /// Derives the ladder from a profile: powers of two below `max_batch`,
    /// plus `max_batch` itself as the top rung.
    pub fn from_profile(profile: &BatchingProfile) -> Self {
        let (rungs, latencies) = Self::profile_rungs(profile).unzip();
        BatchLadder { rungs, latencies }
    }

    /// The rungs [`from_profile`](Self::from_profile) builds, as
    /// `(b, ℓ(b))` pairs in ascending `b`, without allocating: powers of
    /// two below `max_batch`, then `max_batch`. This is the one definition
    /// of the rung set; the split DP prices its candidates from it directly.
    pub fn profile_rungs(
        profile: &BatchingProfile,
    ) -> impl ExactSizeIterator<Item = (u32, Micros)> + '_ {
        let max = profile.max_batch().max(1);
        // ⌈log₂ max⌉ powers of two below `max`, then `max` itself.
        let count = u32::BITS - (max - 1).leading_zeros() + 1;
        (0..count).map(move |i| {
            let b = 1u32.checked_shl(i).map_or(max, |p| p.min(max));
            (b, profile.latency(b))
        })
    }

    /// Inserts `b` as an extra rung (compiling one more plan shape), as
    /// cervo materialises requested shapes on demand. The planner routes
    /// its chosen batch assignments through this so the operating point is
    /// always an executable shape: dense rungs near the plan, sparse
    /// power-of-two rungs for leftovers and low occupancy. No-op if `b` is
    /// already a rung or zero.
    pub fn with_rung(mut self, b: u32, profile: &BatchingProfile) -> Self {
        if b > 0 {
            if let Err(idx) = self.rungs.binary_search(&b) {
                self.rungs.insert(idx, b);
                self.latencies.insert(idx, profile.latency(b));
            }
        }
        self
    }

    /// The rung sizes, ascending.
    pub fn rungs(&self) -> &[u32] {
        &self.rungs
    }

    /// Latency of the rung at `idx` (the cached `ℓ(rung)`).
    pub fn latency_at(&self, idx: usize) -> Micros {
        self.latencies[idx]
    }

    /// Latency of executing one `rung`-shaped slot. `rung` must be a rung.
    pub fn rung_latency(&self, rung: u32) -> Micros {
        let idx = self
            .rungs
            .binary_search(&rung)
            .expect("rung_latency called with a non-rung batch size");
        self.latencies[idx]
    }

    /// Latency of the smallest rung — the floor any execution pays. For
    /// ladders with a bottom rung of 1 this equals `ℓ(1)`; doomed-request
    /// checks route through this so they track the executable shapes rather
    /// than a hypothetical batch of one.
    pub fn min_latency(&self) -> Micros {
        self.latencies[0]
    }

    /// The top rung (the profile's `max_batch`).
    pub fn max_rung(&self) -> u32 {
        *self.rungs.last().expect("ladder is never empty")
    }

    /// Smallest rung `≥ n` (clamped to the top rung), with its latency.
    /// This is the shape a partial minibatch of `n` requests executes in.
    pub fn smallest_rung_geq(&self, n: u32) -> (u32, Micros) {
        let idx = match self.rungs.binary_search(&n) {
            Ok(i) => i,
            Err(i) => i.min(self.rungs.len() - 1),
        };
        (self.rungs[idx], self.latencies[idx])
    }

    /// Largest rung whose latency fits `budget`, with its latency. Uses the
    /// profile invariant that `ℓ` is non-decreasing, so the rung latencies
    /// are sorted and a binary search is exact. `None` if even the bottom
    /// rung does not fit.
    pub fn largest_rung_within(&self, budget: Micros) -> Option<(u32, Micros)> {
        // partition_point: first index with latency > budget.
        let idx = self.latencies.partition_point(|&l| l <= budget);
        if idx == 0 {
            return None;
        }
        Some((self.rungs[idx - 1], self.latencies[idx - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(max: u32) -> BatchingProfile {
        BatchingProfile::from_linear_ms(2.0, 10.0, max)
    }

    #[test]
    fn rungs_are_powers_of_two_topped_by_max_batch() {
        let l = BatchLadder::from_profile(&profile(32));
        assert_eq!(l.rungs(), &[1, 2, 4, 8, 16, 32]);
        let l = BatchLadder::from_profile(&profile(24));
        assert_eq!(l.rungs(), &[1, 2, 4, 8, 16, 24]);
        let l = BatchLadder::from_profile(&profile(33));
        assert_eq!(l.rungs(), &[1, 2, 4, 8, 16, 32, 33]);
        let l = BatchLadder::from_profile(&profile(1));
        assert_eq!(l.rungs(), &[1]);
    }

    #[test]
    fn with_rung_inserts_plan_shapes() {
        let p = profile(32);
        let l = BatchLadder::from_profile(&p)
            .with_rung(13, &p)
            .with_rung(12, &p)
            .with_rung(8, &p) // already a rung: no-op
            .with_rung(0, &p); // zero: no-op
        assert_eq!(l.rungs(), &[1, 2, 4, 8, 12, 13, 16, 32]);
        assert_eq!(l.rung_latency(13), p.latency(13));
        assert_eq!(l.smallest_rung_geq(11).0, 12);
        assert_eq!(l.smallest_rung_geq(13).0, 13);
    }

    #[test]
    fn latencies_match_the_profile() {
        let p = profile(24);
        let l = BatchLadder::from_profile(&p);
        for (&r, i) in l.rungs().iter().zip(0..) {
            assert_eq!(l.latency_at(i), p.latency(r));
            assert_eq!(l.rung_latency(r), p.latency(r));
        }
        assert_eq!(l.min_latency(), p.latency(1));
        assert_eq!(l.max_rung(), 24);
    }

    #[test]
    fn smallest_rung_geq_covers_partials() {
        let l = BatchLadder::from_profile(&profile(24));
        assert_eq!(l.smallest_rung_geq(1).0, 1);
        assert_eq!(l.smallest_rung_geq(3).0, 4);
        assert_eq!(l.smallest_rung_geq(17).0, 24);
        assert_eq!(l.smallest_rung_geq(100).0, 24, "clamped to top rung");
    }

    #[test]
    fn largest_rung_within_matches_scan() {
        let p = profile(32);
        let l = BatchLadder::from_profile(&p);
        for budget_ms in 0..200u64 {
            let budget = Micros::from_millis(budget_ms);
            let expect = l
                .rungs()
                .iter()
                .rev()
                .find(|&&r| p.latency(r) <= budget)
                .copied();
            assert_eq!(l.largest_rung_within(budget).map(|(r, _)| r), expect);
        }
    }
}
