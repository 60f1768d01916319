//! Incremental epoch-to-epoch rescheduling (§6.1, last paragraph).
//!
//! Re-running squishy bin packing from scratch each epoch would reshuffle
//! models across backends and pay model-load delays (hundreds of ms each).
//! The paper makes the algorithm incremental: sessions move only when the
//! workload forces it. We realize this as a *plan assignment* step: the new
//! allocation's plans are matched onto existing backends to maximize the
//! models already resident, and the movement cost (model loads required) is
//! reported so the control plane can account for reconfiguration delay —
//! the source of Fig. 13's sporadic bad-rate spikes.

use std::collections::HashMap;

use crate::session::SessionId;
use crate::squishy::GpuPlan;

/// How a new allocation maps onto existing backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanAssignment {
    /// `backend_for[i]` is the existing backend index reused by new plan
    /// `i`, or `None` if the plan goes to a freshly acquired backend.
    pub backend_for: Vec<Option<usize>>,
    /// Existing backends not reused (to be released).
    pub released: Vec<usize>,
    /// Total model loads required across the cluster (sessions in a new
    /// plan that were not already resident on the assigned backend).
    pub model_loads: usize,
}

/// The distinct sessions a plan hosts (a session listed twice counts once).
fn distinct_sessions(plan: &GpuPlan) -> Vec<SessionId> {
    let mut sessions: Vec<SessionId> = plan.entries.iter().map(|e| e.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    sessions
}

/// Greedily matches new plans to previous backends, maximizing resident-
/// model reuse (largest overlap first, ties to lower indices for
/// determinism).
pub fn assign_plans(prev: &[GpuPlan], next: &[GpuPlan]) -> PlanAssignment {
    // Session → the previous plans hosting it. Walking it per new plan
    // visits only the (next, prev) pairs that share a session, where
    // intersecting every pair of session sets visited all of them.
    let mut hosted_by: HashMap<SessionId, Vec<usize>> = HashMap::new();
    for (pi, plan) in prev.iter().enumerate() {
        for s in distinct_sessions(plan) {
            hosted_by.entry(s).or_default().push(pi);
        }
    }

    // All (overlap, next, prev) candidates with non-zero overlap.
    let mut cands: Vec<(usize, usize, usize)> = Vec::new();
    let mut overlap = vec![0usize; prev.len()];
    let mut next_sizes = Vec::with_capacity(next.len());
    for (ni, plan) in next.iter().enumerate() {
        let sessions = distinct_sessions(plan);
        next_sizes.push(sessions.len());
        let first = cands.len();
        for s in &sessions {
            for &pi in hosted_by.get(s).map_or(&[][..], Vec::as_slice) {
                if overlap[pi] == 0 {
                    cands.push((0, ni, pi));
                }
                overlap[pi] += 1;
            }
        }
        for cand in &mut cands[first..] {
            cand.0 = std::mem::take(&mut overlap[cand.2]);
        }
    }
    // The key is total (no two candidates share a (next, prev) pair), so the
    // order does not depend on the order the candidates were found in.
    cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut backend_for = vec![None; next.len()];
    let mut prev_used = vec![false; prev.len()];
    let mut next_done = vec![false; next.len()];
    // Sessions already resident where their plan lands. Only the overlap
    // matches below contribute: an idle backend handed out afterwards
    // shares no session with its plan, or the pair would have matched.
    let mut resident = 0usize;
    for (shared, ni, pi) in cands {
        if !next_done[ni] && !prev_used[pi] {
            backend_for[ni] = Some(pi);
            next_done[ni] = true;
            prev_used[pi] = true;
            resident += shared;
        }
    }
    // Unmatched new plans reuse any remaining idle backend (no residency
    // benefit, but avoids acquiring a node).
    let mut free_prev: Vec<usize> = (0..prev.len()).filter(|&p| !prev_used[p]).collect();
    for ni in 0..next.len() {
        if !next_done[ni] {
            if let Some(pi) = free_prev.pop() {
                backend_for[ni] = Some(pi);
                prev_used[pi] = true;
                next_done[ni] = true;
            }
        }
    }

    let released = (0..prev.len()).filter(|&p| !prev_used[p]).collect();
    let model_loads = next_sizes.iter().sum::<usize>() - resident;

    PlanAssignment {
        backend_for,
        released,
        model_loads,
    }
}

/// The all-pairs matcher this module used before the inverted index, kept
/// verbatim as the oracle: the differential test asserts the index emits
/// the same candidates and so the same assignment, releases and loads.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashSet;

    use super::*;

    fn session_set(plan: &GpuPlan) -> HashSet<SessionId> {
        plan.entries.iter().map(|e| e.session).collect()
    }

    /// The original `assign_plans`: every (next, prev) pair intersected.
    pub fn assign_plans(prev: &[GpuPlan], next: &[GpuPlan]) -> PlanAssignment {
        let prev_sets: Vec<HashSet<SessionId>> = prev.iter().map(session_set).collect();
        let next_sets: Vec<HashSet<SessionId>> = next.iter().map(session_set).collect();

        // All (overlap, next, prev) candidates with non-zero overlap.
        let mut cands: Vec<(usize, usize, usize)> = Vec::new();
        for (ni, ns) in next_sets.iter().enumerate() {
            for (pi, ps) in prev_sets.iter().enumerate() {
                let overlap = ns.intersection(ps).count();
                if overlap > 0 {
                    cands.push((overlap, ni, pi));
                }
            }
        }
        cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut backend_for = vec![None; next.len()];
        let mut prev_used = vec![false; prev.len()];
        let mut next_done = vec![false; next.len()];
        for (_, ni, pi) in cands {
            if !next_done[ni] && !prev_used[pi] {
                backend_for[ni] = Some(pi);
                next_done[ni] = true;
                prev_used[pi] = true;
            }
        }
        // Unmatched new plans reuse any remaining idle backend (no residency
        // benefit, but avoids acquiring a node).
        let mut free_prev: Vec<usize> = (0..prev.len()).filter(|&p| !prev_used[p]).collect();
        for ni in 0..next.len() {
            if !next_done[ni] {
                if let Some(pi) = free_prev.pop() {
                    backend_for[ni] = Some(pi);
                    prev_used[pi] = true;
                    next_done[ni] = true;
                }
            }
        }

        let released = (0..prev.len()).filter(|&p| !prev_used[p]).collect();
        let model_loads = next_sets
            .iter()
            .enumerate()
            .map(|(ni, ns)| match backend_for[ni] {
                Some(pi) => ns.difference(&prev_sets[pi]).count(),
                None => ns.len(),
            })
            .sum();

        PlanAssignment {
            backend_for,
            released,
            model_loads,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::squishy::PlanEntry;
    use nexus_profile::Micros;
    use proptest::prelude::*;

    fn plan(sessions: &[u32]) -> GpuPlan {
        GpuPlan {
            duty_cycle: Micros::from_millis(100),
            entries: sessions
                .iter()
                .map(|&s| PlanEntry {
                    session: SessionId(s),
                    batch: 4,
                    exec_latency: Micros::from_millis(20),
                })
                .collect(),
            saturated: false,
            occupancy: 0.5,
            memory_bytes: 0,
        }
    }

    #[test]
    fn identical_allocation_needs_no_loads() {
        let prev = vec![plan(&[0, 1]), plan(&[2])];
        let a = assign_plans(&prev, &prev);
        assert_eq!(a.backend_for, vec![Some(0), Some(1)]);
        assert_eq!(a.model_loads, 0);
        assert!(a.released.is_empty());
    }

    #[test]
    fn best_overlap_wins() {
        let prev = vec![plan(&[0, 1, 2]), plan(&[3, 4])];
        let next = vec![plan(&[3]), plan(&[0, 1, 2, 5])];
        let a = assign_plans(&prev, &next);
        assert_eq!(a.backend_for, vec![Some(1), Some(0)]);
        // Only session 5 needs loading.
        assert_eq!(a.model_loads, 1);
    }

    #[test]
    fn shrinking_workload_releases_backends() {
        let prev = vec![plan(&[0]), plan(&[1]), plan(&[2])];
        let next = vec![plan(&[0, 1])];
        let a = assign_plans(&prev, &next);
        assert_eq!(a.backend_for.len(), 1);
        assert_eq!(a.released.len(), 2);
        // Backend 0 already hosts session 0; session 1 must load.
        assert_eq!(a.model_loads, 1);
    }

    #[test]
    fn growing_workload_acquires_backends() {
        let prev = vec![plan(&[0])];
        let next = vec![plan(&[0]), plan(&[1]), plan(&[2])];
        let a = assign_plans(&prev, &next);
        assert_eq!(a.backend_for[0], Some(0));
        // One new plan may land on... no idle backends exist, so both others
        // are fresh.
        assert_eq!(a.backend_for.iter().filter(|b| b.is_none()).count(), 2);
        assert_eq!(a.model_loads, 2);
        assert!(a.released.is_empty());
    }

    #[test]
    fn gpu_failure_repack_reuses_survivors() {
        // A 4-GPU deployment loses one backend. The control plane re-packs
        // the lost sessions onto the 3 survivors; the assignment must keep
        // every survivor's resident set where it is and charge loads only
        // for the migrated sessions.
        let prev = vec![plan(&[0, 1]), plan(&[2, 3]), plan(&[4, 5])];
        // Backend hosting {2, 3} died: the next allocation squeezes its
        // sessions onto the survivors.
        let next = vec![plan(&[0, 1, 2]), plan(&[4, 5, 3])];
        let a = assign_plans(&prev, &next);
        assert_eq!(a.backend_for, vec![Some(0), Some(2)]);
        // Sessions 2 and 3 migrate; 0, 1, 4, 5 stay resident.
        assert_eq!(a.model_loads, 2);
        // The dead backend's slot is reported as released so the control
        // plane can retire it.
        assert_eq!(a.released, vec![1]);
    }

    #[test]
    fn shrinking_cluster_drops_no_session() {
        // Successive failures shrink the fleet 4 → 3 → 2. At every step the
        // re-packed plans must still cover the full session set — recovery
        // rescheduling moves sessions, never silently loses them.
        let all: HashSet<SessionId> = (0..8).map(SessionId).collect();
        let steps = [
            vec![plan(&[0, 1]), plan(&[2, 3]), plan(&[4, 5]), plan(&[6, 7])],
            vec![plan(&[0, 1, 6]), plan(&[2, 3, 7]), plan(&[4, 5])],
            vec![plan(&[0, 1, 6, 4]), plan(&[2, 3, 7, 5])],
        ];
        let mut total_loads = 0;
        for w in steps.windows(2) {
            let covered: HashSet<SessionId> = w[1]
                .iter()
                .flat_map(|p| p.entries.iter().map(|e| e.session))
                .collect();
            assert_eq!(covered, all, "re-pack must cover every session");
            let a = assign_plans(&w[0], &w[1]);
            // Every next plan reuses a survivor (the fleet only shrinks).
            assert!(a.backend_for.iter().all(|b| b.is_some()));
            total_loads += a.model_loads;
        }
        // 4→3 migrates {6, 7}; 3→2 migrates {4, 5}: four loads total,
        // strictly fewer than re-packing all 8 sessions from scratch.
        assert_eq!(total_loads, 4);
    }

    #[test]
    fn repack_after_failure_beats_from_scratch_loads() {
        // The incremental assignment should never charge more loads than a
        // fresh deployment of the same plans would.
        let prev = vec![plan(&[0, 1, 2]), plan(&[3, 4]), plan(&[5])];
        let next = vec![plan(&[0, 1, 2, 5]), plan(&[3, 4])];
        let a = assign_plans(&prev, &next);
        let from_scratch: usize = next.iter().map(|p| p.entries.len()).sum();
        assert!(a.model_loads < from_scratch);
        assert_eq!(a.model_loads, 1, "only session 5 moves");
    }

    #[test]
    fn disjoint_plans_reuse_idle_backends() {
        let prev = vec![plan(&[0]), plan(&[1])];
        let next = vec![plan(&[2]), plan(&[3])];
        let a = assign_plans(&prev, &next);
        // No overlap, but idle backends are reused rather than released.
        assert!(a.backend_for.iter().all(|b| b.is_some()));
        assert!(a.released.is_empty());
        assert_eq!(a.model_loads, 2);
    }

    /// Plan lists over a small session universe, so overlaps, replicas
    /// (the same session set on several plans) and equal-overlap ties are
    /// the common case; plans may list a session twice or be empty.
    fn arb_plans() -> impl Strategy<Value = Vec<GpuPlan>> {
        prop::collection::vec(prop::collection::vec(0u32..12, 0..6), 0..14)
            .prop_map(|plans| plans.iter().map(|sessions| plan(sessions)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The inverted index finds exactly the pairs the all-pairs
        /// intersection found: same matches, releases and load count.
        #[test]
        fn inverted_index_matches_all_pairs(
            prev in arb_plans(),
            next in arb_plans(),
            replicas in 0usize..4,
        ) {
            // Replicate the head of each side, as `squishy_spread` does.
            let with_replicas = |plans: &[GpuPlan]| -> Vec<GpuPlan> {
                let head = plans.iter().take(replicas).cloned();
                plans.iter().cloned().chain(head).collect()
            };
            let (prev, next) = (with_replicas(&prev), with_replicas(&next));
            prop_assert_eq!(assign_plans(&prev, &next), reference::assign_plans(&prev, &next));
            prop_assert_eq!(assign_plans(&prev, &[]), reference::assign_plans(&prev, &[]));
            prop_assert_eq!(assign_plans(&[], &next), reference::assign_plans(&[], &next));
        }
    }
}
