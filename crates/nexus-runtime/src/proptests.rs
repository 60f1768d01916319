//! Property-based tests for the data-plane primitives: requests are
//! conserved through every dispatch policy, query tracking closes, and
//! full simulations — including injected GPU faults — replay bit-identically
//! from the same seed.

#![cfg(test)]

use proptest::prelude::*;

use nexus_profile::{BatchingProfile, Micros, GPU_GTX1080TI};
use nexus_scheduler::SessionId;
use nexus_simgpu::{FaultKind, FaultSpec};

use crate::cluster::{ClusterSim, SimConfig};
use crate::config::SystemConfig;
use crate::control::TrafficClass;
use crate::dispatch::{DropPolicy, SessionQueue};
use crate::request::{QueryTracker, Request, RequestId, RequestOutcome};
use nexus_workload::{apps, ArrivalKind};

fn arb_requests(n: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (arrival offset us, slack us) per request.
    prop::collection::vec((0u64..200_000, 1_000u64..300_000), 1..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Conservation: every request pushed is either still queued, in the
    /// batch, or dropped — none invented, none lost — for every policy and
    /// pull time.
    #[test]
    fn pull_conserves_requests(
        reqs in arb_requests(40),
        now_us in 0u64..500_000,
        target in 1u32..32,
        policy_idx in 0usize..4,
        reserve_us in 0u64..100_000,
    ) {
        let policy = [
            DropPolicy::None,
            DropPolicy::Lazy,
            DropPolicy::Early,
            DropPolicy::Deprioritize,
        ][policy_idx];
        let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 32);
        let mut q = SessionQueue::new();
        let mut arrivals = reqs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
            q.push(Request {
                id: RequestId(i as u64),
                session: SessionId(0),
                arrival: Micros::from_micros(arrival),
                deadline: Micros::from_micros(arrival + slack),
                query: None,
            });
        }
        let total = q.len();
        let pull = q.pull(
            Micros::from_micros(now_us),
            target,
            &profile,
            policy,
            Micros::from_micros(reserve_us),
        );
        prop_assert_eq!(pull.batch.len() + pull.dropped.len() + q.len(), total);
        // No duplicates across the three sets.
        let mut seen = std::collections::HashSet::new();
        for r in pull.batch.iter().chain(&pull.dropped).chain(q.drain().iter()) {
            prop_assert!(seen.insert(r.id), "request {:?} duplicated", r.id);
        }
    }

    /// Early drop never serves a batch its head cannot absorb: the batch's
    /// execution finishes by the first batched request's deadline.
    #[test]
    fn early_batches_meet_head_deadline(
        reqs in arb_requests(40),
        now_us in 0u64..500_000,
        target in 1u32..32,
    ) {
        let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 32);
        let mut q = SessionQueue::new();
        let mut arrivals = reqs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
            q.push(Request {
                id: RequestId(i as u64),
                session: SessionId(0),
                arrival: Micros::from_micros(arrival),
                deadline: Micros::from_micros(arrival + slack),
                query: None,
            });
        }
        let now = Micros::from_micros(now_us);
        let pull = q.pull(now, target, &profile, DropPolicy::Early, Micros::ZERO);
        if let Some(head) = pull.batch.first() {
            let finish = now + profile.latency_clamped(pull.batch.len() as u32);
            prop_assert!(head.deadline >= finish);
        }
    }

    /// FIFO order is preserved within the batch and within the survivors.
    #[test]
    fn pull_preserves_fifo(
        n in 1usize..50,
        now_us in 0u64..200_000,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            DropPolicy::None,
            DropPolicy::Lazy,
            DropPolicy::Early,
            DropPolicy::Deprioritize,
        ][policy_idx];
        let profile = BatchingProfile::from_linear_ms(0.5, 4.0, 32);
        let mut q = SessionQueue::new();
        for i in 0..n as u64 {
            q.push(Request {
                id: RequestId(i),
                session: SessionId(0),
                arrival: Micros::from_micros(i * 100),
                deadline: Micros::from_micros(i * 100 + 150_000),
                query: None,
            });
        }
        let pull = q.pull(Micros::from_micros(now_us), 8, &profile, policy, Micros::ZERO);
        let ids: Vec<u64> = pull.batch.iter().map(|r| r.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ids, sorted);
    }

    /// Differential: the optimized pulls produce identical `(batch,
    /// dropped)` sequences to the pre-optimization reference
    /// implementations, across interleaved pushes and pulls at advancing
    /// times — every policy, target, and reserve.
    #[test]
    fn optimized_pulls_match_reference(
        reqs in arb_requests(60),
        pulls in prop::collection::vec((0u64..600_000, 1u32..32, 0usize..4, 0u64..100_000), 1..8),
        alpha in 1u64..4_000,
        beta in 1u64..20_000,
    ) {
        let profile = BatchingProfile::from_linear_ms(
            alpha as f64 / 1_000.0,
            beta as f64 / 1_000.0,
            32,
        );
        let mut arrivals = reqs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        let mut fast = SessionQueue::new();
        let mut slow = SessionQueue::new();
        let mut fed = 0usize;
        let mut scratch = crate::dispatch::BatchPull::default();
        let mut pulls = pulls.clone();
        pulls.sort_by_key(|&(now, ..)| now);
        for &(now_us, target, policy_idx, reserve_us) in &pulls {
            let now = Micros::from_micros(now_us);
            // Feed both queues the requests that have arrived by `now`.
            while fed < arrivals.len() && arrivals[fed].0 <= now_us {
                let (arrival, slack) = arrivals[fed];
                let r = Request {
                    id: RequestId(fed as u64),
                    session: SessionId(0),
                    arrival: Micros::from_micros(arrival),
                    deadline: Micros::from_micros(arrival + slack),
                    query: None,
                };
                fast.push(r);
                slow.push(r);
                fed += 1;
            }
            let policy = [
                DropPolicy::None,
                DropPolicy::Lazy,
                DropPolicy::Early,
                DropPolicy::Deprioritize,
            ][policy_idx];
            let reserve = Micros::from_micros(reserve_us);
            fast.pull_into(now, target, &profile, policy, reserve, &mut scratch);
            let expect = crate::dispatch::reference::pull(
                &mut slow, now, target, &profile, policy, reserve,
            );
            prop_assert_eq!(&scratch, &expect, "policy {:?} at t={}", policy, now);
            prop_assert_eq!(fast.len(), slow.len());
        }
    }

    /// Ladder decomposition of any queue depth up to `max_batch²` conserves
    /// requests — every pushed request ends up in exactly one of batch,
    /// dropped, or still-queued — and the minibatch segmentation tiles the
    /// batch exactly with valid, never-overfilled rungs.
    #[test]
    fn ladder_pull_conserves_requests(
        reqs in arb_requests(65), // max_batch = 8 ⇒ depths up to max_batch²
        now_us in 0u64..500_000,
        target in 1u32..32,
        policy_idx in 0usize..4,
        reserve_us in 0u64..100_000,
        allowance_us in 0u64..150_000, // < 10 ms ⇒ unbounded
    ) {
        let policy = [
            DropPolicy::None,
            DropPolicy::Lazy,
            DropPolicy::Early,
            DropPolicy::Deprioritize,
        ][policy_idx];
        let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 8);
        let ladder = profile.ladder();
        let mut q = SessionQueue::new();
        let mut arrivals = reqs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
            q.push(Request {
                id: RequestId(i as u64),
                session: SessionId(0),
                arrival: Micros::from_micros(arrival),
                deadline: Micros::from_micros(arrival + slack),
                query: None,
            });
        }
        let total = q.len();
        let mut out = crate::dispatch::BatchPull::default();
        let mut mbs = Vec::new();
        let allowance = if allowance_us < 10_000 {
            Micros::MAX
        } else {
            Micros::from_micros(allowance_us)
        };
        q.pull_ladder_into(
            Micros::from_micros(now_us),
            target,
            allowance,
            &profile,
            &ladder,
            policy,
            Micros::from_micros(reserve_us),
            &mut out,
            &mut mbs,
        );
        prop_assert_eq!(out.batch.len() + out.dropped.len() + q.len(), total);
        let mut seen = std::collections::HashSet::new();
        for r in out.batch.iter().chain(&out.dropped).chain(q.drain().iter()) {
            prop_assert!(seen.insert(r.id), "request {:?} duplicated", r.id);
        }
        // The minibatch sequence tiles the batch exactly in rung shapes.
        let covered: u32 = mbs.iter().map(|m| m.len).sum();
        prop_assert_eq!(covered as usize, out.batch.len());
        for m in &mbs {
            prop_assert!(m.len >= 1 && m.len <= m.rung, "overfilled rung {m:?}");
            prop_assert!(ladder.rungs().contains(&m.rung), "non-rung {m:?}");
        }
    }

    /// The ladder pull never commits a minibatch whose cumulative finish
    /// time exceeds its front request's SLO budget, and only sacrifices
    /// requests that were doomed outright (deadline below even a bottom-rung
    /// execution started now).
    #[test]
    fn ladder_pull_respects_slo_budget(
        reqs in arb_requests(65),
        now_us in 0u64..500_000,
        target in 1u32..32,
        reserve_us in 0u64..100_000,
        allowance_us in 0u64..150_000, // < 10 ms ⇒ unbounded
    ) {
        let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 8);
        let ladder = profile.ladder();
        let mut q = SessionQueue::new();
        let mut arrivals = reqs.clone();
        arrivals.sort_by_key(|&(a, _)| a);
        for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
            q.push(Request {
                id: RequestId(i as u64),
                session: SessionId(0),
                arrival: Micros::from_micros(arrival),
                deadline: Micros::from_micros(arrival + slack),
                query: None,
            });
        }
        let now = Micros::from_micros(now_us);
        let allowance = if allowance_us < 10_000 {
            Micros::MAX
        } else {
            Micros::from_micros(allowance_us)
        };
        let mut out = crate::dispatch::BatchPull::default();
        let mut mbs = Vec::new();
        q.pull_ladder_into(
            now,
            target,
            allowance,
            &profile,
            &ladder,
            DropPolicy::Early,
            Micros::from_micros(reserve_us),
            &mut out,
            &mut mbs,
        );
        // Each minibatch's front meets its deadline at the cumulative
        // finish of the rung sequence.
        let mut acc = Micros::ZERO;
        let mut idx = 0usize;
        for m in &mbs {
            acc += ladder.rung_latency(m.rung);
            prop_assert!(
                out.batch[idx].deadline >= now + acc,
                "minibatch front misses deadline: {m:?} finish {:?}",
                now + acc,
            );
            idx += m.len as usize;
        }
        // The slot never runs past its duty-cycle allowance.
        prop_assert!(acc <= allowance, "slot {acc:?} exceeds allowance {allowance:?}");
        // Drops are doomed requests, or early sacrifices made to let an
        // efficient window behind them run — never a drop for nothing.
        for r in &out.dropped {
            prop_assert!(
                r.deadline < now + ladder.min_latency() || !out.batch.is_empty(),
                "feasible request dropped without a window served"
            );
        }
    }

    /// The ladder pull is a pure function of queue state, time, and plan:
    /// identical inputs replay to identical `(batch, dropped, minibatches)`.
    #[test]
    fn ladder_pull_is_deterministic(
        reqs in arb_requests(65),
        now_us in 0u64..500_000,
        target in 1u32..32,
    ) {
        let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 8);
        let ladder = profile.ladder();
        let build = |reqs: &[(u64, u64)]| {
            let mut q = SessionQueue::new();
            let mut arrivals = reqs.to_vec();
            arrivals.sort_by_key(|&(a, _)| a);
            for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
                q.push(Request {
                    id: RequestId(i as u64),
                    session: SessionId(0),
                    arrival: Micros::from_micros(arrival),
                    deadline: Micros::from_micros(arrival + slack),
                    query: None,
                });
            }
            q
        };
        let now = Micros::from_micros(now_us);
        let mut a_q = build(&reqs);
        let mut b_q = build(&reqs);
        let (mut a_out, mut a_mbs) = (crate::dispatch::BatchPull::default(), Vec::new());
        let (mut b_out, mut b_mbs) = (crate::dispatch::BatchPull::default(), Vec::new());
        a_q.pull_ladder_into(now, target, Micros::MAX, &profile, &ladder,
            DropPolicy::Early, Micros::ZERO, &mut a_out, &mut a_mbs);
        b_q.pull_ladder_into(now, target, Micros::MAX, &profile, &ladder,
            DropPolicy::Early, Micros::ZERO, &mut b_out, &mut b_mbs);
        prop_assert_eq!(a_out, b_out);
        prop_assert_eq!(a_mbs, b_mbs);
        prop_assert_eq!(a_q.len(), b_q.len());
    }

    /// Query tracking closes exactly once per query with consistent
    /// goodness: good iff no drop and last completion ≤ deadline.
    #[test]
    fn query_tracker_closes_consistently(
        outcomes in prop::collection::vec((0u64..300_000u64, prop::bool::ANY), 1..12),
        deadline_us in 50_000u64..250_000,
    ) {
        let mut t = QueryTracker::new();
        let q = t.open(Micros::ZERO, Micros::from_micros(deadline_us));
        t.add_outstanding(q, outcomes.len() as u32 - 1);
        let mut finished = None;
        let mut any_drop = false;
        let mut last = Micros::ZERO;
        for (i, &(at, dropped)) in outcomes.iter().enumerate() {
            let when = Micros::from_micros(at);
            let outcome = if dropped {
                any_drop = true;
                RequestOutcome::Dropped(when)
            } else {
                if when > last { last = when; }
                RequestOutcome::Completed(when)
            };
            let res = t.record(q, outcome);
            if i + 1 < outcomes.len() {
                prop_assert!(res.is_none(), "closed early");
            } else {
                finished = res;
            }
        }
        let fin = finished.expect("closed exactly at the last record");
        let expect_good = !any_drop
            && outcomes.iter().all(|&(at, _)| at <= deadline_us);
        prop_assert_eq!(fin.good, expect_good);
        prop_assert_eq!(t.live_count(), 0);
    }
}

/// Strategy: 1–5 classes over the known app zoo, each with a unique name
/// (so permutation determinism is exact, not just up-to-interchangeable-
/// classes) and a bounded rate.
fn arb_classes() -> impl Strategy<Value = Vec<TrafficClass>> {
    prop::collection::vec((0usize..3, 10.0f64..400.0), 1..6).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (app_idx, rate))| {
                let app = [apps::traffic(), apps::dance(), apps::game()][app_idx].clone();
                let mut class = TrafficClass::new(app, ArrivalKind::Uniform, rate);
                class.name = format!("{}-{i}", class.name);
                class
            })
            .collect()
    })
}

/// Strategy: 1–3 pools over distinct device classes with small sizes.
fn arb_pools() -> impl Strategy<Value = Vec<crate::control::DevicePool>> {
    use nexus_profile::{GPU_K80, GPU_V100};
    (1usize..4, 2u32..10, 2u32..10, 2u32..10).prop_map(|(n, a, b, c)| {
        [(GPU_GTX1080TI, a), (GPU_K80, b), (GPU_V100, c)][..n]
            .iter()
            .map(|&(device, gpus)| crate::control::DevicePool { device, gpus })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pool-aware planning respects capacity: no pool's plan ever uses
    /// more GPUs than the pool has, every session lands on a real pool,
    /// and every route targets a deployed backend.
    #[test]
    fn pooled_plans_never_exceed_pool_size(
        classes in arb_classes(),
        pools in arb_pools(),
    ) {
        let cfg = SystemConfig::nexus();
        let avail: Vec<u32> = pools.iter().map(|p| p.gpus).collect();
        let plan = crate::control::plan_pooled(&classes, &cfg, &pools, &avail, None).unwrap();
        prop_assert_eq!(plan.pools.len(), pools.len());
        for (pp, pool) in plan.pools.iter().zip(&pools) {
            prop_assert!(
                pp.allocation.plans.len() <= pool.gpus as usize,
                "pool {} packed {} plans into {} GPUs",
                pp.pool,
                pp.allocation.plans.len(),
                pool.gpus
            );
        }
        let nbackends: usize = plan.pools.iter().map(|p| p.allocation.plans.len()).sum();
        for s in &plan.sessions {
            prop_assert!(s.pool < pools.len());
        }
        for targets in &plan.routes {
            for t in targets {
                prop_assert!(t.backend < nbackends, "route to phantom backend {}", t.backend);
            }
        }
    }
}

fn faulted_run(seed: u64, faults: Vec<FaultSpec>) -> crate::cluster::SimResult {
    ClusterSim::try_new(
        SimConfig {
            system: SystemConfig::nexus().with_static_allocation(),
            device: GPU_GTX1080TI,
            max_gpus: 2,
            seed,
            horizon: Micros::from_secs(4),
            warmup: Micros::from_secs(1),
            trace_capacity: 0,
            faults,
        },
        vec![TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 20.0)],
    )
    .expect("known models")
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Simulation determinism extends to fault injection: the same seed and
    /// fault schedule replay to identical results, timelines, and failure
    /// records — the basis for reproducing any recovery experiment.
    #[test]
    fn fault_runs_replay_identically(
        seed in 0u64..1_000,
        slot in 0usize..2,
        at_ms in 1_500u64..3_000,
        kind_idx in 0usize..3,
        dur_ms in 100u64..800,
    ) {
        let kind = [
            FaultKind::Crash,
            FaultKind::Stall { duration: Micros::from_millis(dur_ms) },
            FaultKind::Slowdown { factor: 2.5, duration: Micros::from_millis(dur_ms) },
        ][kind_idx];
        let faults = vec![FaultSpec {
            at: Micros::from_millis(at_ms),
            slot,
            kind,
        }];
        let a = faulted_run(seed, faults.clone());
        let b = faulted_run(seed, faults);
        prop_assert_eq!(a.queries_finished, b.queries_finished);
        prop_assert_eq!(a.query_bad_rate.to_bits(), b.query_bad_rate.to_bits());
        prop_assert_eq!(a.metrics.failures(), b.metrics.failures());
        prop_assert_eq!(a.metrics.timeline(), b.metrics.timeline());
    }
}
