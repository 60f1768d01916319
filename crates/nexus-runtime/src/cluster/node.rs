//! Operator-given single-GPU plans: the one-GPU studies of §4.3 and §7.5
//! (Fig. 5, Fig. 9, Fig. 14, Fig. 15) run on the backend that serves the
//! cluster.
//!
//! The operator names each session's profile, SLO, rate and arrival
//! process. [`ClusterSim::try_new_node`] plans the one GPU the way those
//! micro-benchmarks need — a shared round-robin fit (rotated under
//! ladders) or one container per session — and deploys it like any other
//! plan: one backend, one single-stage traffic class per session.

use nexus_profile::{BatchingProfile, Micros};
use nexus_scheduler::{Allocation, GpuPlan, PlanEntry, SessionId};
use nexus_workload::{AppSpec, AppStage, ArrivalKind};

use super::{ClusterSim, SimConfig};
use crate::control::{
    build_route_table, ControlPlan, PlanError, PoolPlan, RuntimeSession, TrafficClass,
};

/// One session an operator offers a single GPU.
#[derive(Debug, Clone)]
pub struct NodeSession {
    /// Effective batching profile (CPU folded in).
    pub profile: BatchingProfile,
    /// Latency SLO per request.
    pub slo: Micros,
    /// Offered rate, req/s.
    pub rate: f64,
    /// Arrival process.
    pub arrival: ArrivalKind,
}

impl ClusterSim {
    /// Builds a simulator that serves `sessions` on one GPU of
    /// `cfg.device` under an operator-given plan; `cfg.max_gpus` is
    /// ignored.
    ///
    /// Sessions are admitted in order while `cfg.device.memory_bytes`
    /// lasts; the rest are left in the plan's `infeasible` list with no
    /// route, so their arrivals drop as [`DropCause::NoRoute`]. Coordinated
    /// execution shares one duty cycle fitted so every session's worst
    /// case `Σℓ(b_j) + ℓ(b_i)` meets its SLO, rotated across
    /// interchangeable sessions when `cfg.system.ladder` is on;
    /// uncoordinated execution gives each session its SLO-max batch in its
    /// own container. Profiles are taken as given, so `cfg.system`'s
    /// planner settings (scheduler, overlap, CPU workers, prefix batching,
    /// query analysis, spread) do not apply.
    ///
    /// [`DropCause::NoRoute`]: crate::DropCause::NoRoute
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::FixedPlan`] if `cfg.system.epoch` is not
    /// `Micros::MAX` or `cfg.faults` is non-empty: an operator plan is
    /// never re-planned.
    ///
    /// # Examples
    ///
    /// ```
    /// use nexus_profile::{BatchingProfile, Micros, GPU_GTX1080TI};
    /// use nexus_runtime::{ClusterSim, NodeSession, SimConfig, SystemConfig};
    /// use nexus_workload::ArrivalKind;
    ///
    /// let cfg = SimConfig {
    ///     system: SystemConfig::nexus().with_static_allocation(),
    ///     device: GPU_GTX1080TI,
    ///     max_gpus: 1,
    ///     seed: 1,
    ///     horizon: Micros::from_secs(10),
    ///     warmup: Micros::from_secs(2),
    ///     trace_capacity: 0,
    ///     faults: vec![],
    /// };
    /// let session = NodeSession {
    ///     profile: BatchingProfile::from_linear_ms(1.0, 8.0, 32),
    ///     slo: Micros::from_millis(100),
    ///     rate: 200.0,
    ///     arrival: ArrivalKind::Uniform,
    /// };
    /// let result = ClusterSim::try_new_node(cfg, &[session]).unwrap().run();
    /// assert!(result.query_bad_rate < 0.01);
    /// assert!((result.query_goodput - 200.0).abs() < 5.0);
    /// ```
    pub fn try_new_node(mut cfg: SimConfig, sessions: &[NodeSession]) -> Result<Self, PlanError> {
        if cfg.system.epoch != Micros::MAX {
            return Err(PlanError::FixedPlan {
                setting: "system.epoch",
            });
        }
        if !cfg.faults.is_empty() {
            return Err(PlanError::FixedPlan { setting: "faults" });
        }
        cfg.max_gpus = 1;
        let (control, rotations) = node_plan(&cfg, sessions);
        let classes = sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let app = AppSpec {
                    name: format!("session {i}"),
                    slo: s.slo,
                    stages: vec![AppStage {
                        model: String::new(),
                        variants: 1,
                        children: Vec::new(),
                    }],
                    streams: 1,
                };
                TrafficClass::new(app, s.arrival, s.rate)
            })
            .collect();
        let mut sim = ClusterSim::deploy(cfg, classes, control, Vec::new());
        if let Some(backend) = sim.backends.first_mut() {
            for (slot, rotation) in backend.slots.iter_mut().zip(rotations) {
                if rotation.len() > 1 {
                    // Every step is a rung, so each launch runs a compiled
                    // shape.
                    let base = &slot.profile;
                    slot.ladder = rotation
                        .iter()
                        .fold(slot.ladder.clone(), |l, &b| l.with_rung(b, base));
                    slot.target_batch = rotation[0];
                    slot.rotation = rotation.into();
                }
            }
        }
        Ok(sim)
    }
}

/// The one-GPU plan for `sessions`, and each hosted entry's cyclic batch
/// assignments (one step unless rotated). An entry's `batch` is the
/// largest step: it bounds the slot's share of the duty cycle.
fn node_plan(cfg: &SimConfig, sessions: &[NodeSession]) -> (ControlPlan, Vec<Vec<u32>>) {
    let system = &cfg.system;
    let mut memory = 0u64;
    let mut infeasible = Vec::new();
    let mut hosted = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        let bytes = s.profile.memory_bytes();
        if memory + bytes <= cfg.device.memory_bytes {
            memory += bytes;
            hosted.push(i);
        } else {
            infeasible.push(SessionId(i as u32));
        }
    }
    let offered: Vec<NodeSession> = hosted.iter().map(|&i| sessions[i].clone()).collect();
    let rotations: Vec<Vec<u32>> = if system.coordinated && system.ladder {
        plan_shared_ladder(&offered)
    } else if system.coordinated {
        fit_shared_batches(&offered)
            .into_iter()
            .map(|b| vec![b])
            .collect()
    } else {
        offered
            .iter()
            .map(|s| vec![s.profile.max_batch_for_slo(s.slo).max(1)])
            .collect()
    };
    let entries: Vec<PlanEntry> = hosted
        .iter()
        .zip(&rotations)
        .map(|(&i, rotation)| {
            let batch = rotation.iter().copied().max().unwrap_or(1);
            PlanEntry {
                session: SessionId(i as u32),
                batch,
                exec_latency: sessions[i].profile.latency_clamped(batch),
            }
        })
        .collect();
    // Coordinated: staggered rotation runs exactly one multiset per cycle,
    // so the duty cycle is the sum of one cycle's assignments. Containers
    // gather for b / rate, which the slot caps at SLO / 2.
    let duty_cycle = if system.coordinated {
        offered
            .iter()
            .zip(&rotations)
            .map(|(s, r)| s.profile.latency(r[0]))
            .sum()
    } else {
        offered
            .iter()
            .zip(&rotations)
            .map(|(s, r)| Micros::from_secs_f64(f64::from(r[0]) / s.rate))
            .min()
            .unwrap_or(Micros::ZERO)
    };
    let plans = if entries.is_empty() {
        Vec::new()
    } else {
        let busy: Micros = entries.iter().map(|e| e.exec_latency).sum();
        vec![GpuPlan {
            duty_cycle,
            occupancy: busy.as_secs_f64() / duty_cycle.as_secs_f64().max(1e-9),
            entries,
            saturated: false,
            memory_bytes: memory,
        }]
    };
    let pools = vec![PoolPlan {
        pool: 0,
        device: cfg.device,
        gpus: 1,
        first_backend: 0,
        allocation: Allocation { plans, infeasible },
    }];
    let control = ControlPlan {
        sessions: sessions
            .iter()
            .enumerate()
            .map(|(i, s)| RuntimeSession {
                id: SessionId(i as u32),
                class: i,
                stage: 0,
                variant: 0,
                variant_count: 1,
                exec_profile: s.profile.clone().into(),
                budget: s.slo,
                deadline_offset: s.slo,
                est_rate: s.rate,
                pool: 0,
            })
            .collect(),
        routes: build_route_table(sessions.len(), &pools),
        pools,
        budgets: sessions.iter().map(|s| vec![s.slo]).collect(),
    };
    (control, rotations)
}

/// Fits shared round-robin batch sizes: start each session at its
/// standalone SLO-max batch, then shrink the largest contributor until
/// every session's worst-case latency `Σℓ(b_j) + ℓ(b_i) ≤ L_i` (or all
/// batches hit 1 — an overloaded node that will shed).
fn fit_shared_batches(sessions: &[NodeSession]) -> Vec<u32> {
    let mut b: Vec<u32> = sessions
        .iter()
        .map(|s| s.profile.max_batch_for_slo(s.slo).max(1))
        .collect();
    loop {
        let cycle: Micros = sessions
            .iter()
            .zip(&b)
            .map(|(s, &bi)| s.profile.latency(bi))
            .sum();
        let violated = sessions
            .iter()
            .zip(&b)
            .any(|(s, &bi)| cycle + s.profile.latency(bi) > s.slo);
        if !violated {
            return b;
        }
        // Shrink the largest batch-latency contributor that can shrink.
        let worst = (0..sessions.len())
            .filter(|&i| b[i] > 1)
            .max_by_key(|&i| sessions[i].profile.latency(b[i]));
        match worst {
            Some(i) => b[i] -= 1,
            None => return b, // everything at 1; overloaded
        }
    }
}

/// Ladder-mode shared planning: a cyclic ladder of batch assignments per
/// slot instead of one static size.
///
/// Starts from [`fit_shared_batches`], then groups interchangeable sessions
/// (identical profile, SLO, and rate) and rotates each group's assignment
/// multiset across its members, staggered so every cycle executes the same
/// multiset. Rotation fixes the static fit's asymmetry — under a plan like
/// `[10,10,9,9,9]` with equal offered load the 9-slots shed while the
/// 10-slots idle; rotated, every member gets the same long-run capacity.
///
/// Because a slot's inter-pull gap is one full duty cycle no matter which
/// assignment it serves, rotation also admits a mild upgrade: the group's
/// largest assignment may overhang the worst-case bound `D + ℓ(b) ≤ L` by
/// up to an eighth of the mean inter-arrival. The overhang only threatens
/// the single oldest request in the upgraded pull, and only in the sliver
/// of arrival phases where its age exceeds `L − ℓ(b)`; early drop
/// sacrifices exactly that request rather than serving it late, so the
/// upgrade buys capacity at a vanishing shed rate.
///
/// Returns one assignment vector per slot; slot `i` serves
/// `plan[i][launches % plan[i].len()]`. Singleton groups get their static
/// fit back unchanged (no rotation partner, no upgrade slack).
fn plan_shared_ladder(sessions: &[NodeSession]) -> Vec<Vec<u32>> {
    let base = fit_shared_batches(sessions);
    // Group interchangeable sessions, preserving first-seen order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..sessions.len() {
        let found = groups.iter_mut().find(|g| {
            let s = &sessions[g[0]];
            s.profile == sessions[i].profile
                && s.slo == sessions[i].slo
                && s.rate == sessions[i].rate
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    // Assignment multiset per group, largest first.
    let mut assign: Vec<Vec<u32>> = groups
        .iter()
        .map(|g| {
            let mut v: Vec<u32> = g.iter().map(|&i| base[i]).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        })
        .collect();
    let duty_of = |assign: &[Vec<u32>]| -> Micros {
        groups
            .iter()
            .zip(assign)
            .flat_map(|(g, a)| {
                let p = &sessions[g[0]].profile;
                a.iter().map(move |&b| p.latency(b))
            })
            .sum()
    };
    let feasible = |assign: &[Vec<u32>]| -> bool {
        let duty = duty_of(assign);
        groups.iter().zip(assign).all(|(g, a)| {
            let s = &sessions[g[0]];
            let top = a[0];
            let slack = if g.len() >= 2 && s.rate > 0.0 {
                Micros::from_secs_f64(1.0 / (8.0 * s.rate))
            } else {
                Micros::ZERO
            };
            a.iter().all(|&b| {
                let allow = if b == top { slack } else { Micros::ZERO };
                duty + s.profile.latency(b) <= s.slo + allow
            })
        })
    };
    // Greedy upgrade: bump the smallest assignment of some rotating group
    // by one while the plan stays feasible and capacity strictly rises —
    // but only for groups whose offered rate exceeds their rotated
    // capacity. Below that the static fit already clears the load, and a
    // bigger gather target would only add latency for nothing.
    loop {
        let duty = duty_of(&assign);
        let total: u32 = assign.iter().flatten().sum();
        let capacity = f64::from(total) / duty.as_micros().max(1) as f64;
        let mut upgraded = false;
        for (gi, g) in groups.iter().enumerate() {
            if g.len() < 2 {
                continue;
            }
            // Per-session capacity of the rotated multiset: each member
            // serves the whole multiset once every `len` duty cycles.
            let served: u32 = assign[gi].iter().sum();
            let per_session =
                f64::from(served) / (g.len() as f64 * duty.as_micros().max(1) as f64 / 1e6);
            if sessions[g[0]].rate <= per_session {
                continue;
            }
            let max_b = sessions[g[0]].profile.max_batch();
            let last = assign[gi].len() - 1;
            if assign[gi][last] >= max_b {
                continue;
            }
            let mut cand = assign.to_vec();
            cand[gi][last] += 1;
            cand[gi].sort_unstable_by(|a, b| b.cmp(a));
            let cand_total: u32 = cand.iter().flatten().sum();
            let cand_cap = f64::from(cand_total) / duty_of(&cand).as_micros().max(1) as f64;
            if cand_cap > capacity && feasible(&cand) {
                assign = cand;
                upgraded = true;
                break;
            }
        }
        if !upgraded {
            break;
        }
    }
    // Stagger: member j of a group starts at offset j in the multiset, so
    // each cycle executes exactly the multiset and the duty stays `D`.
    let mut plan = vec![Vec::new(); sessions.len()];
    for (gi, g) in groups.iter().enumerate() {
        for (j, &si) in g.iter().enumerate() {
            let a = &assign[gi];
            plan[si] = (0..a.len()).map(|c| a[(j + c) % a.len()]).collect();
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::dispatch::DropPolicy;
    use crate::trace::{DropCause, TraceEvent};
    use crate::SimResult;
    use nexus_profile::catalog::INCEPTION3;
    use nexus_profile::{BatchLadder, DeviceType, GPU_GTX1080TI};

    fn cfg(coordinated: bool, policy: DropPolicy, seed: u64) -> SimConfig {
        SimConfig {
            system: SystemConfig {
                coordinated,
                drop_policy: policy,
                ladder: false,
                ..SystemConfig::nexus().with_static_allocation()
            },
            device: GPU_GTX1080TI,
            max_gpus: 1,
            seed,
            horizon: Micros::from_secs(20),
            warmup: Micros::from_secs(5),
            trace_capacity: 0,
            faults: vec![],
        }
    }

    fn run(cfg: SimConfig, sessions: &[NodeSession]) -> SimResult {
        ClusterSim::try_new_node(cfg, sessions)
            .expect("a static plan")
            .run()
    }

    /// Whole-run `(arrived, good, late, dropped)` per session.
    fn counts(r: &SimResult) -> Vec<(u64, u64, u64, u64)> {
        r.metrics
            .sessions()
            .map(|(_, m)| (m.arrived, m.good, m.late, m.dropped))
            .collect()
    }

    fn inception_session(rate: f64, slo_ms: u64) -> NodeSession {
        NodeSession {
            profile: INCEPTION3.profile_1080ti().effective(true, 4),
            slo: Micros::from_millis(slo_ms),
            rate,
            arrival: ArrivalKind::Uniform,
        }
    }

    #[test]
    fn overload_sheds_with_early_drop() {
        // Far beyond one GPU's capacity.
        let s = inception_session(5_000.0, 100);
        let out = run(cfg(true, DropPolicy::Early, 2), &[s]);
        assert!(out.query_bad_rate > 0.3);
        // But the GPU stays productive: goodput near its capacity.
        assert!(out.query_goodput > 500.0, "goodput={}", out.query_goodput);
        assert!(out.gpu_utilization > 0.7, "util={}", out.gpu_utilization);
    }

    #[test]
    fn coordinated_beats_uncoordinated_on_shared_node() {
        // Fig. 14's core claim: 3 Inception copies on one GPU at 100 ms SLO.
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(250.0, 100)).collect();
        let coord = run(cfg(true, DropPolicy::Early, 3), &sessions);
        let uncoord = run(cfg(false, DropPolicy::Early, 3), &sessions);
        assert!(
            coord.query_goodput > uncoord.query_goodput,
            "coordinated {} vs uncoordinated {}",
            coord.query_goodput,
            uncoord.query_goodput
        );
    }

    #[test]
    fn oversized_models_are_rejected_not_crashed() {
        let mut s = inception_session(10.0, 200);
        s.profile = s.profile.with_memory_bytes(64 << 30);
        let sim = ClusterSim::try_new_node(cfg(true, DropPolicy::Early, 4), &[s]).unwrap();
        assert!(sim.control_plan().is_infeasible(SessionId(0)));
        assert_eq!(sim.control_plan().gpu_count(), 0);
        let out = sim.run();
        assert!(out.query_bad_rate > 0.99);
    }

    #[test]
    fn an_operator_plan_refuses_replanning() {
        let s = inception_session(10.0, 200);
        let mut epoch = cfg(true, DropPolicy::Early, 5);
        epoch.system.epoch = Micros::from_secs(30);
        assert_eq!(
            ClusterSim::try_new_node(epoch, std::slice::from_ref(&s)).err(),
            Some(PlanError::FixedPlan {
                setting: "system.epoch"
            })
        );
        let mut faults = cfg(true, DropPolicy::Early, 5);
        faults.faults = vec![crate::FaultSpec {
            at: Micros::from_secs(1),
            slot: 0,
            kind: crate::FaultKind::Crash,
        }];
        assert_eq!(
            ClusterSim::try_new_node(faults, &[s]).err(),
            Some(PlanError::FixedPlan { setting: "faults" })
        );
    }

    #[test]
    fn shared_batches_respect_slos() {
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(100.0, 100)).collect();
        let b = fit_shared_batches(&sessions);
        let cycle: Micros = sessions
            .iter()
            .zip(&b)
            .map(|(s, &bi)| s.profile.latency(bi))
            .sum();
        for (s, &bi) in sessions.iter().zip(&b) {
            assert!(cycle + s.profile.latency(bi) <= s.slo);
        }
    }

    #[test]
    fn shared_ladder_plan_rotates_and_respects_slos() {
        let sessions: Vec<NodeSession> = (0..5).map(|_| inception_session(115.0, 100)).collect();
        let plan = plan_shared_ladder(&sessions);
        // Interchangeable sessions rotate one shared multiset, staggered:
        // every slot's ladder is a rotation of slot 0's, and each cycle
        // (column) executes exactly the multiset.
        let mut multiset = plan[0].clone();
        multiset.sort_unstable();
        for p in &plan {
            assert_eq!(p.len(), sessions.len());
            let mut m = p.clone();
            m.sort_unstable();
            assert_eq!(m, multiset, "same multiset on every slot");
        }
        for c in 0..plan[0].len() {
            let mut col: Vec<u32> = plan.iter().map(|p| p[c]).collect();
            col.sort_unstable();
            assert_eq!(col, multiset, "every cycle serves the full multiset");
        }
        // Duty-cycle accounting: the worst case `D + ℓ(b)` holds strictly
        // for all but the top assignment, which may use the phase slack of
        // an eighth of the mean inter-arrival.
        let duty: Micros = sessions
            .iter()
            .zip(&plan)
            .map(|(s, p)| s.profile.latency(p[0]))
            .sum();
        let top = *multiset.last().expect("non-empty");
        for (s, p) in sessions.iter().zip(&plan) {
            for &b in p {
                let slack = if b == top {
                    Micros::from_secs_f64(1.0 / (8.0 * s.rate))
                } else {
                    Micros::ZERO
                };
                assert!(duty + s.profile.latency(b) <= s.slo + slack);
            }
        }
        // Rotation never plans below the static fit's aggregate.
        let static_sum: u32 = fit_shared_batches(&sessions).iter().sum();
        let rotated_sum: u32 = multiset.iter().sum();
        assert!(rotated_sum >= static_sum);
        // Heterogeneous sessions fall back to their static fit (no
        // rotation partner, no upgrade slack).
        let mixed = vec![inception_session(100.0, 100), inception_session(100.0, 150)];
        let mixed_plan = plan_shared_ladder(&mixed);
        let static_fit = fit_shared_batches(&mixed);
        assert_eq!(mixed_plan[0], vec![static_fit[0]]);
        assert_eq!(mixed_plan[1], vec![static_fit[1]]);
    }

    #[test]
    fn ladder_node_is_deterministic_and_competitive() {
        let sessions: Vec<NodeSession> = (0..4).map(|_| inception_session(220.0, 100)).collect();
        let mut lc = cfg(true, DropPolicy::Early, 11);
        lc.system.ladder = true;
        let a = run(lc.clone(), &sessions);
        let b = run(lc, &sessions);
        assert_eq!(counts(&a), counts(&b), "ladder runs replay identically");
        let classic = run(cfg(true, DropPolicy::Early, 11), &sessions);
        // The ladder serves tight-budget fronts in smaller rungs instead of
        // sacrificing them; goodput must not collapse relative to classic.
        assert!(
            a.query_goodput >= classic.query_goodput * 0.9,
            "ladder {} vs classic {}",
            a.query_goodput,
            classic.query_goodput
        );
    }

    #[test]
    fn ladder_traces_rungs_and_leftovers() {
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(400.0, 100)).collect();
        let mut lc = cfg(true, DropPolicy::Early, 13);
        lc.system.ladder = true;
        lc.trace_capacity = 1 << 20;
        let out = run(lc, &sessions);
        let plan = plan_shared_ladder(&sessions);
        let ladders: Vec<BatchLadder> = sessions
            .iter()
            .zip(&plan)
            .map(|(s, p)| {
                let mut l = BatchLadder::from_profile(&s.profile);
                for &b in p {
                    l = l.with_rung(b, &s.profile);
                }
                l
            })
            .collect();
        let tr = out.trace.expect("enabled");
        let mut batches = 0u64;
        for e in tr.events() {
            if let TraceEvent::Batch {
                session,
                size,
                rung,
                ..
            } = e
            {
                let l = &ladders[session.0 as usize];
                assert!(l.rungs().contains(rung), "executed rung {rung} is a rung");
                assert!(size <= rung, "slot never overfilled: {size} > {rung}");
                batches += 1;
            }
        }
        assert!(batches > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Every request offered to a single-GPU plan ends in exactly one
        /// terminal state, whatever the mix of profiles, SLOs, rates,
        /// arrival processes, execution modes, ladders and drop policies.
        /// Sessions the memory limit leaves unplaced complete nothing, and
        /// each of their drops is a `NoRoute`. Debug builds also run the
        /// lost-wake tripwire at the end of every run.
        #[test]
        fn single_gpu_plans_conserve_requests(
            specs in proptest::prop::collection::vec(
                (0.2f64..3.0, 1.0f64..30.0, 40u64..250, 5.0f64..600.0, 1u64..5, proptest::prop::bool::ANY),
                1..7,
            ),
            memory_gib in 2u64..12,
            coordinated in proptest::prop::bool::ANY,
            ladder in proptest::prop::bool::ANY,
            policy_idx in 0usize..4,
            traced in proptest::prop::bool::ANY,
            seed in 0u64..1_000,
        ) {
            let sessions: Vec<NodeSession> = specs
                .iter()
                .map(|&(alpha, beta, slo_ms, rate, gib, poisson)| NodeSession {
                    profile: BatchingProfile::from_linear_ms(alpha, beta, 32)
                        .with_memory_bytes(gib << 30),
                    slo: Micros::from_millis(slo_ms),
                    rate,
                    arrival: if poisson { ArrivalKind::Poisson } else { ArrivalKind::Uniform },
                })
                .collect();
            let mut cfg = cfg(coordinated, [
                DropPolicy::None,
                DropPolicy::Lazy,
                DropPolicy::Early,
                DropPolicy::Deprioritize,
            ][policy_idx], seed);
            cfg.system.ladder = ladder;
            cfg.device = DeviceType { memory_bytes: memory_gib << 30, ..GPU_GTX1080TI };
            cfg.horizon = Micros::from_secs(3);
            cfg.warmup = Micros::from_secs(1);
            cfg.trace_capacity = if traced { 1 << 20 } else { 0 };
            let sim = ClusterSim::try_new_node(cfg, &sessions).expect("a static plan");
            let unplaced: Vec<bool> = (0..sessions.len())
                .map(|i| sim.control_plan().is_infeasible(SessionId(i as u32)))
                .collect();
            let r = sim.run();
            for (id, m) in r.metrics.sessions() {
                proptest::prop_assert_eq!(m.arrived, m.good + m.late + m.dropped, "session {:?}", id);
                if unplaced[id.0 as usize] {
                    proptest::prop_assert_eq!(m.good + m.late, 0);
                }
            }
            if let Some(trace) = &r.trace {
                proptest::prop_assert_eq!(trace.truncated, 0);
                for e in trace.events() {
                    match e {
                        TraceEvent::Drop { session, cause, .. } if unplaced[session.0 as usize] => {
                            proptest::prop_assert_eq!(*cause, DropCause::NoRoute);
                        }
                        TraceEvent::Completion { session, .. } | TraceEvent::Batch { session, .. } => {
                            proptest::prop_assert!(!unplaced[session.0 as usize]);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
