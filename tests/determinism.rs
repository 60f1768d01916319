//! Replay determinism: a run is a pure function of its config and seed, so
//! every observable output — event counts, metrics, bad-rate bit patterns,
//! even the execution trace — must repeat exactly, in this process and
//! across commits.
//!
//! These tests fingerprint the `Debug` rendering of the full [`SimResult`]:
//! Rust formats `f64` as the shortest round-trippable string, so equal
//! strings mean equal bit patterns for every float in the result, and the
//! rendering covers the per-session/timeline metrics and captured trace
//! wholesale (`SimResult` holds no hash-ordered container, so the string
//! is process-stable). Each fingerprint is checked twice: two in-process
//! runs must render identically, and the FNV-1a-64 of the rendering must
//! equal a pinned constant. Like the golden trace, the constants change
//! only with a deliberate behaviour change. They were last re-pinned when
//! coordinated wakes began to be armed from slot readiness (DESIGN.md
//! §11), which removed no-op wake events and let two backends launching in
//! the same microsecond swap order.
//!
//! Each of the six simulator fingerprints has a companion that hashes
//! the same rendering with `events_processed` masked. An event-loop change
//! that schedules fewer no-op events moves the raw hash but must leave the
//! masked one alone unless it also moves a simulated outcome. The masked
//! constants were first computed at commit `c94eb56`, before that change;
//! the Fig. 13 one held across it. The fourth, a single-GPU run under an
//! operator-given rotating plan, was pinned when the single-GPU studies
//! moved onto `ClusterSim` (DESIGN.md §16). The first four all run Nexus
//! itself: coordinated backends with ladders on. The last two pin the
//! other two execution paths, Clipper's interfering containers and TF
//! Serving's coordinated classic batches, each under a straggler; they
//! were computed at commit `55c0505`, before the three launch paths became
//! one (DESIGN.md §11).
//!
//! One more fingerprint covers the planner alone — allocations, budgets,
//! routes and backend assignments at the benchmark's 280-class shape. Its
//! constant was computed at commit `a625466`, before the epoch path's
//! quadratic loops were rewritten (DESIGN.md §18), and is the byte-identity
//! gate for planner changes that `perf`'s GPU counts cannot give.

use nexus::prelude::*;
use nexus_profile::GPU_V100;
use nexus_runtime::{plan_pooled, FaultKind, FaultSpec, NodeSession, SimConfig};
use nexus_scheduler::{assign_plans, GpuPlan};
use nexus_workload::{all_apps, apps};

/// FNV-1a-64: a stable hash safe to pin (unlike `DefaultHasher`, whose
/// algorithm is not guaranteed across releases).
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `fingerprint` twice: both renderings must be equal and hash to
/// `pinned`. Returns the rendering so the caller can check the run did
/// the work under test.
fn assert_replays_to(fingerprint: impl Fn() -> String, pinned: u64) -> String {
    let first = fingerprint();
    assert!(first == fingerprint(), "second in-process run diverged");
    assert_eq!(
        fnv1a64(&first),
        pinned,
        "output moved against the pinned fingerprint {pinned:#018x}"
    );
    first
}

/// `run` with the number after `events_processed: ` replaced by `_`.
fn events_masked(run: &str) -> String {
    const KEY: &str = "events_processed: ";
    let start = run.find(KEY).expect("SimResult renders events_processed") + KEY.len();
    let digits = run[start..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}_{}", &run[..start], &run[start + digits..])
}

/// A small Fig. 13 deployment run (all seven applications, surge included)
/// through the public `run_once` entry point.
fn fig13_fingerprint() -> String {
    let horizon = Micros::from_secs(6);
    let result = run_once(
        SystemConfig::nexus()
            .with_epoch(Micros::from_secs(2))
            .with_spread_factor(1.4),
        GPU_K80,
        8,
        nexus::workloads::fig13_classes(horizon, 0.08),
        42,
        Micros::from_secs(2),
        horizon,
        0,
    );
    format!("{result:?}")
}

#[test]
fn fig13_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(fig13_fingerprint, 0x9da8_2af5_35e0_3438);
    assert!(
        !run.contains("events_processed: 0,"),
        "run processed no events"
    );
}

#[test]
fn fig13_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(
        || events_masked(&fig13_fingerprint()),
        0x0530_e22e_32b1_ce29,
    );
}

/// Fault injection plus execution tracing through `ClusterSim` directly:
/// crash/rejoin events and per-batch trace timestamps exercise the paths
/// `run_once` leaves dormant.
fn faulted_traced_fingerprint() -> String {
    let result = ClusterSim::new(
        SimConfig {
            system: SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
            device: GPU_GTX1080TI,
            max_gpus: 6,
            seed: 7,
            horizon: Micros::from_secs(8),
            warmup: Micros::from_secs(2),
            trace_capacity: 200_000,
            faults: vec![
                FaultSpec {
                    at: Micros::from_secs(3),
                    slot: 0,
                    kind: FaultKind::Crash,
                },
                FaultSpec {
                    at: Micros::from_secs(5),
                    slot: 0,
                    kind: FaultKind::Rejoin,
                },
            ],
        },
        vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Poisson,
            150.0,
        )],
    )
    .run();
    format!("{result:?}")
}

#[test]
fn faulted_traced_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(faulted_traced_fingerprint, 0x1a8d_5b24_296e_86d5);
    assert!(run.contains("Batch {"), "run captured no trace events");
}

#[test]
fn faulted_traced_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(
        || events_masked(&faulted_traced_fingerprint()),
        0x45c9_72ef_b605_0e11,
    );
}

/// Mixed-pool determinism: a heterogeneous fleet (1080Ti + K80 pools) with
/// faults and tracing enabled. Backends are globally indexed across pools
/// and stages hand off between them.
fn mixed_pool_fingerprint() -> String {
    let pools = vec![
        DevicePool {
            device: GPU_GTX1080TI,
            gpus: 5,
        },
        DevicePool {
            device: GPU_K80,
            gpus: 4,
        },
    ];
    let result = ClusterSim::try_new_pooled(
        SimConfig {
            system: SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
            device: GPU_GTX1080TI,
            max_gpus: 0, // derived from the pools
            seed: 11,
            horizon: Micros::from_secs(8),
            warmup: Micros::from_secs(2),
            trace_capacity: 200_000,
            faults: vec![
                FaultSpec {
                    at: Micros::from_secs(3),
                    slot: 1,
                    kind: FaultKind::Crash,
                },
                FaultSpec {
                    at: Micros::from_secs(5),
                    slot: 1,
                    kind: FaultKind::Rejoin,
                },
            ],
        },
        pools,
        vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 400.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Poisson, 60.0),
            TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 15.0),
        ],
    )
    .expect("pooled plan")
    .run();
    format!("{result:?}")
}

#[test]
fn mixed_pool_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(mixed_pool_fingerprint, 0xab3f_0604_d116_8179);
    assert!(run.contains("Batch {"), "run captured no trace events");
    // Both pools must actually deploy backends, or the cross-pool paths
    // under test were never exercised.
    assert!(
        run.contains("PoolStats { pool: 1"),
        "second pool missing from pool_stats"
    );
}

#[test]
fn mixed_pool_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(
        || events_masked(&mixed_pool_fingerprint()),
        0x2014_fb37_be6e_9a7b,
    );
}

/// One GPU under an operator-given plan, traced: the Fig. 14 k = 5 point
/// (five Inception copies, 100 ms SLO) near its committed capacity, with
/// ladders on, so every slot rotates its batch assignments.
fn node_fingerprint() -> String {
    let profile = nexus_profile::catalog::INCEPTION3
        .profile_1080ti()
        .effective(true, 4);
    let sessions: Vec<NodeSession> = (0..5)
        .map(|_| NodeSession {
            profile: profile.clone(),
            slo: Micros::from_millis(100),
            rate: 112.0,
            arrival: ArrivalKind::Uniform,
        })
        .collect();
    let result = ClusterSim::try_new_node(
        SimConfig {
            system: SystemConfig::nexus().with_static_allocation(),
            device: GPU_GTX1080TI,
            max_gpus: 1,
            seed: 42,
            horizon: Micros::from_secs(4),
            warmup: Micros::from_secs(1),
            trace_capacity: 200_000,
            faults: vec![],
        },
        &sessions,
    )
    .expect("a static single-GPU plan")
    .run();
    format!("{result:?}")
}

#[test]
fn node_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(node_fingerprint, 0x618a_8726_0e14_d9cb);
    assert!(run.contains("Batch {"), "run captured no trace events");
}

#[test]
fn node_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(|| events_masked(&node_fingerprint()), 0xae4d_df6f_5397_e903);
}

/// A traced baseline run under `system` with a straggler: the multi-stage
/// `traffic` and `game` apps on six K80s, and slot 0 slowed 2× from 3 s to
/// 6 s, so child spawns, the batch durations and their straggler scaling
/// all reach the rendering.
fn baseline_fingerprint(system: SystemConfig) -> String {
    let result = ClusterSim::new(
        SimConfig {
            system: system.with_epoch(Micros::from_secs(2)),
            device: GPU_GTX1080TI,
            max_gpus: 6,
            seed: 23,
            horizon: Micros::from_secs(8),
            warmup: Micros::from_secs(2),
            trace_capacity: 200_000,
            faults: vec![FaultSpec {
                at: Micros::from_secs(3),
                slot: 0,
                kind: FaultKind::Slowdown {
                    factor: 2.0,
                    duration: Micros::from_secs(3),
                },
            }],
        },
        vec![
            TrafficClass::new(apps::traffic(), ArrivalKind::Poisson, 60.0),
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 100.0),
        ],
    )
    .run();
    format!("{result:?}")
}

/// Clipper: uncoordinated containers with interference, lazy drop and
/// classic (ladder-off) batches.
fn clipper_fingerprint() -> String {
    baseline_fingerprint(SystemConfig::clipper())
}

/// TF Serving: a coordinated backend running classic batches with no
/// dropping at all.
fn tf_serving_fingerprint() -> String {
    baseline_fingerprint(SystemConfig::tf_serving())
}

#[test]
fn clipper_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(clipper_fingerprint, 0x6d5a_02db_3e1f_0e5e);
    assert!(run.contains("Batch {"), "run captured no trace events");
}

#[test]
fn clipper_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(
        || events_masked(&clipper_fingerprint()),
        0x0877_db5c_4cde_d49f,
    );
}

#[test]
fn tf_serving_run_replays_to_the_pinned_fingerprint() {
    let run = assert_replays_to(tf_serving_fingerprint, 0xf0e2_5ec5_ec52_0fb2);
    assert!(run.contains("Batch {"), "run captured no trace events");
}

#[test]
fn tf_serving_run_with_events_masked_replays_to_the_pinned_fingerprint() {
    assert_replays_to(
        || events_masked(&tf_serving_fingerprint()),
        0x24d4_8e66_ad02_9cde,
    );
}

/// The planner alone, at the benchmark's `replan_tenants` shape: 40 tenants
/// × the 7 Table 4 apps (SLO × 2.0–4.0 evenly spaced over tenants,
/// Zipf(0.9) rates summing to 20 000 dealt by a fixed stride), planned on a
/// mixed V100 / 1080Ti / K80 fleet and on one K80 pool from the spec rates
/// and then for three epochs of a fixed ±10 % rate wobble, each epoch's
/// plans matched onto the previous epoch's by `assign_plans`. The
/// rendering covers every pool's allocation, the budgets, the routes and
/// the assignments, so a planner change that moves any batch, duty cycle,
/// replica, route weight bit or backend match shows here — the
/// byte-identity gate `perf` (which reads GPU counts and timings) cannot
/// give.
fn planner_fingerprint() -> String {
    const TENANTS: usize = 40;
    let apps = all_apps();
    let n = TENANTS * apps.len();
    let raw: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-0.9)).collect();
    let total: f64 = raw.iter().sum();
    let mut classes = Vec::with_capacity(n);
    for tenant in 0..TENANTS {
        let slo_mult = 2.0 + 2.0 * tenant as f64 / (TENANTS - 1) as f64;
        for (ai, app) in apps.iter().enumerate() {
            // 37 is coprime to 280: a fixed permutation of the ranks.
            let rank = (tenant * apps.len() + ai) * 37 % n;
            let mut app = app.clone();
            app.slo = app.slo.scale(slo_mult);
            let rate = raw[rank] / total * 20_000.0;
            classes.push(TrafficClass::new(app, ArrivalKind::Poisson, rate));
        }
    }
    // Epoch `e` is told class `c` ran at its rate × a factor in
    // [0.9, 1.1]: 41 evenly spaced factors dealt by a stride coprime to 41.
    let observed = |e: usize| -> Vec<f64> {
        classes
            .iter()
            .enumerate()
            .map(|(c, class)| class.rate * (0.9 + 0.005 * ((c * 17 + e * 29 + 5) % 41) as f64))
            .collect()
    };
    let pool = |device, gpus| DevicePool { device, gpus };
    let fleets = [
        vec![
            pool(GPU_V100, 200),
            pool(GPU_GTX1080TI, 600),
            pool(GPU_K80, 200),
        ],
        vec![pool(GPU_K80, 1_000)],
    ];
    let cfg = SystemConfig::nexus();
    let mut out = String::new();
    for pools in &fleets {
        let avail: Vec<u32> = pools.iter().map(|p| p.gpus).collect();
        let mut prev: Option<Vec<GpuPlan>> = None;
        for epoch in 0..4 {
            let rates = (epoch > 0).then(|| observed(epoch));
            let plan = plan_pooled(&classes, &cfg, pools, &avail, rates.as_deref())
                .expect("Table 4 apps name catalog models");
            let next: Vec<GpuPlan> = plan.iter_plans().cloned().collect();
            let assignment = prev.as_ref().map(|prev| assign_plans(prev, &next));
            let allocations: Vec<_> = plan.pools.iter().map(|p| &p.allocation).collect();
            out.push_str(&format!(
                "{allocations:?}\n{:?}\n{:?}\n{assignment:?}\n",
                plan.budgets, plan.routes
            ));
            prev = Some(next);
        }
    }
    out
}

#[test]
fn planner_fingerprint_is_pinned() {
    let run = assert_replays_to(planner_fingerprint, 0xc7d7_0dbd_fcff_7b46);
    assert!(
        run.contains("saturated: false") && run.contains("model_loads"),
        "no residual node packed or no epoch assigned"
    );
}
