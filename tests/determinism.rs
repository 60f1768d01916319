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
//! equal a pinned constant. The constants were computed at commit
//! `2e427fb`, before the parallel event loop was replaced by the plain
//! calendar queue (DESIGN.md §14), and witness that the replacement moved
//! no output byte; like the golden trace, they change only with a
//! deliberate behaviour change.

use nexus::prelude::*;
use nexus_runtime::{FaultKind, FaultSpec, SimConfig};
use nexus_workload::apps;

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
    let run = assert_replays_to(fig13_fingerprint, 0x6076_e63d_ef39_65db);
    assert!(
        !run.contains("events_processed: 0,"),
        "run processed no events"
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
    let run = assert_replays_to(faulted_traced_fingerprint, 0x9736_f33a_b59a_309f);
    assert!(run.contains("Batch {"), "run captured no trace events");
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
    let run = assert_replays_to(mixed_pool_fingerprint, 0x9f8f_df24_f204_de81);
    assert!(run.contains("Batch {"), "run captured no trace events");
    // Both pools must actually deploy backends, or the cross-pool paths
    // under test were never exercised.
    assert!(
        run.contains("PoolStats { pool: 1"),
        "second pool missing from pool_stats"
    );
}
