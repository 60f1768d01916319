//! The simulator-side chaos gate: a deterministic network-fault schedule
//! at Fig. 13-scale traffic, with routing-epoch updates landing
//! mid-traffic, must conserve every request — arrivals equal completions
//! plus drops-with-cause — and replay byte-identically while faults are
//! in play.
//!
//! The live-socket counterpart of this gate (real frontends, a backend
//! killed mid-run, an epoch pushed mid-traffic) lives in
//! `crates/nexus-serve/tests/front_door.rs`; this file pins the same
//! contract on the simulation, where the fault schedule is exact and
//! repeatable by construction.

use nexus::prelude::*;
use nexus_profile::GPU_K80;
use nexus_runtime::{ClusterSim, SimConfig, TraceEvent};

/// Fig. 13 mini (the golden-trace workload shape) plus every network
/// fault kind the simulator knows, staggered across slots so each one's
/// detection and recovery plays out while epochs keep re-planning.
fn chaos_sim() -> nexus_runtime::SimResult {
    let horizon = Micros::from_secs(10);
    let faults = vec![
        // A hard crash: detected by missed heartbeats, emergency re-pack.
        FaultSpec {
            at: Micros::from_secs(4),
            slot: 0,
            kind: FaultKind::Crash,
        },
        FaultSpec {
            at: Micros::from_secs(7),
            slot: 0,
            kind: FaultKind::Rejoin,
        },
        // A connection drop: stops serving silently, same silhouette as
        // a stall; heals on its own.
        FaultSpec {
            at: Micros::from_secs(5),
            slot: 1,
            kind: FaultKind::ConnDrop {
                duration: Micros::from_millis(600),
            },
        },
        // A heartbeat delay: keeps serving but looks dead — the
        // false-positive path through declare-dead and rejoin.
        FaultSpec {
            at: Micros::from_secs(6),
            slot: 2,
            kind: FaultKind::HeartbeatDelay {
                duration: Micros::from_secs(1),
            },
        },
        // A slow loris: drags execution without dying.
        FaultSpec {
            at: Micros::from_secs(5),
            slot: 3,
            kind: FaultKind::SlowLoris {
                factor: 2.5,
                duration: Micros::from_secs(2),
            },
        },
    ];
    ClusterSim::try_new(
        SimConfig {
            system: SystemConfig::nexus()
                .with_epoch(Micros::from_secs(2))
                .with_spread_factor(1.4)
                .with_rejoin_cooldown(Micros::from_secs(3)),
            device: GPU_K80,
            max_gpus: 8,
            seed: 42,
            horizon,
            warmup: Micros::from_secs(2),
            trace_capacity: 1 << 20,
            faults,
        },
        nexus::workloads::fig13_classes(horizon, 0.08),
    )
    .expect("known models")
    .run()
}

#[test]
fn network_chaos_conserves_every_request() {
    let result = chaos_sim();
    let trace = result.trace.as_ref().expect("tracing enabled");

    let mut arrivals = 0u64;
    let mut completions = 0u64;
    let mut drops = 0u64;
    let mut reallocations = 0u64;
    let mut faults = 0u64;
    for e in trace.events() {
        match e {
            TraceEvent::Arrival { .. } => arrivals += 1,
            TraceEvent::Completion { .. } => completions += 1,
            TraceEvent::Drop { .. } => drops += 1,
            TraceEvent::Reallocation { .. } => reallocations += 1,
            TraceEvent::Fault { .. } => faults += 1,
            _ => {}
        }
    }

    // The chaos actually happened and the control loop kept re-planning
    // mid-traffic (epoch updates, emergency re-packs, rejoin re-packs).
    // 4 injected faults trace as Fault events (the rejoin traces as a
    // Reallocation when its deferred re-pack lands).
    assert!(faults >= 4, "only {faults} fault events traced");
    assert!(
        reallocations >= 2,
        "only {reallocations} deployment swaps traced"
    );

    // Conservation: every request that entered the system left it,
    // exactly once, as a completion or a typed drop. Nothing vanished
    // in a fault window and nothing was double-counted on a retry.
    assert!(arrivals > 1_000, "workload too small ({arrivals} arrivals)");
    assert_eq!(
        arrivals,
        completions + drops,
        "conservation broke: {arrivals} arrivals vs {completions} completions + {drops} drops"
    );

    // Most traffic survives the chaos: the faults degrade, not destroy.
    // (The schedule removes up to 3 of 8 GPUs from service at once while
    // the Fig. 13 surge is ramping, so a quarter of queries going bad is
    // expected; losing half would mean containment failed.)
    assert!(
        result.query_bad_rate < 1.0 / 3.0,
        "bad rate {:.3} under chaos",
        result.query_bad_rate
    );
}

#[test]
fn network_chaos_is_deterministic_across_runs() {
    let reference = format!("{:?}", chaos_sim());
    assert!(!reference.contains("events_processed: 0,"));
    assert_eq!(
        format!("{:?}", chaos_sim()),
        reference,
        "chaos run diverged on replay"
    );
}
