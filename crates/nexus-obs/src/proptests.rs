//! Property tests for the observability layer: phase spans partition every
//! request lifetime exactly (no gaps, no overlaps), and the trace file
//! format round-trips every event stream losslessly.

#![cfg(test)]

use proptest::prelude::*;

use nexus_profile::{Micros, GPU_GTX1080TI};
use nexus_runtime::{
    ClusterSim, DropCause, DropPolicy, NodeSession, SimConfig, SystemConfig, TraceEvent,
};
use nexus_scheduler::SessionId;
use nexus_simgpu::FaultKind;
use nexus_workload::ArrivalKind;

use crate::phases::reconstruct;
use crate::raw;

/// Strategy for one arbitrary trace event, variant chosen by index.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        0usize..9,
        0u64..10_000_000, // t (µs)
        0u64..1_000_000,  // request / seq
        0u32..64,         // session
        (0u64..200_000, 0u64..400_000, 0usize..8, 1u32..64),
    )
        .prop_map(|(variant, t, id, session, (a, b, gpu, small))| {
            let t = Micros::from_micros(t);
            let session = SessionId(session);
            match variant {
                0 => TraceEvent::Arrival {
                    t,
                    request: id,
                    session,
                },
                1 => TraceEvent::Batch {
                    t,
                    backend: gpu,
                    session,
                    size: small,
                    duration: Micros::from_micros(b),
                    rung: small.next_power_of_two(),
                    leftover: a % 2 == 1,
                    seq: id,
                },
                2 => TraceEvent::Completion {
                    t: t + Micros::from_micros(a + b),
                    request: id,
                    session,
                    latency: Micros::from_micros(a + b),
                    exec_start: t + Micros::from_micros(a),
                    batch_seq: id / 2,
                    good: a % 2 == 0,
                },
                3 => TraceEvent::Drop {
                    t,
                    request: id,
                    session,
                    cause: match a % 6 {
                        0 => DropCause::NoRoute,
                        1 => DropCause::EarlySacrifice,
                        2 => DropCause::Expired,
                        3 => DropCause::Orphaned,
                        4 => DropCause::Stranded,
                        _ => DropCause::RunEnd,
                    },
                },
                4 => TraceEvent::Reallocation {
                    t,
                    gpus: small,
                    model_loads: gpu,
                },
                5 => TraceEvent::Fault {
                    t,
                    gpu,
                    kind: match a % 4 {
                        0 => FaultKind::Crash,
                        1 => FaultKind::Rejoin,
                        2 => FaultKind::Stall {
                            duration: Micros::from_micros(b),
                        },
                        _ => FaultKind::Slowdown {
                            factor: 1.0 + (a % 300) as f64 / 100.0,
                            duration: Micros::from_micros(b),
                        },
                    },
                },
                6 => TraceEvent::FailureDetected { t, gpu },
                7 => TraceEvent::Retry {
                    t,
                    request: id,
                    session,
                },
                _ => TraceEvent::Rejoin { t, gpu },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless round-trip: encode → serialize → parse → decode recovers
    /// every event bit-for-bit, for arbitrary event streams, and encoding
    /// what was decoded writes the same bytes again.
    #[test]
    fn trace_file_round_trips_losslessly(
        events in prop::collection::vec(arb_event(), 0..40),
        truncated in 0u64..1_000,
    ) {
        let text = raw::encode(&events, truncated, None).to_string();
        let doc = crate::json::parse(&text).expect("own output parses");
        let back = raw::decode(&doc).expect("own output decodes");
        prop_assert_eq!(raw::encode(&back.events, back.truncated, None).to_string(), text);
        prop_assert_eq!(back.events, events);
        prop_assert_eq!(back.truncated, truncated);
    }

    /// Synthetic lifetimes: for any (arrival, queue, exec) triple, the
    /// reconstructed span partitions [arrival, completion] exactly —
    /// queue = [arrival, exec_start), exec = [exec_start, completion),
    /// no gap and no overlap.
    #[test]
    fn spans_partition_synthetic_lifetimes(
        lifetimes in prop::collection::vec(
            (0u64..5_000_000, 0u64..500_000, 1u64..500_000),
            1..50,
        ),
    ) {
        let events: Vec<TraceEvent> = lifetimes
            .iter()
            .enumerate()
            .map(|(i, &(arrival, queue, exec))| TraceEvent::Completion {
                t: Micros::from_micros(arrival + queue + exec),
                request: i as u64,
                session: SessionId(0),
                latency: Micros::from_micros(queue + exec),
                exec_start: Micros::from_micros(arrival + queue),
                batch_seq: 1,
                good: true,
            })
            .collect();
        let ph = reconstruct(&events);
        prop_assert_eq!(ph.spans.len(), lifetimes.len());
        for (span, &(arrival, queue, exec)) in ph.spans.iter().zip(&lifetimes) {
            prop_assert_eq!(span.arrival.as_micros(), arrival);
            prop_assert_eq!(span.queue_wait().as_micros(), queue);
            prop_assert_eq!(span.exec().as_micros(), exec);
            // The partition property: phases tile the lifetime exactly.
            prop_assert_eq!(span.queue_wait() + span.exec(), span.total());
            prop_assert!(span.arrival <= span.exec_start);
            prop_assert!(span.exec_start <= span.completion);
        }
    }

    /// End-to-end: traces captured from real (randomly loaded) node
    /// simulations obey the partition property for every completion, and
    /// every batch a completion references was allocated by the recorder.
    #[test]
    fn spans_partition_simulated_lifetimes(
        seed in 0u64..1_000,
        rate in 50.0f64..1_500.0,
        slo_ms in 40u64..200,
    ) {
        let cfg = SimConfig {
            system: SystemConfig {
                drop_policy: DropPolicy::Early,
                ladder: false,
                ..SystemConfig::nexus().with_static_allocation()
            },
            device: GPU_GTX1080TI,
            max_gpus: 1,
            seed,
            horizon: Micros::from_secs(3),
            warmup: Micros::from_secs(1),
            trace_capacity: 1 << 20,
            faults: vec![],
        };
        let session = NodeSession {
            profile: nexus_profile::BatchingProfile::from_linear_ms(1.0, 10.0, 32),
            slo: Micros::from_millis(slo_ms),
            rate,
            arrival: ArrivalKind::Poisson,
        };
        let out = ClusterSim::try_new_node(cfg, &[session]).expect("a static plan").run();
        let trace = out.trace.expect("tracing enabled");
        prop_assert_eq!(trace.truncated, 0);
        let ph = reconstruct(trace.events());
        let max_seq = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Batch { seq, .. } => Some(*seq),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        for span in &ph.spans {
            prop_assert_eq!(span.queue_wait() + span.exec(), span.total());
            prop_assert!(span.arrival <= span.exec_start);
            prop_assert!(span.exec_start <= span.completion);
            prop_assert!(span.batch_seq >= 1 && span.batch_seq <= max_seq);
        }
    }
}
