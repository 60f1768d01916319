//! Execution trace capture: a bounded, serializable record of what the
//! data plane did, for debugging and offline analysis.
//!
//! Tracing is off by default (`SimConfig::trace_capacity = 0`); when
//! enabled the simulator records request lifecycles as *phase spans* —
//! arrival, queue wait, batched execution, completion — plus drop causes
//! and control-plane markers, up to a bounded event count (oldest runs are
//! not evicted — the bound caps memory, and hitting it is reported via
//! [`Trace::truncated`]).
//!
//! The phase model (DESIGN.md §12): a completed request's lifetime
//! partitions exactly into `[arrival, exec_start)` (queue wait, including
//! any crash-limbo time before a retry) and `[exec_start, completion)`
//! (batched execution). [`TraceEvent::Completion`] carries `exec_start`
//! and the id of the batch that served it, so the partition is
//! reconstructible from the completion event alone even when earlier
//! events were truncated away.

use serde::{Deserialize, Serialize};

use nexus_profile::Micros;
use nexus_scheduler::SessionId;
use nexus_simgpu::FaultKind;

/// Why a request was dropped instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// Frontend admission reject: no replica hosts the session (plan
    /// infeasible or capacity-capped).
    NoRoute,
    /// The early-drop window sacrificed it to keep batches efficient,
    /// although it could still have met its deadline alone (§4.3).
    EarlySacrifice,
    /// Its remaining deadline budget no longer covered even a batch-of-one
    /// execution — doomed under any policy.
    Expired,
    /// A deployment swap left its session unhosted before it was served.
    Orphaned,
    /// Lost to a dead GPU: in-flight on the crash, or stranded with too
    /// little budget (or no surviving route) for a retry.
    Stranded,
    /// Still queued when the run ended.
    RunEnd,
    /// The edge admission controller rejected it before it was enqueued:
    /// the analytic overload gate (predicted p99 vs. arrival rate)
    /// decided admitting it would push the session past its SLO. Unlike
    /// [`DropCause::Expired`] the request itself still had budget — the
    /// *queue* did not.
    AdmissionRejected,
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A request entered the frontend.
    Arrival {
        /// Virtual time.
        t: Micros,
        /// Request id.
        request: u64,
        /// Session.
        session: SessionId,
    },
    /// A batch executed on a backend.
    Batch {
        /// Execution start.
        t: Micros,
        /// Backend index.
        backend: usize,
        /// Session served.
        session: SessionId,
        /// Inputs in the batch.
        size: u32,
        /// Execution duration.
        duration: Micros,
        /// The ladder rung (slot capacity) the batch executed in. Equal to
        /// `size` when the slot ran full; larger when the tail minibatch
        /// was padded. Classic (non-ladder) execution reports the batch
        /// size itself, i.e. occupancy 1.
        rung: u32,
        /// Whether this batch is a leftover sub-batch: a ladder minibatch
        /// after the first in one slot's greedy rung-fill sequence
        /// (DESIGN.md §16).
        leftover: bool,
        /// Trace-unique batch id; completions reference it so a request
        /// can be tied to the batch that served it.
        seq: u64,
    },
    /// A request completed.
    Completion {
        /// Completion time.
        t: Micros,
        /// Request id.
        request: u64,
        /// Session.
        session: SessionId,
        /// Arrival-to-completion latency.
        latency: Micros,
        /// When the serving batch started executing: the queue-wait phase
        /// is `[t - latency, exec_start)`, the execution phase is
        /// `[exec_start, t)`; the two partition the lifetime exactly.
        exec_start: Micros,
        /// The serving batch's [`TraceEvent::Batch::seq`].
        batch_seq: u64,
        /// Whether the deadline was met.
        good: bool,
    },
    /// A request was dropped.
    Drop {
        /// Drop time.
        t: Micros,
        /// Request id.
        request: u64,
        /// Session.
        session: SessionId,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// The control plane replaced the deployment.
    Reallocation {
        /// When.
        t: Micros,
        /// New GPU count.
        gpus: u32,
        /// Model loads the swap required.
        model_loads: usize,
    },
    /// A fault was injected into a GPU slot.
    Fault {
        /// Injection time.
        t: Micros,
        /// Physical GPU slot.
        gpu: usize,
        /// What happened.
        kind: FaultKind,
    },
    /// The controller declared a GPU slot dead (k missed heartbeats).
    FailureDetected {
        /// Detection time.
        t: Micros,
        /// Physical GPU slot.
        gpu: usize,
    },
    /// A request stranded on a dead backend was re-dispatched (its
    /// remaining deadline budget still covered ℓ(1)).
    Retry {
        /// Retry time.
        t: Micros,
        /// Request id.
        request: u64,
        /// Session.
        session: SessionId,
    },
    /// A previously dead GPU slot rejoined the fleet.
    Rejoin {
        /// Rejoin time.
        t: Micros,
        /// Physical GPU slot.
        gpu: usize,
    },
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn time(&self) -> Micros {
        match *self {
            TraceEvent::Arrival { t, .. }
            | TraceEvent::Batch { t, .. }
            | TraceEvent::Completion { t, .. }
            | TraceEvent::Drop { t, .. }
            | TraceEvent::Reallocation { t, .. }
            | TraceEvent::Fault { t, .. }
            | TraceEvent::FailureDetected { t, .. }
            | TraceEvent::Retry { t, .. }
            | TraceEvent::Rejoin { t, .. } => t,
        }
    }
}

/// A bounded event trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events that arrived after the capacity was reached.
    pub truncated: u64,
    /// Batch ids handed out so far (ids keep advancing past truncation so
    /// completions stay attributable).
    next_seq: u64,
}

impl Trace {
    /// Creates a trace bounded to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            truncated: 0,
            next_seq: 0,
        }
    }

    /// Records an event (dropped and counted once full).
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.truncated += 1;
        }
    }

    /// Allocates the next batch id (1-based; 0 means "untraced").
    pub(crate) fn alloc_batch_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// The recorded events, in record order (equals time order — the
    /// simulator emits monotonically).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut t = Trace::new(3);
        for i in 0..5u64 {
            t.push(TraceEvent::Arrival {
                t: ms(i),
                request: i,
                session: SessionId(0),
            });
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.truncated, 2);
    }

    #[test]
    fn failure_events_carry_times_and_filter_correctly() {
        let mut t = Trace::new(100);
        t.push(TraceEvent::Fault {
            t: ms(10),
            gpu: 3,
            kind: FaultKind::Crash,
        });
        t.push(TraceEvent::FailureDetected { t: ms(12), gpu: 3 });
        t.push(TraceEvent::Retry {
            t: ms(12),
            request: 42,
            session: SessionId(1),
        });
        t.push(TraceEvent::Rejoin { t: ms(30), gpu: 3 });
        assert_eq!(t.events()[0].time(), ms(10));
        assert_eq!(t.events()[3].time(), ms(30));
        // Retry is session-scoped; the fleet events are not.
        assert!(matches!(
            t.events()[2],
            TraceEvent::Retry {
                session: SessionId(1),
                ..
            }
        ));
    }

    #[test]
    fn batch_seqs_advance_past_truncation() {
        let mut t = Trace::new(1);
        assert_eq!(t.alloc_batch_seq(), 1);
        t.push(TraceEvent::Rejoin { t: ms(1), gpu: 0 });
        t.push(TraceEvent::Rejoin { t: ms(2), gpu: 0 });
        assert_eq!(t.truncated, 1);
        assert_eq!(t.alloc_batch_seq(), 2);
    }

    #[test]
    fn events_serialize_round_trip() {
        let mut t = Trace::new(10);
        t.push(TraceEvent::Completion {
            t: ms(5),
            request: 7,
            session: SessionId(2),
            latency: ms(4),
            exec_start: ms(3),
            batch_seq: 1,
            good: true,
        });
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events(), t.events());
    }
}
