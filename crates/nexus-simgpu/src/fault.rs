//! Fault injection for the simulated GPU fleet: fail-stop crashes,
//! transient stalls, straggler slowdowns, and rejoins, plus the
//! heartbeat-based health bookkeeping the control plane uses to detect
//! them.
//!
//! Faults address *physical* GPU slots (stable indices in `[0,
//! max_gpus)`), not deployment backends — the control plane re-maps
//! backends onto slots every reconfiguration, but hardware dies in place.
//! Injection is fully deterministic: a [`FaultSpec`] schedule is delivered
//! through the simulation's event queue.

use nexus_profile::Micros;
use serde::{Deserialize, Serialize};

/// What goes wrong with a GPU slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail-stop: the GPU vanishes. In-flight batches are lost and its
    /// model state is gone until a `Rejoin`.
    Crash,
    /// Transient stall: the GPU stops answering (no work, no heartbeats)
    /// for `duration`, then resumes with state intact. Stalls longer than
    /// the detection window get declared dead and recover like a rejoin.
    Stall {
        /// How long the slot stays unresponsive.
        duration: Micros,
    },
    /// Straggler: executions stretch by `factor` for `duration`. The slot
    /// keeps answering heartbeats — stragglers degrade latency, they do
    /// not trip fail-stop detection.
    Slowdown {
        /// Multiplier applied to execution durations (≥ 1.0).
        factor: f64,
        /// How long the slowdown lasts.
        duration: Micros,
    },
    /// A crashed (or declared-dead) slot comes back empty, ready to be
    /// re-packed by the next scheduling round.
    Rejoin,
    /// Network fault: the connection to the slot drops for `duration`.
    /// From the controller's seat this is indistinguishable from a stall —
    /// no new work can be dispatched and heartbeats go unanswered — but it
    /// is a *network* failure: the device underneath is fine and resumes
    /// with state intact the instant the path heals.
    ConnDrop {
        /// How long the connection stays down.
        duration: Micros,
    },
    /// Network fault: heartbeat replies are delayed/lost for `duration`
    /// while the data path keeps working. The slot serves batches the
    /// whole time; only the control plane goes blind. Delays longer than
    /// the detection window produce a *false-positive* death: the
    /// controller re-packs around a perfectly healthy backend.
    HeartbeatDelay {
        /// How long heartbeats go missing.
        duration: Micros,
    },
    /// Network fault: a slow-loris backend — responses trickle back
    /// stretched by `factor` for `duration` while heartbeats stay timely.
    /// Like [`FaultKind::Slowdown`] it degrades latency without tripping
    /// fail-stop detection, but models a starving network path rather
    /// than a busy device.
    SlowLoris {
        /// Multiplier applied to execution durations (≥ 1.0).
        factor: f64,
        /// How long the trickle lasts.
        duration: Micros,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Virtual time of injection.
    pub at: Micros,
    /// Physical GPU slot the fault hits.
    pub slot: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule (time-sorted).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    faults: Vec<FaultSpec>,
}

impl FaultSchedule {
    /// Builds a schedule from explicit specs, sorting by time (ties keep
    /// the given order — stable, so schedules are reproducible).
    pub fn new(mut faults: Vec<FaultSpec>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultSchedule { faults }
    }

    /// The time-sorted fault specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }
}

/// Health state of one physical slot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotHealth {
    /// Serving and answering heartbeats.
    Healthy,
    /// Serving, but executions stretch by the factor.
    Slowed(f64),
    /// Alive but unresponsive; resumes when the stall ends.
    Stalled,
    /// Network path down: no new work reaches the slot and heartbeats go
    /// unanswered, but the device is fine (resumes instantly on heal).
    Disconnected,
    /// Serving normally, but heartbeat replies are lost — the control
    /// plane sees silence while the data plane keeps working.
    Muted,
    /// Fail-stopped; model state lost until rejoin.
    Crashed,
}

/// Result of one heartbeat poll of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// The slot answered; its missed-beat counter reset.
    Alive,
    /// The slot missed this beat but is below the declare threshold.
    Missed(u32),
    /// This beat crossed the threshold: the slot is now declared dead.
    NewlyDead,
    /// Already declared dead (no state change).
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct SlotState {
    health: SlotHealth,
    missed: u32,
    declared_dead: bool,
}

/// Per-slot health of the GPU fleet: the ground truth the fault injector
/// mutates, and the controller's view (missed heartbeats, declared-dead
/// flags) layered on top.
#[derive(Debug, Clone)]
pub struct FleetHealth {
    slots: Vec<SlotState>,
}

impl FleetHealth {
    /// A fleet of `n` healthy slots.
    pub fn new(n: usize) -> Self {
        FleetHealth {
            slots: vec![
                SlotState {
                    health: SlotHealth::Healthy,
                    missed: 0,
                    declared_dead: false,
                };
                n
            ],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the slot executes work (healthy, merely slowed, or muted —
    /// a muted slot's data path works even though its heartbeats do not).
    pub fn serving(&self, slot: usize) -> bool {
        matches!(
            self.slots[slot].health,
            SlotHealth::Healthy | SlotHealth::Slowed(_) | SlotHealth::Muted
        )
    }

    /// Execution-duration multiplier for the slot (1.0 unless slowed).
    pub fn slowdown(&self, slot: usize) -> f64 {
        match self.slots[slot].health {
            SlotHealth::Slowed(f) => f,
            _ => 1.0,
        }
    }

    /// Whether the controller has declared the slot dead.
    pub fn is_dead(&self, slot: usize) -> bool {
        self.slots[slot].declared_dead
    }

    /// Whether the slot has fail-stopped (ground truth, independent of
    /// detection).
    pub fn crashed(&self, slot: usize) -> bool {
        self.slots[slot].health == SlotHealth::Crashed
    }

    /// Slots the controller knows it cannot use.
    pub fn dead_count(&self) -> usize {
        self.slots.iter().filter(|s| s.declared_dead).count()
    }

    /// Fail-stops the slot.
    pub fn crash(&mut self, slot: usize) {
        self.slots[slot].health = SlotHealth::Crashed;
    }

    /// Stalls the slot (kept until [`FleetHealth::end_fault`]). A crashed
    /// slot stays crashed.
    pub fn stall(&mut self, slot: usize) {
        if self.slots[slot].health != SlotHealth::Crashed {
            self.slots[slot].health = SlotHealth::Stalled;
        }
    }

    /// Slows the slot by `factor` (kept until [`FleetHealth::end_fault`]).
    /// Crashed or stalled slots are unaffected.
    pub fn slow(&mut self, slot: usize, factor: f64) {
        assert!(factor >= 1.0, "slowdown factor must be at least 1");
        if matches!(
            self.slots[slot].health,
            SlotHealth::Healthy | SlotHealth::Slowed(_)
        ) {
            self.slots[slot].health = SlotHealth::Slowed(factor);
        }
    }

    /// Drops the network path to the slot (kept until
    /// [`FleetHealth::end_fault`]). A crashed slot stays crashed.
    pub fn disconnect(&mut self, slot: usize) {
        if self.slots[slot].health != SlotHealth::Crashed {
            self.slots[slot].health = SlotHealth::Disconnected;
        }
    }

    /// Mutes the slot's heartbeats while its data path keeps serving
    /// (kept until [`FleetHealth::end_fault`]). A crashed slot stays
    /// crashed.
    pub fn mute(&mut self, slot: usize) {
        if self.slots[slot].health != SlotHealth::Crashed {
            self.slots[slot].health = SlotHealth::Muted;
        }
    }

    /// Ends a timed fault (stall/slowdown/disconnect/mute). Crashes
    /// persist until [`FleetHealth::revive`].
    pub fn end_fault(&mut self, slot: usize) {
        if self.slots[slot].health != SlotHealth::Crashed {
            self.slots[slot].health = SlotHealth::Healthy;
        }
    }

    /// Brings the slot back healthy and clears the controller's dead flag
    /// (a rejoin).
    pub fn revive(&mut self, slot: usize) {
        self.slots[slot] = SlotState {
            health: SlotHealth::Healthy,
            missed: 0,
            declared_dead: false,
        };
    }

    /// One controller heartbeat of the slot: responsive slots reset their
    /// missed counter; unresponsive ones accumulate misses and cross into
    /// declared-dead after `threshold` consecutive misses.
    pub fn poll(&mut self, slot: usize, threshold: u32) -> PollOutcome {
        let s = &mut self.slots[slot];
        if s.declared_dead {
            return PollOutcome::Dead;
        }
        if matches!(s.health, SlotHealth::Healthy | SlotHealth::Slowed(_)) {
            s.missed = 0;
            return PollOutcome::Alive;
        }
        s.missed += 1;
        if s.missed >= threshold {
            s.declared_dead = true;
            PollOutcome::NewlyDead
        } else {
            PollOutcome::Missed(s.missed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    #[test]
    fn schedule_sorts_by_time() {
        let s = FaultSchedule::new(vec![
            FaultSpec {
                at: ms(50),
                slot: 1,
                kind: FaultKind::Rejoin,
            },
            FaultSpec {
                at: ms(10),
                slot: 1,
                kind: FaultKind::Crash,
            },
        ]);
        assert_eq!(s.specs()[0].at, ms(10));
        assert_eq!(s.specs()[1].at, ms(50));
    }

    #[test]
    fn crash_stops_serving_until_revive() {
        let mut fleet = FleetHealth::new(4);
        assert!(fleet.serving(2));
        fleet.crash(2);
        assert!(!fleet.serving(2));
        assert!(fleet.crashed(2));
        // end_fault does not resurrect a crash.
        fleet.end_fault(2);
        assert!(fleet.crashed(2));
        fleet.revive(2);
        assert!(fleet.serving(2));
        assert!(!fleet.is_dead(2));
    }

    #[test]
    fn stall_and_slowdown_are_transient() {
        let mut fleet = FleetHealth::new(2);
        fleet.stall(0);
        assert!(!fleet.serving(0));
        fleet.end_fault(0);
        assert!(fleet.serving(0));
        fleet.slow(1, 3.0);
        assert!(fleet.serving(1));
        assert_eq!(fleet.slowdown(1), 3.0);
        fleet.end_fault(1);
        assert_eq!(fleet.slowdown(1), 1.0);
    }

    #[test]
    fn detection_takes_exactly_threshold_misses() {
        let mut fleet = FleetHealth::new(1);
        fleet.crash(0);
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(1));
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(2));
        assert_eq!(fleet.poll(0, 3), PollOutcome::NewlyDead);
        assert_eq!(fleet.poll(0, 3), PollOutcome::Dead);
        assert!(fleet.is_dead(0));
        assert_eq!(fleet.dead_count(), 1);
    }

    #[test]
    fn healthy_polls_reset_missed_beats() {
        let mut fleet = FleetHealth::new(1);
        fleet.stall(0);
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(1));
        // The stall ends before the threshold: counter resets.
        fleet.end_fault(0);
        assert_eq!(fleet.poll(0, 3), PollOutcome::Alive);
        fleet.stall(0);
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(1));
    }

    #[test]
    fn slowdown_does_not_trip_detection() {
        let mut fleet = FleetHealth::new(1);
        fleet.slow(0, 5.0);
        for _ in 0..10 {
            assert_eq!(fleet.poll(0, 3), PollOutcome::Alive);
        }
        assert!(!fleet.is_dead(0));
    }

    #[test]
    fn crash_wins_over_later_transients() {
        let mut fleet = FleetHealth::new(1);
        fleet.crash(0);
        fleet.stall(0);
        fleet.slow(0, 2.0);
        fleet.disconnect(0);
        fleet.mute(0);
        assert!(fleet.crashed(0));
        assert_eq!(fleet.slowdown(0), 1.0);
        assert!(!fleet.serving(0));
    }

    #[test]
    fn disconnect_stops_serving_and_misses_beats() {
        let mut fleet = FleetHealth::new(1);
        fleet.disconnect(0);
        assert!(!fleet.serving(0));
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(1));
        // The path heals before detection: instant resumption.
        fleet.end_fault(0);
        assert!(fleet.serving(0));
        assert_eq!(fleet.poll(0, 3), PollOutcome::Alive);
    }

    #[test]
    fn muted_slot_serves_but_trips_detection() {
        let mut fleet = FleetHealth::new(1);
        fleet.mute(0);
        // Data path up the whole time...
        assert!(fleet.serving(0));
        assert_eq!(fleet.slowdown(0), 1.0);
        // ...yet the controller sees silence and declares it dead: the
        // canonical false-positive failure.
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(1));
        assert_eq!(fleet.poll(0, 3), PollOutcome::Missed(2));
        assert_eq!(fleet.poll(0, 3), PollOutcome::NewlyDead);
        assert!(fleet.serving(0));
        assert!(fleet.is_dead(0));
    }
}
