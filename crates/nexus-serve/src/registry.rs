//! Health-checked backend registry.
//!
//! The frontend never consults raw heartbeat counters when routing; it
//! asks the registry, which wraps failure detection behind a small
//! liveness state machine per backend:
//!
//! ```text
//!            beat                    beat
//!   Healthy ◄──── Suspect ◄────┐   ┌─────► Rejoining ──── grace beats ──► Healthy
//!      │  miss ≥ suspect  ▲    │   │            │
//!      └──────────────────┘    │   │            │ miss
//!              Suspect ── miss ≥ dead ──► Dead ─┘◄┘
//! ```
//!
//! `Suspect` is the hedge between the two failure-detection errors: a
//! suspect backend stays routable (a false positive must not shed
//! capacity) but a prober can bias new work away from it. `Dead` is the
//! only unroutable state. A dead backend that beats again does not jump
//! straight back to `Healthy` — it must hold `rejoin_grace` consecutive
//! beats in `Rejoining` first, so one lucky heartbeat from a flapping
//! machine does not immediately re-attract traffic.

use nexus_profile::Micros;

/// Liveness of one backend, as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Beating on schedule; fully routable.
    Healthy,
    /// Missing beats but not yet declared dead; still routable.
    Suspect,
    /// Declared dead; never routable.
    Dead,
    /// Beating again after death; routable, but one miss sends it back
    /// to [`Liveness::Dead`].
    Rejoining,
}

/// Failure-detection thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// How often the frontend probes each backend.
    pub probe_interval: Micros,
    /// Consecutive misses before `Healthy` degrades to `Suspect`.
    pub suspect_after: u32,
    /// Consecutive misses before `Suspect` degrades to `Dead`.
    pub dead_after: u32,
    /// Consecutive beats a dead backend must hold in `Rejoining` before
    /// it is trusted as `Healthy` again.
    pub rejoin_grace: u32,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            probe_interval: Micros::from_millis(100),
            suspect_after: 1,
            dead_after: 3,
            rejoin_grace: 2,
        }
    }
}

/// One observed liveness transition, for tracing and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Backend that moved.
    pub backend: u32,
    /// State before the probe result.
    pub from: Liveness,
    /// State after.
    pub to: Liveness,
    /// Probe timestamp.
    pub at: Micros,
}

#[derive(Debug, Clone)]
struct Entry {
    liveness: Liveness,
    /// Consecutive misses while alive (reset by any beat).
    misses: u32,
    /// Consecutive beats while rejoining (reset by any miss).
    grace_beats: u32,
}

/// The registry: liveness per backend id, updated by probe results.
#[derive(Debug, Clone)]
pub struct BackendRegistry {
    cfg: RegistryConfig,
    entries: Vec<Entry>,
}

impl BackendRegistry {
    /// A registry tracking backends `0..n`, all initially healthy.
    pub fn new(n: usize, cfg: RegistryConfig) -> Self {
        assert!(cfg.suspect_after >= 1, "suspect_after must be at least 1");
        assert!(
            cfg.dead_after > cfg.suspect_after,
            "dead_after must exceed suspect_after, else Suspect is unreachable"
        );
        assert!(cfg.rejoin_grace >= 1, "rejoin_grace must be at least 1");
        BackendRegistry {
            cfg,
            entries: vec![
                Entry {
                    liveness: Liveness::Healthy,
                    misses: 0,
                    grace_beats: 0,
                };
                n
            ],
        }
    }

    /// Number of tracked backends.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry tracks no backends.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Detection thresholds in force.
    pub fn config(&self) -> RegistryConfig {
        self.cfg
    }

    /// Current liveness of `backend`.
    pub fn liveness(&self, backend: u32) -> Liveness {
        self.entries[backend as usize].liveness
    }

    /// Whether the router may send work to `backend`. Everything but
    /// [`Liveness::Dead`] is routable: suspicion is a bias, not a ban.
    pub(crate) fn routable(&self, backend: u32) -> bool {
        self.entries[backend as usize].liveness != Liveness::Dead
    }

    /// Records a successful probe of `backend` at `now`. Returns the
    /// transition if liveness changed.
    pub(crate) fn record_beat(&mut self, backend: u32, now: Micros) -> Option<Transition> {
        let grace = self.cfg.rejoin_grace;
        let e = &mut self.entries[backend as usize];
        let from = e.liveness;
        e.misses = 0;
        match e.liveness {
            Liveness::Healthy => {}
            Liveness::Suspect => e.liveness = Liveness::Healthy,
            Liveness::Dead => {
                e.liveness = Liveness::Rejoining;
                e.grace_beats = 1;
            }
            Liveness::Rejoining => {
                e.grace_beats += 1;
                if e.grace_beats >= grace {
                    e.liveness = Liveness::Healthy;
                    e.grace_beats = 0;
                }
            }
        }
        (e.liveness != from).then_some(Transition {
            backend,
            from,
            to: e.liveness,
            at: now,
        })
    }

    /// Records a failed probe of `backend` at `now`. Returns the
    /// transition if liveness changed.
    pub(crate) fn record_miss(&mut self, backend: u32, now: Micros) -> Option<Transition> {
        let cfg = self.cfg;
        let e = &mut self.entries[backend as usize];
        let from = e.liveness;
        match e.liveness {
            Liveness::Dead => {}
            // One miss while on probation and the backend is dead again:
            // probation exists to catch exactly this flapping.
            Liveness::Rejoining => {
                e.liveness = Liveness::Dead;
                e.grace_beats = 0;
                e.misses = 0;
            }
            Liveness::Healthy | Liveness::Suspect => {
                e.misses += 1;
                if e.misses >= cfg.dead_after {
                    e.liveness = Liveness::Dead;
                    e.misses = 0;
                } else if e.misses >= cfg.suspect_after {
                    e.liveness = Liveness::Suspect;
                }
            }
        }
        (e.liveness != from).then_some(Transition {
            backend,
            from,
            to: e.liveness,
            at: now,
        })
    }
}

/// Whether `from → to` is an edge of the liveness state machine. The
/// property test below holds every observed transition to this.
pub fn valid_edge(from: Liveness, to: Liveness) -> bool {
    use Liveness::*;
    matches!(
        (from, to),
        (Healthy, Suspect)
            | (Suspect, Healthy)
            | (Suspect, Dead)
            | (Dead, Rejoining)
            | (Rejoining, Healthy)
            | (Rejoining, Dead)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reg(cfg: RegistryConfig) -> BackendRegistry {
        BackendRegistry::new(4, cfg)
    }

    #[test]
    fn the_happy_degradation_path() {
        let mut r = reg(RegistryConfig::default());
        let t0 = Micros::ZERO;
        assert_eq!(r.liveness(0), Liveness::Healthy);
        // First miss: suspect, still routable.
        let t = r.record_miss(0, t0).expect("transition");
        assert_eq!((t.from, t.to), (Liveness::Healthy, Liveness::Suspect));
        assert!(r.routable(0));
        // Beat recovers without passing through probation.
        let t = r.record_beat(0, t0).expect("transition");
        assert_eq!((t.from, t.to), (Liveness::Suspect, Liveness::Healthy));
        // Three consecutive misses kill it.
        r.record_miss(0, t0);
        r.record_miss(0, t0);
        let t = r.record_miss(0, t0).expect("transition");
        assert_eq!(t.to, Liveness::Dead);
        assert!(!r.routable(0));
        assert_eq!((0..r.len() as u32).filter(|&b| r.routable(b)).count(), 3);
    }

    #[test]
    fn rejoin_requires_grace_and_one_miss_re_kills() {
        let mut r = reg(RegistryConfig::default());
        for _ in 0..3 {
            r.record_miss(1, Micros::ZERO);
        }
        assert_eq!(r.liveness(1), Liveness::Dead);
        // First beat: probation, routable again.
        let t = r.record_beat(1, Micros::ZERO).expect("transition");
        assert_eq!(t.to, Liveness::Rejoining);
        assert!(r.routable(1));
        // A single miss on probation is instant death.
        let t = r.record_miss(1, Micros::ZERO).expect("transition");
        assert_eq!(t.to, Liveness::Dead);
        // Two consecutive beats (rejoin_grace = 2) restore trust.
        r.record_beat(1, Micros::ZERO);
        let t = r.record_beat(1, Micros::ZERO).expect("transition");
        assert_eq!((t.from, t.to), (Liveness::Rejoining, Liveness::Healthy));
    }

    #[test]
    fn steady_beats_are_silent() {
        let mut r = reg(RegistryConfig::default());
        for _ in 0..100 {
            assert!(r.record_beat(2, Micros::ZERO).is_none());
        }
        assert_eq!(r.liveness(2), Liveness::Healthy);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: under any interleaving of beats and misses, the
        /// registry only ever walks valid edges of the state machine,
        /// and a dead backend is never routable.
        #[test]
        fn random_probe_histories_stay_on_the_state_machine(
            outcomes in prop::collection::vec(prop::bool::Any, 1..200usize),
            suspect_after in 1u32..3,
            extra_dead in 1u32..4,
            rejoin_grace in 1u32..4,
        ) {
            let cfg = RegistryConfig {
                probe_interval: Micros::from_millis(100),
                suspect_after,
                dead_after: suspect_after + extra_dead,
                rejoin_grace,
            };
            let mut r = BackendRegistry::new(1, cfg);
            let mut prev = r.liveness(0);
            for (i, beat) in outcomes.iter().enumerate() {
                let now = Micros::from_millis(100 * (i as u64 + 1));
                let tr = if *beat {
                    r.record_beat(0, now)
                } else {
                    r.record_miss(0, now)
                };
                let cur = r.liveness(0);
                match tr {
                    Some(t) => {
                        prop_assert_eq!(t.from, prev);
                        prop_assert_eq!(t.to, cur);
                        prop_assert!(
                            valid_edge(t.from, t.to),
                            "invalid edge {:?} -> {:?}", t.from, t.to
                        );
                        prop_assert!(t.from != t.to);
                    }
                    None => prop_assert_eq!(cur, prev),
                }
                // The routing invariant: dead means unroutable, and
                // nothing else does.
                prop_assert_eq!(r.routable(0), cur != Liveness::Dead);
                prev = cur;
            }
        }
    }
}
