//! Epoch-versioned session routing tables.
//!
//! The scheduler pushes a new routing table each epoch (§5: frontends
//! hold per-session replica sets and route with weighted round robin).
//! The push is three-phase — `begin(e)`, one `route` per session,
//! `commit(e)` — and the frontend keeps serving the *previous* epoch for
//! the entire push: the active table is an `Arc` swapped atomically at
//! commit, so an update lands mid-traffic without a dropped epoch and
//! without a lock on the request path. In-flight requests that snapshot
//! the old table drain under it (the retired `Arc` keeps it alive), which
//! is exactly the paper's hand-off rule: a frontend holding epoch N
//! serves N until N+1 is *fully* applied.
//!
//! A `begin` that arrives while another push is pending discards the
//! partial silently — the scheduler crashed or re-sent — and the active
//! table is untouched. A `commit` with a mismatched epoch is refused for
//! the same reason.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nexus_profile::Micros;

use crate::registry::BackendRegistry;

/// One epoch's immutable routing table: replica sets per session.
#[derive(Debug)]
pub struct RouteTable {
    /// The epoch this table belongs to.
    pub epoch: u64,
    /// `routes[session]` = backend ids serving that session.
    routes: Vec<Vec<u32>>,
    /// Shared round-robin cursor. One counter across sessions is enough:
    /// each session indexes it modulo its own replica count, and the
    /// frontend only needs spread, not strict per-session fairness.
    cursor: AtomicU64,
}

impl RouteTable {
    /// Builds a table. `routes[s]` lists the backends serving session `s`.
    pub fn new(epoch: u64, routes: Vec<Vec<u32>>) -> Self {
        RouteTable {
            epoch,
            routes,
            cursor: AtomicU64::new(0),
        }
    }

    /// Replica set for `session` (empty slice if the session is unknown).
    pub fn replicas(&self, session: u32) -> &[u32] {
        self.routes.get(session as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of sessions the table covers.
    pub fn sessions(&self) -> usize {
        self.routes.len()
    }

    /// Picks a backend for `session`: round robin over its replicas,
    /// skipping unroutable (dead) backends and `exclude` (the backend a
    /// failed first attempt came from). `None` if every replica is
    /// excluded or dead — the caller drops with `NoRoute`.
    pub fn pick(
        &self,
        session: u32,
        registry: &BackendRegistry,
        exclude: Option<u32>,
    ) -> Option<u32> {
        let replicas = self.replicas(session);
        if replicas.is_empty() {
            return None;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) as usize;
        (0..replicas.len())
            .map(|i| replicas[(start + i) % replicas.len()])
            .find(|&b| Some(b) != exclude && registry.routable(b))
    }
}

/// State of an epoch push in flight.
#[derive(Debug)]
struct Pending {
    epoch: u64,
    routes: Vec<Vec<u32>>,
}

/// Owns the active table and applies epoch pushes.
///
/// Request threads call `snapshot` (one `Arc` clone, no lock held across
/// I/O); the control connection drives `begin`/`route`/`commit` under the
/// frontend's control lock.
#[derive(Debug)]
pub struct EpochRouter {
    active: Arc<RouteTable>,
    pending: Option<Pending>,
    /// Every epoch ever committed, in order — the "zero dropped epochs"
    /// assertion reads this.
    applied: Vec<u64>,
    /// Retired tables kept alive until `sunset_grace` after retirement,
    /// belt-and-braces for stragglers beyond the in-flight `Arc`s.
    retired: Vec<(Arc<RouteTable>, Micros)>,
    sunset_grace: Micros,
}

impl EpochRouter {
    /// A router starting at epoch 0 with no sessions routed.
    pub fn new(sunset_grace: Micros) -> Self {
        EpochRouter {
            active: Arc::new(RouteTable::new(0, Vec::new())),
            pending: None,
            applied: Vec::new(),
            retired: Vec::new(),
            sunset_grace,
        }
    }

    /// The table requests should route under right now.
    pub(crate) fn snapshot(&self) -> Arc<RouteTable> {
        Arc::clone(&self.active)
    }

    /// Epochs committed so far, in commit order.
    pub fn applied(&self) -> &[u64] {
        &self.applied
    }

    /// Starts a push. Discards any pending partial push.
    pub(crate) fn begin(&mut self, epoch: u64) {
        self.pending = Some(Pending {
            epoch,
            routes: Vec::new(),
        });
    }

    /// Drops the pending push, if any. The active table is untouched.
    pub(crate) fn abort(&mut self) {
        self.pending = None;
    }

    /// Adds one session's replica set to the pending push. Ignored if no
    /// push is pending (a stale route after a discarded partial).
    pub fn route(&mut self, session: u32, backends: Vec<u32>) {
        if let Some(p) = &mut self.pending {
            let idx = session as usize;
            if p.routes.len() <= idx {
                p.routes.resize_with(idx + 1, Vec::new);
            }
            p.routes[idx] = backends;
        }
    }

    /// Atomically applies the pending push if `epoch` matches it.
    /// Returns the applied epoch (to ack) or `None` if there was nothing
    /// matching to commit — the active table is untouched either way.
    pub fn commit(&mut self, epoch: u64, now: Micros) -> Option<u64> {
        match self.pending.take() {
            Some(p) if p.epoch == epoch => {
                let old = std::mem::replace(
                    &mut self.active,
                    Arc::new(RouteTable::new(p.epoch, p.routes)),
                );
                self.retired.push((old, now));
                let keep_from = now.saturating_sub(self.sunset_grace);
                self.retired.retain(|(_, at)| *at >= keep_from);
                self.applied.push(epoch);
                Some(epoch)
            }
            // Mismatched commit: drop the partial, keep serving.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;

    fn registry(n: usize) -> BackendRegistry {
        BackendRegistry::new(n, RegistryConfig::default())
    }

    #[test]
    fn round_robin_spreads_and_skips_dead() {
        let table = RouteTable::new(1, vec![vec![0, 1, 2]]);
        let mut reg = registry(3);
        let mut seen = [0u32; 3];
        for _ in 0..300 {
            seen[table.pick(0, &reg, None).expect("route") as usize] += 1;
        }
        assert_eq!(seen, [100, 100, 100]);
        // Kill backend 1: its share redistributes, never routed.
        for _ in 0..3 {
            reg.record_miss(1, Micros::ZERO);
        }
        for _ in 0..300 {
            assert_ne!(table.pick(0, &reg, None), Some(1));
        }
    }

    #[test]
    fn exclude_forces_a_different_backend_or_none() {
        let table = RouteTable::new(1, vec![vec![3], vec![3, 4]]);
        let reg = registry(5);
        // Single replica, excluded: no route.
        assert_eq!(table.pick(0, &reg, Some(3)), None);
        // Two replicas: always the other one.
        for _ in 0..10 {
            assert_eq!(table.pick(1, &reg, Some(3)), Some(4));
        }
    }

    #[test]
    fn a_push_applies_atomically_and_the_old_epoch_drains() {
        let mut router = EpochRouter::new(Micros::from_secs(1));
        router.begin(1);
        router.route(0, vec![0, 1]);
        assert_eq!(router.commit(1, Micros::ZERO), Some(1));

        // A request snapshots epoch 1, then epoch 2 lands mid-flight.
        let in_flight = router.snapshot();
        router.begin(2);
        router.route(0, vec![2]);
        assert_eq!(router.snapshot().epoch, 1, "serving old epoch until commit");
        assert_eq!(router.commit(2, Micros::from_millis(5)), Some(2));
        assert_eq!(router.snapshot().epoch, 2);

        // The in-flight request still routes under the table it started
        // with — the old epoch drains, it is not yanked.
        assert_eq!(in_flight.epoch, 1);
        assert_eq!(in_flight.replicas(0), &[0, 1]);
        assert_eq!(router.applied(), &[1, 2], "no dropped epochs");
    }

    #[test]
    fn partial_pushes_never_touch_the_active_table() {
        let mut router = EpochRouter::new(Micros::ZERO);
        router.begin(1);
        router.route(0, vec![0]);
        router.commit(1, Micros::ZERO);

        // Push 2 stalls after one route; push 3 begins — 2 is discarded.
        router.begin(2);
        router.route(0, vec![9]);
        router.begin(3);
        assert_eq!(router.snapshot().epoch, 1);

        // A commit for the wrong epoch is refused, the discarded push 2
        // included.
        assert_eq!(router.commit(2, Micros::ZERO), None);
        assert_eq!(router.snapshot().epoch, 1);
        assert_eq!(router.snapshot().replicas(0), &[0]);
        assert_eq!(router.applied(), &[1]);
    }
}
