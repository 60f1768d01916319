//! Batch-aware dispatch: per-session queues with lazy or early drop
//! (§4.3, §6.3 "Adaptive Batching").
//!
//! *Lazy drop* (Clipper's policy): drop a request only once its deadline
//! has already passed, and size the batch by the time budget of the oldest
//! queued request. Under bursty arrivals this degenerates into small,
//! inefficient batches (Fig. 5).
//!
//! *Early drop* (Nexus): slide a window of the scheduler-chosen batch size
//! through the queue; stop at the first request whose remaining budget
//! covers the batched execution of its whole window, and drop everything
//! older (Fig. 9).

use std::collections::VecDeque;

use nexus_profile::{BatchLadder, BatchingProfile, Micros};

use crate::request::Request;
use crate::trace::DropCause;

/// Admission/batching policy of a session queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Clipper-style: drop only already-expired requests.
    Lazy,
    /// Nexus-style sliding-window early drop.
    Early,
    /// Never drop (TensorFlow-Serving-like; late requests still count bad).
    None,
    /// Batch-application mode (§5): never drop, but *deprioritize* —
    /// requests that can still meet their deadline are served first;
    /// already-doomed ones run only when nothing fresh is waiting.
    Deprioritize,
}

/// Result of pulling a batch from a queue.
///
/// Hot paths keep one `BatchPull` alive across pulls and refill it with
/// [`SessionQueue::pull_into`]; the buffers are cleared, not reallocated.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchPull {
    /// Requests to execute now (possibly empty).
    pub batch: Vec<Request>,
    /// Requests dropped by admission control.
    pub dropped: Vec<Request>,
}

/// One rung-shaped slot within a ladder pull: `len` requests executed in a
/// slot compiled for `rung` inputs. `len ≤ rung` always; `len < rung` is a
/// padded, partially-filled rung (the per-rung occupancy histograms in
/// `nexus-obs` count these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiniBatch {
    /// The rung (slot capacity) this minibatch executes in.
    pub rung: u32,
    /// Requests actually loaded into the slot.
    pub len: u32,
}

/// Classifies a request the dispatcher just dropped, for the trace.
///
/// `min_start` is `now + ℓ(1)` — the earliest any execution started now
/// could finish. A request whose deadline lies before it was doomed under
/// every policy ([`DropCause::Expired`]); otherwise the early-drop window
/// sacrificed a still-feasible request to keep batches efficient
/// ([`DropCause::EarlySacrifice`], §4.3).
pub(crate) fn classify_drop(deadline: Micros, min_start: Micros) -> DropCause {
    if deadline < min_start {
        DropCause::Expired
    } else {
        DropCause::EarlySacrifice
    }
}

/// A per-session FIFO with batch-aware admission control.
#[derive(Debug, Default)]
pub struct SessionQueue {
    pending: VecDeque<Request>,
}

impl SessionQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SessionQueue::default()
    }

    /// Enqueues an arriving request.
    pub fn push(&mut self, req: Request) {
        self.pending.push_back(req);
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Arrival-to-deadline slack of the oldest request, if any.
    pub(crate) fn oldest_deadline(&self) -> Option<Micros> {
        self.pending.front().map(|r| r.deadline)
    }

    /// Arrival time of the oldest request, if any.
    pub(crate) fn oldest_arrival(&self) -> Option<Micros> {
        self.pending.front().map(|r| r.arrival)
    }

    /// Removes and returns all queued requests (used when sessions migrate
    /// between backends at an epoch boundary).
    pub fn drain(&mut self) -> Vec<Request> {
        self.pending.drain(..).collect()
    }

    /// Pulls the next batch at time `now` under `policy`.
    ///
    /// `target_batch` is the scheduler-assigned batch size; `exec` maps a
    /// batch size to the *completion* latency the batch would experience
    /// (the effective profile, including non-overlapped CPU stages).
    /// `reserve` is duty-cycle time owed to co-located sessions each round;
    /// the early policy grows its window beyond the target only into slack
    /// that is not reserved for peers.
    pub fn pull(
        &mut self,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        policy: DropPolicy,
        reserve: Micros,
    ) -> BatchPull {
        let mut out = BatchPull::default();
        self.pull_into(now, target_batch, exec, policy, reserve, &mut out);
        out
    }

    /// Like [`SessionQueue::pull`], but fills a caller-owned `out` instead
    /// of allocating: `out.batch` and `out.dropped` are cleared and refilled
    /// in place, so a scratch `BatchPull` reused across pulls makes the
    /// duty-cycle hot path allocation-free.
    pub fn pull_into(
        &mut self,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        policy: DropPolicy,
        reserve: Micros,
        out: &mut BatchPull,
    ) {
        debug_assert!(target_batch >= 1);
        out.batch.clear();
        out.dropped.clear();
        match policy {
            DropPolicy::None => self.pull_none(target_batch, out),
            DropPolicy::Lazy => self.pull_lazy(now, exec, out),
            DropPolicy::Early => self.pull_early(now, target_batch, exec, reserve, out),
            DropPolicy::Deprioritize => self.pull_deprioritize(now, target_batch, exec, out),
        }
    }

    /// Ladder pull (ROADMAP item 5, DESIGN.md §16): assembles a *sequence*
    /// of rung-shaped minibatches instead of one variable-sized batch.
    ///
    /// Greedy rung fill: each minibatch takes up to `target_batch` requests
    /// into the smallest covering ladder rung, shrunk to the largest rung
    /// whose latency still fits the front request's remaining SLO budget
    /// (`deadline − now − acc`, where `acc` is the latency already
    /// committed to earlier minibatches of this slot), then recurses on the
    /// leftover instead of waiting a full duty cycle. The loop stops when
    /// the front request's budget no longer admits any rung — leftover
    /// requests stay queued for the next wake. A front request that is
    /// doomed outright (`deadline < now + ℓ(rung₁)`) is dropped, mirroring
    /// the early-drop prefix sacrifice.
    ///
    /// `allowance` caps the slot's *cumulative* execution time (`Σ ℓ(rungᵢ)
    /// ≤ allowance`). Coordinated duty cycles pass the planned slot length
    /// `ℓ(b_planned)` so ladder slots never run past what the shared-batch
    /// fit promised co-located sessions; uncoordinated dispatch passes
    /// `Micros::MAX`, leaving the recursion bounded by request budgets
    /// alone. Padding (a minibatch with `len < rung`) is only used when the
    /// covering rung's latency fits the remaining allowance *and* budget;
    /// otherwise the largest affordable rung runs brim-full and the rest
    /// stays queued.
    ///
    /// `out.batch` is the flat request sequence (minibatch order);
    /// `minibatches` records the rung segmentation for per-rung execution
    /// and tracing. Both are caller-owned scratch, cleared and refilled in
    /// place, so the hot loop stays allocation-free. The result is a pure
    /// function of queue state, `now`, and the plan — no RNG, no global
    /// state.
    ///
    /// Non-`Early` policies keep their classic pull (the ladder is an
    /// early-drop refinement); their single batch executes as one covering
    /// rung.
    #[allow(clippy::too_many_arguments)]
    pub fn pull_ladder_into(
        &mut self,
        now: Micros,
        target_batch: u32,
        allowance: Micros,
        exec: &BatchingProfile,
        ladder: &BatchLadder,
        policy: DropPolicy,
        reserve: Micros,
        out: &mut BatchPull,
        minibatches: &mut Vec<MiniBatch>,
    ) {
        debug_assert!(target_batch >= 1);
        minibatches.clear();
        if policy != DropPolicy::Early {
            self.pull_into(now, target_batch, exec, policy, reserve, out);
            // Segment the classic batch into full top rungs plus one
            // covering rung for the tail (a single covering rung when the
            // batch fits the ladder, which it does whenever the target
            // respects the profile's max batch).
            let mut remaining = out.batch.len() as u32;
            while remaining > 0 {
                let (rung, _) = ladder.smallest_rung_geq(remaining);
                let len = remaining.min(rung);
                minibatches.push(MiniBatch { rung, len });
                remaining -= len;
            }
            return;
        }
        out.batch.clear();
        out.dropped.clear();
        let min_start = now + ladder.min_latency();
        if ladder.min_latency() == Micros::ZERO {
            // Degenerate profile; the classic pull handles it without the
            // risk of an unbounded minibatch loop.
            self.pull_into(now, target_batch, exec, DropPolicy::Early, reserve, out);
            if !out.batch.is_empty() {
                let len = out.batch.len() as u32;
                let (rung, _) = ladder.smallest_rung_geq(len);
                minibatches.push(MiniBatch {
                    rung,
                    len: len.min(rung),
                });
            }
            return;
        }
        // Picks the rung for `want` requests within `cap` time: the
        // covering rung when affordable (padded if `want` is not a rung),
        // else the largest affordable rung run brim-full (`fit < cover`
        // implies `fit < want`, so the queue has enough to fill it).
        let choose = |want: u32, cap: Micros| -> Option<(u32, Micros, u32)> {
            let (cover, cover_lat) = ladder.smallest_rung_geq(want);
            if cover_lat <= cap {
                return Some((cover, cover_lat, want.min(cover)));
            }
            let (fit, fit_lat) = ladder.largest_rung_within(cap)?;
            Some((fit, fit_lat, fit))
        };
        let mut acc = Micros::ZERO;
        loop {
            let a_free = allowance.saturating_sub(acc);
            if a_free < ladder.min_latency() {
                break; // the duty-cycle slot is spent
            }
            // A front request that can never complete — not even in the
            // bottom rung starting right now — is sacrificed so the ones
            // behind it batch efficiently (§4.3).
            while let Some(front) = self.pending.front() {
                if front.deadline < min_start {
                    out.dropped
                        .push(self.pending.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
            if self.pending.is_empty() {
                break;
            }
            let len = self.pending.len();
            // The efficient window (the early-drop scan, rung-shaped): the
            // first request whose budget absorbs the covering rung of
            // everything we still want behind it.
            let mut host = None;
            for i in 0..len {
                let want = target_batch.min((len - i) as u32);
                let (_, cover_lat) = ladder.smallest_rung_geq(want);
                if cover_lat <= a_free && self.pending[i].deadline >= now + acc + cover_lat {
                    host = Some((i, want, cover_lat));
                    break;
                }
            }
            let front = self.pending.front().expect("non-empty");
            let budget = front.deadline.saturating_sub(now).saturating_sub(acc);
            let (rung, lat, take) = match host {
                // The window starts at the front: run it.
                Some((0, want, _)) => choose(want, a_free).expect("cover fits a_free"),
                // A window exists behind a tight prefix. Salvage the
                // prefix in a smaller rung only if it rides for free —
                // within its own budget, the residual allowance after the
                // window, and the slack the window's host has to spare.
                // Otherwise the prefix is sacrificed (classic early drop)
                // and the window runs at full size.
                Some((i, _, cover_lat)) => {
                    let host_slack = self.pending[i]
                        .deadline
                        .saturating_sub(now + acc + cover_lat);
                    let cap = budget.min(a_free.saturating_sub(cover_lat)).min(host_slack);
                    match choose(i as u32, cap) {
                        Some(pick) => pick,
                        None => {
                            out.dropped.extend(self.pending.drain(..i));
                            continue; // re-scan: the host is now the front
                        }
                    }
                }
                // No efficient window fits this slot: serve the front in
                // the largest rung its budget and the allowance admit, or
                // leave it for the next wake.
                None => {
                    let want = target_batch.min(len as u32);
                    match choose(want, budget.min(a_free)) {
                        Some(pick) => pick,
                        None => break,
                    }
                }
            };
            out.batch.extend(self.pending.drain(..take as usize));
            minibatches.push(MiniBatch { rung, len: take });
            acc += lat;
        }
    }

    /// Batch-application pull: like the early-drop window scan, but doomed
    /// requests are *skipped over* instead of dropped; they are served
    /// (late) only when no fresh window exists.
    fn pull_deprioritize(
        &mut self,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        out: &mut BatchPull,
    ) {
        let len = self.pending.len();
        // Find the first request that can absorb its window, as early drop
        // does, but without discarding the prefix. While at least `target`
        // requests remain past i the window — and thus the finish time — is
        // constant, so the prefix scan is a pure deadline comparison; only
        // the sub-target tail recomputes the (shrinking) finish per step.
        let finish_full = now + exec.latency_clamped(target_batch.min(len.max(1) as u32));
        for i in 0..len {
            let finish = if len - i >= target_batch as usize {
                finish_full
            } else {
                now + exec.latency_clamped((len - i) as u32)
            };
            if self.pending[i].deadline >= finish {
                let window = target_batch.min((len - i) as u32) as usize;
                // Serve the fresh window; a doomed prefix (i > 0) stays
                // queued at lower priority.
                out.batch.extend(self.pending.drain(i..i + window));
                return;
            }
        }
        // Nothing fresh: work through the backlog FIFO (late but served).
        let n = len.min(target_batch as usize);
        out.batch.extend(self.pending.drain(..n));
    }

    fn pull_none(&mut self, target_batch: u32, out: &mut BatchPull) {
        let n = self.pending.len().min(target_batch as usize);
        out.batch.extend(self.pending.drain(..n));
    }

    fn pull_lazy(&mut self, now: Micros, exec: &BatchingProfile, out: &mut BatchPull) {
        // Drop requests that have already missed their deadline — including
        // those that cannot possibly complete anymore (remaining budget
        // below even a batch-of-one execution).
        let min_start = now + exec.latency_clamped(1);
        while let Some(front) = self.pending.front() {
            if front.deadline < min_start {
                out.dropped
                    .push(self.pending.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        // Size the batch by the oldest survivor's remaining budget alone
        // (Clipper has no scheduler-assigned batch size).
        if let Some(front) = self.pending.front() {
            let budget = front.deadline - now;
            let n = exec
                .max_batch_within(budget)
                .min(self.pending.len() as u32)
                .max(1);
            out.batch.extend(self.pending.drain(..n as usize));
        }
    }

    fn pull_early(
        &mut self,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        reserve: Micros,
        out: &mut BatchPull,
    ) {
        // Slide the window: find the first index i such that request i can
        // absorb the execution latency of the window starting at i. The
        // window is at least the scheduler's batch size, but grows to what
        // request i's budget — minus the duty-cycle time reserved for
        // co-located sessions — can absorb: upstream stages emit children
        // in parent-batch-sized bursts, and serving a burst in one larger
        // batch is more efficient, but it must not starve peers.
        let len = self.pending.len();
        // A request whose deadline cannot even cover a batch-of-one
        // execution fails the window check for *any* window, so the scan
        // skips it on a single comparison instead of a per-element
        // `max_batch_within` binary search.
        let min_start = now + exec.latency_clamped(1);
        let mut start = None;
        for i in 0..len {
            if self.pending[i].deadline < min_start {
                continue;
            }
            let budget = self.pending[i]
                .deadline
                .saturating_sub(now)
                .saturating_sub(reserve);
            let absorbable = exec.max_batch_within(budget);
            let window = target_batch.max(absorbable).min((len - i) as u32);
            let finish = now + exec.latency_clamped(window.max(1));
            if self.pending[i].deadline >= finish {
                start = Some((i, window));
                break;
            }
        }
        match start {
            Some((i, window)) => {
                out.dropped.extend(self.pending.drain(..i));
                out.batch.extend(self.pending.drain(..window as usize));
            }
            None => {
                // No request can make it even alone: drop everything that
                // could never complete from `now`.
                while let Some(front) = self.pending.front() {
                    if front.deadline < min_start {
                        out.dropped
                            .push(self.pending.pop_front().expect("front exists"));
                    } else {
                        break;
                    }
                }
            }
        }
    }
}

/// Pre-optimization pull implementations, kept verbatim as oracles: the
/// differential proptests assert the optimized pulls produce identical
/// `(batch, dropped)` sequences.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The original `SessionQueue::pull`, element-by-element.
    pub fn pull(
        q: &mut SessionQueue,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        policy: DropPolicy,
        reserve: Micros,
    ) -> BatchPull {
        match policy {
            DropPolicy::None => pull_none(q, target_batch),
            DropPolicy::Lazy => pull_lazy(q, now, exec),
            DropPolicy::Early => pull_early(q, now, target_batch, exec, reserve),
            DropPolicy::Deprioritize => pull_deprioritize(q, now, target_batch, exec),
        }
    }

    fn pull_deprioritize(
        q: &mut SessionQueue,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
    ) -> BatchPull {
        let len = q.pending.len();
        for i in 0..len {
            let window = target_batch.min((len - i) as u32);
            let finish = now + exec.latency_clamped(window.max(1));
            if q.pending[i].deadline >= finish {
                let batch = q.pending.drain(i..i + window as usize).collect();
                return BatchPull {
                    batch,
                    dropped: Vec::new(),
                };
            }
        }
        let n = (len as u32).min(target_batch);
        BatchPull {
            batch: q.pending.drain(..n as usize).collect(),
            dropped: Vec::new(),
        }
    }

    fn pull_none(q: &mut SessionQueue, target_batch: u32) -> BatchPull {
        let n = (q.pending.len() as u32).min(target_batch);
        BatchPull {
            batch: q.pending.drain(..n as usize).collect(),
            dropped: Vec::new(),
        }
    }

    fn pull_lazy(q: &mut SessionQueue, now: Micros, exec: &BatchingProfile) -> BatchPull {
        let mut dropped = Vec::new();
        let min_exec = exec.latency_clamped(1);
        while let Some(front) = q.pending.front() {
            if front.deadline < now + min_exec {
                dropped.push(q.pending.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        let mut batch = Vec::new();
        if let Some(front) = q.pending.front() {
            let budget = front.deadline - now;
            let n = exec
                .max_batch_within(budget)
                .min(q.pending.len() as u32)
                .max(1);
            batch = q.pending.drain(..n as usize).collect();
        }
        BatchPull { batch, dropped }
    }

    fn pull_early(
        q: &mut SessionQueue,
        now: Micros,
        target_batch: u32,
        exec: &BatchingProfile,
        reserve: Micros,
    ) -> BatchPull {
        let len = q.pending.len();
        let mut start = None;
        for i in 0..len {
            let budget = q.pending[i]
                .deadline
                .saturating_sub(now)
                .saturating_sub(reserve);
            let absorbable = exec.max_batch_within(budget);
            let window = target_batch.max(absorbable).min((len - i) as u32);
            let finish = now + exec.latency_clamped(window.max(1));
            if window >= 1 && q.pending[i].deadline >= finish {
                start = Some((i, window));
                break;
            }
        }
        match start {
            Some((i, window)) => {
                let dropped: Vec<Request> = q.pending.drain(..i).collect();
                let batch: Vec<Request> = q.pending.drain(..window as usize).collect();
                BatchPull { batch, dropped }
            }
            None => {
                let mut dropped = Vec::new();
                while let Some(front) = q.pending.front() {
                    if front.deadline < now + exec.latency_clamped(1) {
                        dropped.push(q.pending.pop_front().expect("front exists"));
                    } else {
                        break;
                    }
                }
                BatchPull {
                    batch: Vec::new(),
                    dropped,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestId};
    use nexus_scheduler::SessionId;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    fn req(id: u64, arrival_ms: u64, deadline_ms: u64) -> Request {
        Request {
            id: RequestId(id),
            session: SessionId(0),
            arrival: ms(arrival_ms),
            deadline: ms(deadline_ms),
            query: None,
        }
    }

    /// ℓ(b) = 2b + 10 ms.
    fn profile() -> BatchingProfile {
        BatchingProfile::from_linear_ms(2.0, 10.0, 32)
    }

    #[test]
    fn none_policy_takes_up_to_target() {
        let mut q = SessionQueue::new();
        for i in 0..10 {
            q.push(req(i, 0, 1)); // long expired — still served
        }
        let pull = q.pull(ms(100), 4, &profile(), DropPolicy::None, ms(0));
        assert_eq!(pull.batch.len(), 4);
        assert!(pull.dropped.is_empty());
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn lazy_drops_only_expired() {
        let mut q = SessionQueue::new();
        q.push(req(0, 0, 50)); // expired at t=60
        q.push(req(1, 10, 70));
        q.push(req(2, 20, 80));
        let pull = q.pull(ms(60), 8, &profile(), DropPolicy::Lazy, ms(0));
        // r0 expired outright; r1 has 10 ms budget, below ℓ(1) = 12 ms, so
        // it can never complete and is dropped too.
        assert_eq!(pull.dropped.len(), 2);
        // r2 has 20 ms budget: ℓ(b) ≤ 20 ⇒ batch of 1.
        assert_eq!(pull.batch.len(), 1);
        assert_eq!(pull.batch[0].id, RequestId(2));
        assert!(q.is_empty());
    }

    #[test]
    fn lazy_sizes_batch_by_oldest_budget() {
        let mut q = SessionQueue::new();
        for i in 0..20 {
            q.push(req(i, 0, 100));
        }
        // Budget 40 ms at t=60: ℓ(b) ≤ 40 ⇒ b ≤ 15.
        let pull = q.pull(ms(60), 32, &profile(), DropPolicy::Lazy, ms(0));
        assert_eq!(pull.batch.len(), 15);
    }

    #[test]
    fn lazy_ignores_scheduler_target() {
        // Clipper has no scheduler-assigned batch size: it takes whatever
        // the oldest budget can absorb.
        let mut q = SessionQueue::new();
        for i in 0..20 {
            q.push(req(i, 0, 500));
        }
        let pull = q.pull(ms(0), 8, &profile(), DropPolicy::Lazy, ms(0));
        assert_eq!(pull.batch.len(), 20);
    }

    #[test]
    fn early_drop_skips_doomed_head() {
        // Head requests are too close to their deadline to be executed in a
        // full window; early drop sacrifices them to keep batches big.
        let mut q = SessionQueue::new();
        q.push(req(0, 0, 25)); // needs ℓ(8)=26 > 25-0 budget at t=0
        q.push(req(1, 0, 27));
        for i in 2..10 {
            q.push(req(i, 0, 200));
        }
        let pull = q.pull(ms(0), 8, &profile(), DropPolicy::Early, ms(0));
        // Window at i=0 is 8 ⇒ finish 26 > 25: drop r0. At i=1 window 8 ⇒
        // finish 26 ≤ 27: take 8 from r1.
        assert_eq!(pull.dropped.len(), 1);
        assert_eq!(pull.batch.len(), 8);
        assert_eq!(pull.batch[0].id, RequestId(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn deprioritize_serves_fresh_window_first() {
        let mut q = SessionQueue::new();
        q.push(req(0, 0, 5)); // doomed: ℓ(1)=12 > 5
        q.push(req(1, 0, 8)); // doomed
        for i in 2..8 {
            q.push(req(i, 0, 200)); // fresh
        }
        let pull = q.pull(ms(0), 4, &profile(), DropPolicy::Deprioritize, ms(0));
        assert!(pull.dropped.is_empty(), "never drops");
        assert_eq!(pull.batch.len(), 4);
        assert_eq!(pull.batch[0].id, RequestId(2), "fresh window first");
        // The doomed head survives for later low-priority service.
        assert_eq!(q.len(), 4);
        assert_eq!(q.oldest_deadline(), Some(ms(5)));
    }

    #[test]
    fn deprioritize_drains_backlog_when_nothing_fresh() {
        let mut q = SessionQueue::new();
        for i in 0..6 {
            q.push(req(i, 0, 1)); // all doomed
        }
        let pull = q.pull(ms(50), 4, &profile(), DropPolicy::Deprioritize, ms(0));
        assert_eq!(pull.batch.len(), 4);
        assert_eq!(pull.batch[0].id, RequestId(0), "backlog is FIFO");
        assert!(pull.dropped.is_empty());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn deprioritize_conserves_requests() {
        let mut q = SessionQueue::new();
        for i in 0..10 {
            q.push(req(i, 0, (i % 3) * 100 + 5));
        }
        let total = q.len();
        let pull = q.pull(ms(20), 8, &profile(), DropPolicy::Deprioritize, ms(0));
        assert_eq!(pull.batch.len() + q.len(), total);
    }

    #[test]
    fn early_drop_on_empty_queue_is_noop() {
        let mut q = SessionQueue::new();
        let pull = q.pull(ms(0), 8, &profile(), DropPolicy::Early, ms(0));
        assert!(pull.batch.is_empty() && pull.dropped.is_empty());
    }

    #[test]
    fn early_keeps_feasible_head() {
        let mut q = SessionQueue::new();
        for i in 0..4 {
            q.push(req(i, 0, 100));
        }
        let pull = q.pull(ms(0), 8, &profile(), DropPolicy::Early, ms(0));
        // Window = min(8, 4) = 4, finish = 18 ≤ 100: take all four.
        assert!(pull.dropped.is_empty());
        assert_eq!(pull.batch.len(), 4);
    }

    #[test]
    fn early_drops_hopeless_requests_when_nothing_fits() {
        let mut q = SessionQueue::new();
        q.push(req(0, 0, 5)); // can never run: ℓ(1)=12
        q.push(req(1, 0, 11));
        let pull = q.pull(ms(0), 4, &profile(), DropPolicy::Early, ms(0));
        assert!(pull.batch.is_empty());
        assert_eq!(pull.dropped.len(), 2);
        assert!(q.is_empty());
    }

    fn ladder() -> BatchLadder {
        BatchLadder::from_profile(&profile())
    }

    fn pull_ladder(
        q: &mut SessionQueue,
        now: Micros,
        target: u32,
        policy: DropPolicy,
    ) -> (BatchPull, Vec<MiniBatch>) {
        pull_ladder_bounded(q, now, target, Micros::MAX, policy)
    }

    fn pull_ladder_bounded(
        q: &mut SessionQueue,
        now: Micros,
        target: u32,
        allowance: Micros,
        policy: DropPolicy,
    ) -> (BatchPull, Vec<MiniBatch>) {
        let mut out = BatchPull::default();
        let mut mbs = Vec::new();
        q.pull_ladder_into(
            now,
            target,
            allowance,
            &profile(),
            &ladder(),
            policy,
            Micros::ZERO,
            &mut out,
            &mut mbs,
        );
        (out, mbs)
    }

    #[test]
    fn ladder_single_window_matches_classic_pull() {
        // Queue smaller than the target with generous budgets: the ladder
        // pull serves everything in one covering rung, same membership as
        // the classic early pull.
        let build = || {
            let mut q = SessionQueue::new();
            for i in 0..4 {
                q.push(req(i, 0, 100));
            }
            q
        };
        let mut classic_q = build();
        let classic = classic_q.pull(ms(0), 8, &profile(), DropPolicy::Early, ms(0));
        let mut ladder_q = build();
        let (out, mbs) = pull_ladder(&mut ladder_q, ms(0), 8, DropPolicy::Early);
        assert_eq!(out.batch, classic.batch);
        assert!(out.dropped.is_empty());
        assert_eq!(mbs, vec![MiniBatch { rung: 4, len: 4 }]);
    }

    #[test]
    fn ladder_drops_doomed_prefix() {
        let mut q = SessionQueue::new();
        q.push(req(0, 0, 5)); // deadline < ℓ(1) = 12: doomed
        q.push(req(1, 0, 11)); // doomed
        for i in 2..6 {
            q.push(req(i, 0, 100));
        }
        let (out, mbs) = pull_ladder(&mut q, ms(0), 8, DropPolicy::Early);
        assert_eq!(out.dropped.len(), 2);
        assert_eq!(out.batch.len(), 4);
        assert_eq!(out.batch[0].id, RequestId(2));
        assert_eq!(mbs, vec![MiniBatch { rung: 4, len: 4 }]);
    }

    #[test]
    fn ladder_sacrifices_prefix_when_it_cannot_ride() {
        // Every deadline admits only rung 2 (ℓ(2) = 14 ≤ 15 < ℓ(4) = 18).
        // The window host (index 6, the first whose rung-2 window fits) has
        // no slack to spare, so the six ahead of it are sacrificed exactly
        // as classic early drop would, and the window runs.
        let mut q = SessionQueue::new();
        for i in 0..8 {
            q.push(req(i, 0, 15));
        }
        let (out, mbs) = pull_ladder(&mut q, ms(0), 8, DropPolicy::Early);
        assert_eq!(mbs, vec![MiniBatch { rung: 2, len: 2 }]);
        assert_eq!(out.dropped.len(), 6);
        assert_eq!(out.batch[0].id, RequestId(6));
        assert!(q.is_empty());
    }

    #[test]
    fn ladder_recurses_on_leftover() {
        // Target 4, ten queued with ample budget: two full rungs of 4 plus
        // a rung-2 tail run back-to-back in the same slot instead of
        // waiting a duty cycle each.
        let mut q = SessionQueue::new();
        for i in 0..10 {
            q.push(req(i, 0, 300));
        }
        let (out, mbs) = pull_ladder(&mut q, ms(0), 4, DropPolicy::Early);
        assert_eq!(
            mbs,
            vec![
                MiniBatch { rung: 4, len: 4 },
                MiniBatch { rung: 4, len: 4 },
                MiniBatch { rung: 2, len: 2 },
            ]
        );
        assert_eq!(out.batch.len(), 10);
        assert!(q.is_empty());
    }

    #[test]
    fn ladder_stops_when_budget_exhausted() {
        // First minibatch consumes the shared budget; the second front can
        // no longer absorb even the bottom rung behind it and stays queued.
        let mut q = SessionQueue::new();
        for i in 0..4 {
            q.push(req(i, 0, 20)); // ℓ(4) = 18 ≤ 20
        }
        for i in 4..8 {
            q.push(req(i, 0, 25)); // 25 − 18 = 7 < ℓ(1) = 12
        }
        let (out, mbs) = pull_ladder(&mut q, ms(0), 4, DropPolicy::Early);
        assert_eq!(mbs, vec![MiniBatch { rung: 4, len: 4 }]);
        assert_eq!(out.batch.len(), 4);
        assert!(out.dropped.is_empty());
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn ladder_allowance_caps_the_slot() {
        // Coordinated duty cycles cap the slot at the planned length
        // ℓ(4) = 18: one full rung of 4 fills it exactly, and the backlog
        // waits for the next cycle instead of stretching the slot.
        let mut q = SessionQueue::new();
        for i in 0..10 {
            q.push(req(i, 0, 300));
        }
        let (out, mbs) =
            pull_ladder_bounded(&mut q, ms(0), 4, Micros::from_millis(18), DropPolicy::Early);
        assert_eq!(mbs, vec![MiniBatch { rung: 4, len: 4 }]);
        assert_eq!(out.batch.len(), 4);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn ladder_salvages_tight_prefix_when_it_rides_free() {
        // Two tight requests (budget 15, only rung 2's ℓ = 14 fits) ahead
        // of four fresh ones. The fresh window's host has 300 − ℓ(4) of
        // slack, so whether the prefix is saved hinges on the slot
        // allowance: at the planned ℓ(4) = 18 there is no residual time and
        // the prefix is sacrificed; at ℓ(2) + ℓ(4) = 32 the prefix rides a
        // leading rung-2 minibatch and nothing is dropped.
        let build = || {
            let mut q = SessionQueue::new();
            q.push(req(0, 0, 15));
            q.push(req(1, 0, 15));
            for i in 2..6 {
                q.push(req(i, 0, 300));
            }
            q
        };
        let (tight_out, tight) = pull_ladder_bounded(
            &mut build(),
            ms(0),
            4,
            Micros::from_millis(18),
            DropPolicy::Early,
        );
        assert_eq!(tight, vec![MiniBatch { rung: 4, len: 4 }]);
        assert_eq!(tight_out.dropped.len(), 2);
        let (roomy_out, roomy) = pull_ladder_bounded(
            &mut build(),
            ms(0),
            4,
            Micros::from_millis(32),
            DropPolicy::Early,
        );
        assert_eq!(
            roomy,
            vec![MiniBatch { rung: 2, len: 2 }, MiniBatch { rung: 4, len: 4 }]
        );
        assert!(roomy_out.dropped.is_empty());
        assert_eq!(roomy_out.batch[0].id, RequestId(0), "prefix served first");
    }

    #[test]
    fn ladder_non_early_policies_use_classic_pull() {
        let mut q = SessionQueue::new();
        for i in 0..5 {
            q.push(req(i, 0, 100));
        }
        let (out, mbs) = pull_ladder(&mut q, ms(0), 8, DropPolicy::None);
        assert_eq!(out.batch.len(), 5);
        // One covering rung for the whole classic batch, padded 5-in-8.
        assert_eq!(mbs, vec![MiniBatch { rung: 8, len: 5 }]);
    }

    #[test]
    fn ladder_empty_queue_is_noop() {
        let mut q = SessionQueue::new();
        let (out, mbs) = pull_ladder(&mut q, ms(0), 8, DropPolicy::Early);
        assert!(out.batch.is_empty() && out.dropped.is_empty() && mbs.is_empty());
    }

    #[test]
    fn early_beats_lazy_on_average_batch_size_under_burst() {
        // A burst of tight-deadline requests: lazy serves the oldest in
        // tiny batches; early sacrifices a few head requests and runs a
        // full window.
        let build = || {
            let mut q = SessionQueue::new();
            for i in 0..16 {
                // Deadlines stagger: oldest have little slack left.
                q.push(req(i, 0, 24 + i * 4));
            }
            q
        };
        let mut lazy_q = build();
        let lazy = lazy_q.pull(ms(0), 16, &profile(), DropPolicy::Lazy, ms(0));
        let mut early_q = build();
        let early = early_q.pull(ms(0), 16, &profile(), DropPolicy::Early, ms(0));
        assert!(
            early.batch.len() > lazy.batch.len(),
            "early {} vs lazy {}",
            early.batch.len(),
            lazy.batch.len()
        );
    }
}
