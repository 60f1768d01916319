//! Requests and query tracking.
//!
//! A *request* is one model invocation with a deadline. A *query* is an
//! application-level unit (one sampled frame flowing through an app's
//! dataflow graph); it spawns one request per stage invocation and is good
//! only if every spawned request completes by the query deadline.

use std::collections::VecDeque;

use nexus_profile::Micros;
use nexus_scheduler::SessionId;

/// Cluster-unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Cluster-unique query identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// One model invocation waiting in (or flowing through) the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Identifier.
    pub id: RequestId,
    /// The session it belongs to.
    pub session: SessionId,
    /// When it entered the frontend.
    pub arrival: Micros,
    /// Absolute deadline for *this invocation* (the session SLO, or the
    /// stage's latency-split budget for query stages).
    pub deadline: Micros,
    /// The query it belongs to, if any.
    pub query: Option<QueryId>,
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Completed at the given time.
    Completed(Micros),
    /// Dropped by admission control at the given time.
    Dropped(Micros),
}

/// Tracks multi-stage queries to their terminal state.
///
/// A query is *bad* if any of its requests is dropped or if its last
/// request completes after the query deadline (§7: "requests that exceed
/// the deadline or get dropped").
#[derive(Debug, Default)]
pub struct QueryTracker {
    /// Live queries in a sliding id window: `window[i]` tracks query id
    /// `base + i`. Ids are sequential and query lifetimes are bounded by
    /// the SLO, so the window stays shallow and every lookup is an index
    /// instead of a hash — this runs several times per request.
    window: VecDeque<Option<LiveQuery>>,
    /// Query id of `window[0]`.
    base: u64,
    /// Count of open (`Some`) entries in the window.
    live: usize,
    finished: Vec<FinishedQuery>,
    next_id: u64,
}

#[derive(Debug)]
struct LiveQuery {
    deadline: Micros,
    arrival: Micros,
    outstanding: u32,
    doomed: bool,
    last_completion: Micros,
}

/// A query that has reached its terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedQuery {
    /// The query.
    pub id: QueryId,
    /// Root arrival time.
    pub arrival: Micros,
    /// Query deadline.
    pub deadline: Micros,
    /// Completion time of the last stage request (drop time if doomed).
    pub finished_at: Micros,
    /// Whether every stage completed within the deadline.
    pub good: bool,
}

impl QueryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        QueryTracker::default()
    }

    /// Opens a new query arriving at `arrival` with absolute `deadline`,
    /// with one root request outstanding.
    pub fn open(&mut self, arrival: Micros, deadline: Micros) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.window.push_back(Some(LiveQuery {
            deadline,
            arrival,
            outstanding: 1,
            doomed: false,
            last_completion: arrival,
        }));
        self.live += 1;
        id
    }

    fn get(&self, query: QueryId) -> Option<&LiveQuery> {
        let idx = query.0.checked_sub(self.base)? as usize;
        self.window.get(idx)?.as_ref()
    }

    fn get_mut(&mut self, query: QueryId) -> Option<&mut LiveQuery> {
        let idx = query.0.checked_sub(self.base)? as usize;
        self.window.get_mut(idx)?.as_mut()
    }

    /// Absolute deadline of a still-open query.
    pub fn deadline(&self, query: QueryId) -> Option<Micros> {
        self.get(query).map(|q| q.deadline)
    }

    /// Arrival time of a still-open query.
    pub fn arrival(&self, query: QueryId) -> Option<Micros> {
        self.get(query).map(|q| q.arrival)
    }

    /// `(arrival, deadline)` of a still-open query in one window lookup —
    /// the child-spawn path needs both and runs once per completed request.
    pub fn span(&self, query: QueryId) -> Option<(Micros, Micros)> {
        self.get(query).map(|q| (q.arrival, q.deadline))
    }

    /// Registers `n` additional outstanding stage requests for `query`
    /// (children spawned by a completed parent invocation).
    pub(crate) fn add_outstanding(&mut self, query: QueryId, n: u32) {
        if let Some(q) = self.get_mut(query) {
            q.outstanding += n;
        }
    }

    /// Records a terminal outcome for one of the query's requests. Returns
    /// the finished query when this was its last outstanding request.
    pub fn record(&mut self, query: QueryId, outcome: RequestOutcome) -> Option<FinishedQuery> {
        let q = self.get_mut(query)?;
        debug_assert!(q.outstanding > 0, "query finished twice");
        q.outstanding -= 1;
        match outcome {
            RequestOutcome::Completed(t) => {
                q.last_completion = q.last_completion.max(t);
                if t > q.deadline {
                    q.doomed = true;
                }
            }
            RequestOutcome::Dropped(t) => {
                q.doomed = true;
                q.last_completion = q.last_completion.max(t);
            }
        }
        if q.outstanding > 0 {
            return None;
        }
        let idx = (query.0 - self.base) as usize;
        let q = self.window[idx].take().expect("present");
        self.live -= 1;
        // Pop closed entries off the front so the window tracks only the
        // span from the oldest open query to the newest id.
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
        let finished = FinishedQuery {
            id: query,
            arrival: q.arrival,
            deadline: q.deadline,
            finished_at: q.last_completion,
            good: !q.doomed && q.last_completion <= q.deadline,
        };
        self.finished.push(finished);
        Some(finished)
    }

    /// Queries that have reached a terminal state so far.
    pub fn finished(&self) -> &[FinishedQuery] {
        &self.finished
    }

    /// Number of still-open queries.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Fraction of finished queries that are bad (dropped or late).
    pub fn bad_rate(&self) -> f64 {
        if self.finished.is_empty() {
            return 0.0;
        }
        let bad = self.finished.iter().filter(|q| !q.good).count();
        bad as f64 / self.finished.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Micros {
        Micros::from_millis(v)
    }

    #[test]
    fn single_stage_query_good_when_on_time() {
        let mut t = QueryTracker::new();
        let q = t.open(ms(0), ms(100));
        let fin = t.record(q, RequestOutcome::Completed(ms(60))).unwrap();
        assert!(fin.good);
        assert_eq!(fin.finished_at, ms(60));
        assert_eq!(t.bad_rate(), 0.0);
    }

    #[test]
    fn late_completion_is_bad() {
        let mut t = QueryTracker::new();
        let q = t.open(ms(0), ms(100));
        let fin = t.record(q, RequestOutcome::Completed(ms(150))).unwrap();
        assert!(!fin.good);
        assert_eq!(t.bad_rate(), 1.0);
    }

    #[test]
    fn drop_dooms_the_whole_query() {
        let mut t = QueryTracker::new();
        let q = t.open(ms(0), ms(100));
        t.add_outstanding(q, 2); // root spawned two children
        assert!(t.record(q, RequestOutcome::Completed(ms(30))).is_none());
        assert!(t.record(q, RequestOutcome::Dropped(ms(40))).is_none());
        let fin = t
            .record(q, RequestOutcome::Completed(ms(80)))
            .expect("last request closes the query");
        assert!(!fin.good);
    }

    #[test]
    fn multi_stage_good_query() {
        let mut t = QueryTracker::new();
        let q = t.open(ms(0), ms(200));
        t.add_outstanding(q, 3);
        t.record(q, RequestOutcome::Completed(ms(50)));
        t.record(q, RequestOutcome::Completed(ms(90)));
        t.record(q, RequestOutcome::Completed(ms(120)));
        let fin = t.record(q, RequestOutcome::Completed(ms(130))).unwrap();
        assert!(fin.good);
        assert_eq!(fin.finished_at, ms(130));
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn bad_rate_aggregates() {
        let mut t = QueryTracker::new();
        for i in 0..10 {
            let q = t.open(ms(0), ms(100));
            let when = if i < 3 { ms(150) } else { ms(50) };
            t.record(q, RequestOutcome::Completed(when));
        }
        assert!((t.bad_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut t = QueryTracker::new();
        let a = t.open(ms(0), ms(1));
        let b = t.open(ms(0), ms(1));
        assert!(b.0 > a.0);
    }
}
