//! Run metrics: per-session counters, latency distributions, and the
//! time-bucketed series behind Fig. 13.

use nexus_profile::Micros;
use nexus_scheduler::SessionId;

use crate::histogram::LatencyHistogram;

/// Counters for one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionMetrics {
    /// Requests that entered the frontend.
    pub arrived: u64,
    /// Requests completed within their deadline.
    pub good: u64,
    /// Requests completed after their deadline.
    pub late: u64,
    /// Requests dropped by admission control.
    pub dropped: u64,
    /// Completion latencies (arrival → finish), log-bucketed (~2% relative
    /// resolution — long runs record millions of samples).
    latencies: LatencyHistogram,
}

impl SessionMetrics {
    /// Fraction of terminal requests that were late or dropped.
    pub fn bad_rate(&self) -> f64 {
        let total = self.good + self.late + self.dropped;
        if total == 0 {
            0.0
        } else {
            (self.late + self.dropped) as f64 / total as f64
        }
    }

    /// The `q`-quantile completion latency (0 ≤ q ≤ 1), within the
    /// histogram's ~3% relative resolution, if any request completed.
    pub fn latency_quantile(&self, q: f64) -> Option<Micros> {
        self.latencies.quantile(q)
    }

    /// The full latency histogram.
    pub fn latencies(&self) -> &LatencyHistogram {
        &self.latencies
    }
}

/// One bucket of the run timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelineBucket {
    /// Requests arriving in this bucket.
    pub arrivals: u64,
    /// Requests reaching a good terminal state in this bucket.
    pub good: u64,
    /// Requests reaching a bad terminal state (late or dropped).
    pub bad: u64,
    /// GPUs allocated at the end of this bucket.
    pub gpus_allocated: u32,
}

/// The lifecycle of one injected GPU failure, as the control plane saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// Physical GPU slot that failed.
    pub gpu: usize,
    /// When the fault was injected.
    pub fault_at: Micros,
    /// When the controller declared the slot dead (`None` if the run ended
    /// first, or the fault cleared before detection).
    pub detected_at: Option<Micros>,
    /// Stranded requests re-dispatched with enough deadline budget left.
    pub requests_retried: u64,
    /// Stranded requests dropped (in-flight on the crash, or past their
    /// retry budget).
    pub requests_lost: u64,
}

impl FailureRecord {
    /// Time from injection to declared-dead, if detected.
    pub fn time_to_detect(&self) -> Option<Micros> {
        self.detected_at.map(|d| d.saturating_sub(self.fault_at))
    }
}

/// Pre-resolved recording slots for one pulled batch: every request in a
/// batch shares a session and a finish time, so the session/timeline
/// lookups can be done once and reused for each terminal record. Obtain
/// via `ClusterMetrics::terminal_batch`; the indices stay valid for the
/// rest of the run (the tables only ever grow) but only against the
/// metrics instance that produced them.
#[derive(Debug, Clone, Copy)]
pub struct TerminalBatch {
    session: usize,
    bucket: usize,
    finish: Micros,
}

/// Aggregated metrics for one simulation run.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Dense per-session table indexed by `SessionId.0` (ids are small
    /// sequential integers assigned by the planner), grown on demand.
    /// Recording a request is then an array index instead of a hash —
    /// this runs once per request on the hottest path in the simulator.
    per_session: Vec<SessionMetrics>,
    timeline: Vec<TimelineBucket>,
    bucket_width: Micros,
    gpus_allocated: u32,
    failures: Vec<FailureRecord>,
}

impl ClusterMetrics {
    /// Creates metrics with the given timeline bucket width (e.g. 1 s).
    pub fn new(bucket_width: Micros) -> Self {
        assert!(bucket_width > Micros::ZERO);
        ClusterMetrics {
            bucket_width,
            ..ClusterMetrics::default()
        }
    }

    fn bucket_idx(&mut self, t: Micros) -> usize {
        // One-second buckets are the only width the cluster uses; the
        // constant divisor lets the compiler strength-reduce the division
        // on a path hit several times per request.
        let width = self.bucket_width.as_micros();
        let idx = if width == 1_000_000 {
            (t.as_micros() / 1_000_000) as usize
        } else {
            (t.as_micros() / width) as usize
        };
        if idx >= self.timeline.len() {
            let fill = TimelineBucket {
                gpus_allocated: self.gpus_allocated,
                ..TimelineBucket::default()
            };
            self.timeline.resize(idx + 1, fill);
        }
        idx
    }

    fn bucket_mut(&mut self, t: Micros) -> &mut TimelineBucket {
        let idx = self.bucket_idx(t);
        &mut self.timeline[idx]
    }

    fn session_idx(&mut self, session: SessionId) -> usize {
        let idx = session.0 as usize;
        if idx >= self.per_session.len() {
            self.per_session.resize(idx + 1, SessionMetrics::default());
        }
        idx
    }

    fn session_mut(&mut self, session: SessionId) -> &mut SessionMetrics {
        let idx = self.session_idx(session);
        &mut self.per_session[idx]
    }

    /// Whether a session's slot has recorded anything (distinguishes a
    /// never-seen session from a grow-on-demand filler entry).
    fn seen(m: &SessionMetrics) -> bool {
        m.arrived + m.good + m.late + m.dropped > 0
    }

    /// Records a request arrival.
    pub fn record_arrival(&mut self, session: SessionId, t: Micros) {
        self.session_mut(session).arrived += 1;
        self.bucket_mut(t).arrivals += 1;
    }

    /// Records a completion; `good` is deadline attainment.
    pub fn record_completion(
        &mut self,
        session: SessionId,
        arrival: Micros,
        finish: Micros,
        good: bool,
    ) {
        let m = self.session_mut(session);
        if good {
            m.good += 1;
        } else {
            m.late += 1;
        }
        m.latencies.record(finish - arrival);
        let b = self.bucket_mut(finish);
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    /// Records a drop.
    pub(crate) fn record_drop(&mut self, session: SessionId, t: Micros) {
        self.session_mut(session).dropped += 1;
        self.bucket_mut(t).bad += 1;
    }

    /// Resolves the per-session and timeline slots for a run of terminal
    /// records that share one session and one finish time — i.e. one pulled
    /// batch. The grow-on-demand checks and the bucket division run once
    /// per batch instead of once per request; the recorded state is
    /// identical to the per-request calls.
    pub(crate) fn terminal_batch(&mut self, session: SessionId, finish: Micros) -> TerminalBatch {
        TerminalBatch {
            session: self.session_idx(session),
            bucket: self.bucket_idx(finish),
            finish,
        }
    }

    /// [`Self::record_completion`] against a pre-resolved [`TerminalBatch`].
    pub(crate) fn record_completion_in(&mut self, tb: TerminalBatch, arrival: Micros, good: bool) {
        let m = &mut self.per_session[tb.session];
        if good {
            m.good += 1;
        } else {
            m.late += 1;
        }
        m.latencies.record(tb.finish - arrival);
        let b = &mut self.timeline[tb.bucket];
        if good {
            b.good += 1;
        } else {
            b.bad += 1;
        }
    }

    /// [`Self::record_drop`] against a pre-resolved [`TerminalBatch`].
    pub(crate) fn record_drop_in(&mut self, tb: TerminalBatch) {
        self.per_session[tb.session].dropped += 1;
        self.timeline[tb.bucket].bad += 1;
    }

    /// Records the current cluster allocation size (applies to this and all
    /// later buckets until changed).
    pub(crate) fn record_allocation(&mut self, t: Micros, gpus: u32) {
        self.gpus_allocated = gpus;
        self.bucket_mut(t).gpus_allocated = gpus;
    }

    /// Opens a failure record at fault-injection time.
    pub(crate) fn record_fault(&mut self, gpu: usize, t: Micros) {
        self.failures.push(FailureRecord {
            gpu,
            fault_at: t,
            detected_at: None,
            requests_retried: 0,
            requests_lost: 0,
        });
    }

    /// Marks the most recent undetected failure of `gpu` as detected and
    /// charges its retried/lost request counts.
    pub(crate) fn record_detection(&mut self, gpu: usize, t: Micros, retried: u64, lost: u64) {
        if let Some(f) = self
            .failures
            .iter_mut()
            .rev()
            .find(|f| f.gpu == gpu && f.detected_at.is_none())
        {
            f.detected_at = Some(t);
            f.requests_retried = retried;
            f.requests_lost = lost;
        }
    }

    /// The failure lifecycles observed this run, in injection order.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Time from `fault_at` until goodput first returns to
    /// `threshold × baseline` (req/s) for a full bucket, or `None` if it
    /// never recovers within the recorded timeline.
    pub fn goodput_recovery_time(
        &self,
        fault_at: Micros,
        baseline: f64,
        threshold: f64,
    ) -> Option<Micros> {
        let target = baseline * threshold;
        let start = (fault_at.as_micros() / self.bucket_width.as_micros()) as usize;
        let per_bucket = self.bucket_width.as_secs_f64();
        for (i, b) in self.timeline.iter().enumerate().skip(start + 1) {
            if b.good as f64 / per_bucket >= target {
                let end = self.bucket_width * (i as u64 + 1);
                return Some(end.saturating_sub(fault_at));
            }
        }
        None
    }

    /// Integral of the bad rate over `[from, to)` in bad-rate × seconds —
    /// the "area" of a failure's bad-rate spike. Zero when the window saw
    /// no terminal events.
    pub fn bad_rate_spike_area(&self, from: Micros, to: Micros) -> f64 {
        let (fb, tb) = (
            (from.as_micros() / self.bucket_width.as_micros()) as usize,
            (to.as_micros() / self.bucket_width.as_micros()) as usize,
        );
        let per_bucket = self.bucket_width.as_secs_f64();
        self.timeline
            .iter()
            .take(tb.min(self.timeline.len()))
            .skip(fb)
            .map(|b| {
                let total = b.good + b.bad;
                if total == 0 {
                    0.0
                } else {
                    b.bad as f64 / total as f64 * per_bucket
                }
            })
            .sum()
    }

    /// Per-session metrics, if the session recorded any event.
    pub fn session(&self, id: SessionId) -> Option<&SessionMetrics> {
        self.per_session
            .get(id.0 as usize)
            .filter(|m| ClusterMetrics::seen(m))
    }

    /// All sessions seen, in session-id order.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &SessionMetrics)> {
        self.per_session
            .iter()
            .enumerate()
            .filter(|(_, m)| ClusterMetrics::seen(m))
            .map(|(i, m)| (SessionId(i as u32), m))
    }

    /// The timeline series.
    pub fn timeline(&self) -> &[TimelineBucket] {
        &self.timeline
    }

    /// Overall request-level bad rate.
    pub fn bad_rate(&self) -> f64 {
        let (mut bad, mut total) = (0u64, 0u64);
        for m in &self.per_session {
            bad += m.late + m.dropped;
            total += m.good + m.late + m.dropped;
        }
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Overall good throughput in requests/second over `[from, to)`
    /// (counts good completions in the window).
    pub fn goodput(&self, from: Micros, to: Micros) -> f64 {
        assert!(to > from);
        let (fb, tb) = (
            (from.as_micros() / self.bucket_width.as_micros()) as usize,
            (to.as_micros() / self.bucket_width.as_micros()) as usize,
        );
        let good: u64 = self
            .timeline
            .iter()
            .take(tb.min(self.timeline.len()))
            .skip(fb)
            .map(|b| b.good)
            .sum();
        good as f64 / (to - from).as_secs_f64()
    }

    /// Request-level bad rate restricted to terminal events in
    /// `[from, to)` — used to exclude warm-up from measurements.
    pub(crate) fn bad_rate_in(&self, from: Micros, to: Micros) -> f64 {
        let (fb, tb) = (
            (from.as_micros() / self.bucket_width.as_micros()) as usize,
            (to.as_micros() / self.bucket_width.as_micros()) as usize,
        );
        let (mut bad, mut total) = (0u64, 0u64);
        for b in self
            .timeline
            .iter()
            .take(tb.min(self.timeline.len()))
            .skip(fb)
        {
            bad += b.bad;
            total += b.good + b.bad;
        }
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
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
    fn counters_and_bad_rate() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(0);
        for i in 0..10 {
            m.record_arrival(s, ms(i * 10));
        }
        for i in 0..7 {
            m.record_completion(s, ms(i * 10), ms(i * 10 + 40), true);
        }
        m.record_completion(s, ms(70), ms(200), false);
        m.record_drop(s, ms(80));
        m.record_drop(s, ms(90));
        let sm = m.session(s).unwrap();
        assert_eq!(sm.arrived, 10);
        assert_eq!(sm.good, 7);
        assert_eq!(sm.late, 1);
        assert_eq!(sm.dropped, 2);
        assert!((sm.bad_rate() - 0.3).abs() < 1e-12);
        assert!((m.bad_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn latency_quantiles() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(1);
        for i in 1..=100u64 {
            m.record_completion(s, Micros::ZERO, ms(i), true);
        }
        let sm = m.session(s).unwrap();
        let close = |got: Micros, want: Micros| {
            let (g, w) = (got.as_micros() as f64, want.as_micros() as f64);
            (g - w).abs() / w < 0.05
        };
        assert!(close(sm.latency_quantile(0.5).unwrap(), ms(50)));
        assert!(close(sm.latency_quantile(0.99).unwrap(), ms(99)));
        assert_eq!(sm.latency_quantile(1.0).unwrap(), ms(100));
        assert!(close(
            sm.latencies().mean().unwrap(),
            Micros::from_micros(50_500)
        ));
    }

    #[test]
    fn timeline_buckets_fill_and_carry_allocation() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(0);
        m.record_allocation(Micros::ZERO, 4);
        m.record_arrival(s, Micros::from_secs_f64(0.5));
        m.record_arrival(s, Micros::from_secs_f64(2.5));
        m.record_allocation(Micros::from_secs_f64(2.9), 6);
        m.record_arrival(s, Micros::from_secs_f64(3.5));
        let tl = m.timeline();
        assert_eq!(tl[0].arrivals, 1);
        assert_eq!(tl[2].arrivals, 1);
        assert_eq!(tl[3].arrivals, 1);
        assert_eq!(tl[0].gpus_allocated, 4);
        // The fill between events carries the allocation at fill time.
        assert_eq!(tl[1].gpus_allocated, 4);
        assert_eq!(tl[2].gpus_allocated, 6);
        assert_eq!(tl[3].gpus_allocated, 6);
    }

    #[test]
    fn goodput_and_windowed_bad_rate() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(0);
        // 5 good completions per second for 10 s.
        for sec in 0..10u64 {
            for k in 0..5u64 {
                let t = Micros::from_secs(sec) + ms(k * 100);
                m.record_completion(s, t.saturating_sub(ms(20)), t, true);
            }
        }
        // One bad event in second 3.
        m.record_drop(s, Micros::from_secs(3) + ms(1));
        let gp = m.goodput(Micros::from_secs(2), Micros::from_secs(8));
        assert!((gp - 5.0).abs() < 1e-9, "gp={gp}");
        let br = m.bad_rate_in(Micros::from_secs(3), Micros::from_secs(4));
        assert!((br - 1.0 / 6.0).abs() < 1e-9);
        let br_clean = m.bad_rate_in(Micros::from_secs(5), Micros::from_secs(8));
        assert_eq!(br_clean, 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = ClusterMetrics::new(Micros::from_secs(1));
        assert_eq!(m.bad_rate(), 0.0);
        assert_eq!(m.goodput(Micros::ZERO, Micros::from_secs(1)), 0.0);
    }

    #[test]
    fn failure_records_track_detection() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        m.record_fault(3, Micros::from_secs(10));
        m.record_fault(5, Micros::from_secs(11));
        m.record_detection(3, Micros::from_secs_f64(10.3), 7, 2);
        let f = &m.failures()[0];
        assert_eq!(f.gpu, 3);
        assert_eq!(f.time_to_detect(), Some(ms(300)));
        assert_eq!(f.requests_retried, 7);
        assert_eq!(f.requests_lost, 2);
        // GPU 5's fault is still undetected.
        assert_eq!(m.failures()[1].detected_at, None);
        assert_eq!(m.failures()[1].time_to_detect(), None);
    }

    #[test]
    fn recovery_time_finds_first_healthy_bucket() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(0);
        // Baseline 10/s in seconds 0-4, collapse in 5-7, recovery at 8.
        for sec in 0..10u64 {
            let n = match sec {
                5..=7 => 2,
                _ => 10,
            };
            for k in 0..n {
                let t = Micros::from_secs(sec) + ms(k * 50);
                m.record_completion(s, t.saturating_sub(ms(10)), t, true);
            }
        }
        let rec = m
            .goodput_recovery_time(Micros::from_secs(5), 10.0, 0.95)
            .expect("recovers");
        // First healthy bucket is second 8, ending at t=9 s: 4 s after the
        // fault at t=5 s.
        assert_eq!(rec, Micros::from_secs(4));
        assert_eq!(
            m.goodput_recovery_time(Micros::from_secs(5), 100.0, 0.95),
            None
        );
    }

    #[test]
    fn spike_area_integrates_bad_rate() {
        let mut m = ClusterMetrics::new(Micros::from_secs(1));
        let s = SessionId(0);
        // Second 0: all good. Second 1: half bad. Second 2: all bad.
        for k in 0..4u64 {
            m.record_completion(s, ms(k), ms(k * 10), true);
        }
        for k in 0..2u64 {
            let t = Micros::from_secs(1) + ms(k * 10);
            m.record_completion(s, ms(0), t, true);
            m.record_drop(s, t);
        }
        m.record_drop(s, Micros::from_secs(2) + ms(1));
        let area = m.bad_rate_spike_area(Micros::ZERO, Micros::from_secs(3));
        assert!((area - 1.5).abs() < 1e-9, "area={area}");
        // Empty buckets contribute nothing.
        assert_eq!(
            m.bad_rate_spike_area(Micros::from_secs(5), Micros::from_secs(8)),
            0.0
        );
    }
}
