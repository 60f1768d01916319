//! A calendar queue (hierarchical timer wheel with overflow) for the
//! discrete-event engine.
//!
//! The simulator's event population is dense near the current time: duty
//! cycles, batch completions, and arrivals all schedule within a few
//! hundred milliseconds of *now*, while only rare control-plane events
//! (epoch ticks, far-future faults) land beyond that. A binary heap pays
//! `O(log n)` per operation on every event; a calendar queue pays `O(1)`
//! amortized for the near-horizon common case by spreading events over a
//! wheel of time buckets, and parks far-future events in a small overflow
//! heap that is drained bucket-by-bucket as the wheel rotates.
//!
//! Ordering is *exactly* the engine's `(time, seq)` order — a bucket is
//! sorted when the cursor reaches it, and same-bucket pushes insert in
//! sorted position — so swapping the heap for the wheel is observationally
//! invisible: any interleaving of pushes and pops yields the identical
//! event sequence (the differential proptests in this crate assert this
//! against a binary-heap reference).
//!
//! The bucket width self-tunes: every `RETUNE_PERIOD` (8192) pops the queue
//! re-estimates the mean inter-event gap and picks the power-of-two width
//! closest to `4×` that gap, rebuilding the wheel when the estimate moves.
//! Tuning depends only on the popped event stream, so it is deterministic
//! for a given push/pop history.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use nexus_profile::Micros;

/// One scheduled event: `(time, seq)` is the total pop order.
#[derive(Debug)]
struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the overflow needs earliest
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Wheel size. 4096 buckets × the tuned width covers the near horizon;
/// everything later overflows to the heap. Power of two so the bucket
/// index is a mask, not a modulo.
const NBUCKETS: usize = 4096;
const MASK: u64 = NBUCKETS as u64 - 1;

/// Pops between width re-estimations.
const RETUNE_PERIOD: u64 = 8192;

/// A timer-wheel priority queue popping in exact `(time, seq)` order.
///
/// `seq` is caller-assigned and must be unique; ties in `time` break by
/// ascending `seq`. Pushing a `(time, seq)` pair below the last popped one
/// is a logic error (the engine asserts time monotonicity above this
/// layer).
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The wheel. Bucket `b & MASK` holds events whose bucket index
    /// `time >> shift` equals `b`, for `b` in `[base, base + NBUCKETS)`.
    /// Bucket contents are unsorted until the cursor reaches them.
    buckets: Vec<Vec<Entry<E>>>,
    /// `log2` of the bucket width in microseconds.
    shift: u32,
    /// Bucket index (`time >> shift`) of the cursor bucket.
    base: u64,
    /// The cursor bucket's events, sorted descending by `(time, seq)` —
    /// pops take from the back.
    current: Vec<Entry<E>>,
    /// Events at or beyond the wheel horizon, in a min-heap.
    overflow: BinaryHeap<Entry<E>>,
    /// Events in wheel buckets (excluding `current` and `overflow`).
    wheel_len: usize,
    /// Total events queued.
    len: usize,
    /// Pops since the last retune, and the time the window started.
    pops_since_tune: u64,
    tune_started: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue with a 1.024 ms initial bucket width.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            shift: 10,
            base: 0,
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            pops_since_tune: 0,
            tune_started: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pre-sizes internal storage for roughly `n` concurrently queued
    /// events, cutting reallocation churn during ramp-up.
    pub fn reserve(&mut self, n: usize) {
        // Spread the hint over the wheel (events cluster near the cursor,
        // so give each bucket a modest floor) and the overflow heap.
        let per_bucket = (n / NBUCKETS).clamp(2, 64);
        for b in &mut self.buckets {
            if b.capacity() < per_bucket {
                b.reserve(per_bucket - b.len());
            }
        }
        self.current
            .reserve(n.clamp(16, 4096).saturating_sub(self.current.len()));
    }

    /// Schedules `event` at `time` with tie-break `seq`.
    pub fn push(&mut self, time: Micros, seq: u64, event: E) {
        let t = time.0;
        let bucket = t >> self.shift;
        let entry = Entry {
            time: t,
            seq,
            event,
        };
        if bucket <= self.base {
            // Cursor bucket: it must pop before anything in later buckets,
            // so it joins `current` in sorted (descending) position,
            // keeping the pop order exact. (`<=`, not `==`: a push at or
            // after the last pop never lands behind the cursor, and one
            // that breaks that contract still pops next rather than
            // waiting out a full wheel turn.)
            let pos = self.current.partition_point(|e| (e.time, e.seq) > (t, seq));
            self.current.insert(pos, entry);
        } else if bucket < self.base + NBUCKETS as u64 {
            self.buckets[(bucket & MASK) as usize].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(entry);
        }
        self.len += 1;
    }

    /// Timestamp of the earliest event without popping it.
    ///
    /// `O(buckets)` worst case: the wheel's unsorted buckets are scanned
    /// in cursor order. The bucket layout is an ordering by construction
    /// — cursor-bucket times < later-bucket times < overflow times — so
    /// the first populated tier wins.
    pub fn peek_time(&self) -> Option<Micros> {
        if let Some(e) = self.current.last() {
            return Some(Micros(e.time));
        }
        if self.wheel_len > 0 {
            for b in (self.base + 1)..(self.base + NBUCKETS as u64) {
                let slot = &self.buckets[(b & MASK) as usize];
                if let Some(min) = slot.iter().map(|e| e.time).min() {
                    return Some(Micros(min));
                }
            }
        }
        self.overflow.peek().map(|e| Micros(e.time))
    }

    /// Pops the earliest event as `(time, seq, event)`.
    pub fn pop(&mut self) -> Option<(Micros, u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(e) = self.current.pop() {
                self.len -= 1;
                self.retune(e.time);
                return Some((Micros(e.time), e.seq, e.event));
            }
            self.advance();
        }
    }

    /// Advances the cursor to the next non-empty bucket, refilling from the
    /// overflow heap as the horizon moves. Only called with `len > 0` and
    /// `current` empty.
    fn advance(&mut self) {
        if self.wheel_len == 0 {
            // The wheel is empty: jump the cursor straight to the earliest
            // overflow event's bucket instead of stepping through up to
            // NBUCKETS empty slots (epoch ticks park seconds ahead).
            let head = self
                .overflow
                .peek()
                .expect("len > 0 with empty wheel and current");
            self.base = head.time >> self.shift;
        } else {
            self.base += 1;
        }
        // Newly within the horizon: overflow events in the bucket that just
        // rotated in (and, after a jump, everything up to the new horizon).
        let horizon = self.base + NBUCKETS as u64;
        while let Some(head) = self.overflow.peek() {
            if head.time >> self.shift >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let b = e.time >> self.shift;
            if b == self.base {
                self.current.push(e);
            } else {
                self.buckets[(b & MASK) as usize].push(e);
                self.wheel_len += 1;
            }
        }
        let slot = &mut self.buckets[(self.base & MASK) as usize];
        if !slot.is_empty() {
            self.wheel_len -= slot.len();
            self.current.append(slot);
        }
        if !self.current.is_empty() {
            // Sort once per bucket visit; subsequent same-bucket pushes
            // insert in position.
            self.current
                .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
    }

    /// Re-estimates the bucket width every [`RETUNE_PERIOD`] pops: width ≈
    /// 4× the observed mean inter-event gap, snapped to a power of two.
    fn retune(&mut self, now: u64) {
        self.pops_since_tune += 1;
        if self.pops_since_tune < RETUNE_PERIOD {
            return;
        }
        let elapsed = now.saturating_sub(self.tune_started);
        self.pops_since_tune = 0;
        self.tune_started = now;
        if elapsed == 0 {
            return;
        }
        let target = (elapsed / RETUNE_PERIOD * 4).max(1);
        let want = (63 - target.leading_zeros()).min(20);
        if want != self.shift {
            self.rebuild(want, now);
        }
    }

    /// Rebuilds the wheel at a new bucket width, preserving every entry.
    fn rebuild(&mut self, shift: u32, now: u64) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        entries.append(&mut self.current);
        for b in &mut self.buckets {
            entries.append(b);
        }
        entries.extend(std::mem::take(&mut self.overflow));
        self.shift = shift;
        self.base = now >> shift;
        self.wheel_len = 0;
        let horizon = self.base + NBUCKETS as u64;
        for e in entries {
            let bucket = e.time >> shift;
            if bucket == self.base {
                self.current.push(e);
            } else if bucket < horizon {
                self.buckets[(bucket & MASK) as usize].push(e);
                self.wheel_len += 1;
            } else {
                self.overflow.push(e);
            }
        }
        self.current
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((t, s, _)) = q.pop() {
            out.push((t.0, s));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(Micros(50), 0, 0);
        q.push(Micros(10), 1, 1);
        q.push(Micros(50), 2, 2);
        q.push(Micros(10), 3, 3);
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 3), (50, 0), (50, 2)]);
    }

    #[test]
    fn far_future_overflow_spills_back_in() {
        let mut q = CalendarQueue::new();
        // Beyond the initial horizon (4096 × 1024 µs ≈ 4.2 s).
        q.push(Micros(30_000_000), 0, 0);
        q.push(Micros(100), 1, 1);
        q.push(Micros(10_000_000_000), 2, 2);
        assert_eq!(
            drain(&mut q),
            vec![(100, 1), (30_000_000, 0), (10_000_000_000, 2)]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.push(Micros(10), 0, 10);
        q.push(Micros(40), 1, 40);
        assert_eq!(q.pop().unwrap().0, Micros(10));
        // Pushes into the current bucket and near-future buckets while
        // draining.
        q.push(Micros(10), 2, 11);
        q.push(Micros(20), 3, 20);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _, _)| t.0)
            .collect();
        assert_eq!(order, vec![10, 20, 40]);
    }

    #[test]
    fn same_time_flood_pops_in_seq_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..1000u64 {
            q.push(Micros(777), seq, seq);
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, s, _)| s).collect();
        assert_eq!(seqs, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_population() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.is_empty());
        q.push(Micros(5), 0, ());
        q.push(Micros(100_000_000), 1, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn retune_preserves_order_across_rebuilds() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut expect = Vec::new();
        // Dense phase (1 µs gaps) then sparse phase (100 ms gaps): the
        // width estimate swings both ways across RETUNE_PERIOD boundaries.
        for i in 0..20_000u64 {
            q.push(Micros(i), seq, i);
            expect.push((i, seq));
            seq += 1;
        }
        for i in 0..100u64 {
            let t = 20_000 + i * 100_000_000;
            q.push(Micros(t), seq, t);
            expect.push((t, seq));
            seq += 1;
        }
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn reserve_is_observationally_inert() {
        let mut q = CalendarQueue::new();
        q.reserve(1_000_000);
        q.push(Micros(3), 0, 3);
        q.push(Micros(1), 1, 1);
        assert_eq!(drain(&mut q), vec![(1, 1), (3, 0)]);
    }
}
