//! A deterministic discrete-event engine.
//!
//! The entire reproduction runs in *virtual time*: events are `(time, seq,
//! payload)` triples popped in time order with insertion order breaking
//! ties, so a run is bit-for-bit reproducible regardless of host speed.
//!
//! Scheduling is backed by a calendar queue ([`crate::calendar`]) — `O(1)`
//! amortized for the near-horizon events that dominate the simulator's
//! workload. A binary-heap reference implementation (`HeapEventQueue`)
//! is compiled for this crate's tests only, as the differential oracle.

use nexus_profile::Micros;

use crate::calendar::CalendarQueue;

/// A deterministic virtual-time event queue.
///
/// # Examples
///
/// ```
/// use nexus_profile::Micros;
/// use nexus_simgpu::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Micros::from_millis(5), "late");
/// q.push(Micros::from_millis(1), "early");
/// assert_eq!(q.pop(), Some((Micros::from_millis(1), "early")));
/// assert_eq!(q.now(), Micros::from_millis(1));
/// ```
pub struct EventQueue<E> {
    queue: CalendarQueue<E>,
    seq: u64,
    now: Micros,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            queue: CalendarQueue::new(),
            seq: 0,
            now: Micros::ZERO,
        }
    }

    /// Creates an empty queue pre-sized for roughly `n` concurrently
    /// pending events (a workload hint, e.g. GPUs × slots + in-flight
    /// arrivals).
    pub fn with_capacity(n: usize) -> Self {
        let mut q = EventQueue::new();
        q.reserve(n);
        q
    }

    /// Pre-sizes internal storage for roughly `n` concurrently pending
    /// events, cutting reallocation churn during ramp-up. Purely a
    /// capacity hint: pop order is unaffected.
    pub fn reserve(&mut self, n: usize) {
        self.queue.reserve(n);
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Schedules `event` at absolute virtual time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — a simulation that schedules into
    /// the past is broken and must fail loudly.
    pub fn push(&mut self, time: Micros, event: E) {
        assert!(
            time >= self.now,
            "event scheduled at {time} before current time {}",
            self.now
        );
        self.queue.push(time, self.seq, event);
        self.seq += 1;
    }

    /// Schedules `event` `delay` after the current time.
    pub fn push_after(&mut self, delay: Micros, event: E) {
        self.push(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Micros, E)> {
        self.queue.pop().map(|(time, _seq, event)| {
            self.now = time;
            (time, event)
        })
    }

    /// Timestamp of the next event without popping it.
    ///
    /// `O(buckets)` worst case on the calendar layout — fine for
    /// idle-check and test use, not for per-event hot loops (pop
    /// directly instead).
    pub fn peek_time(&self) -> Option<Micros> {
        self.queue.peek_time()
    }

    /// Pops every remaining event in order, advancing the clock past each.
    ///
    /// Useful for end-of-run teardown (flush in-flight completions) and
    /// for differential tests that compare full pop sequences.
    pub fn drain(&mut self) -> Vec<(Micros, E)> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The original `BinaryHeap`-backed event queue, kept as the test oracle:
/// the differential proptests assert [`EventQueue`] pops in exactly this
/// order. API mirrors the part of [`EventQueue`] they drive.
#[cfg(test)]
pub(crate) mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use nexus_profile::Micros;

    /// An event scheduled at a virtual time (heap reference ordering).
    struct Scheduled<E> {
        time: Micros,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Scheduled<E> {}

    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we need earliest-first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub(crate) struct HeapEventQueue<E> {
        heap: BinaryHeap<Scheduled<E>>,
        seq: u64,
        now: Micros,
    }

    impl<E> HeapEventQueue<E> {
        /// Creates an empty queue at time zero.
        pub(crate) fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: Micros::ZERO,
            }
        }

        /// Current virtual time: the timestamp of the last popped event.
        pub(crate) fn now(&self) -> Micros {
            self.now
        }

        /// Schedules `event` at absolute virtual time `time`.
        pub(crate) fn push(&mut self, time: Micros, event: E) {
            assert!(
                time >= self.now,
                "event scheduled at {time} before current time {}",
                self.now
            );
            self.heap.push(Scheduled {
                time,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        /// Schedules `event` `delay` after the current time.
        pub(crate) fn push_after(&mut self, delay: Micros, event: E) {
            self.push(self.now + delay, event);
        }

        /// Pops the earliest event, advancing the clock to its timestamp.
        pub(crate) fn pop(&mut self) -> Option<(Micros, E)> {
            self.heap.pop().map(|s| {
                self.now = s.time;
                (s.time, s.event)
            })
        }

        /// Number of pending events.
        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapEventQueue;
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Micros(30), 3);
        q.push(Micros(10), 1);
        q.push(Micros(20), 2);
        assert_eq!(q.pop(), Some((Micros(10), 1)));
        assert_eq!(q.pop(), Some((Micros(20), 2)));
        assert_eq!(q.pop(), Some((Micros(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(Micros(5), "first");
        q.push(Micros(5), "second");
        q.push(Micros(5), "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(Micros(100), ());
        assert_eq!(q.now(), Micros::ZERO);
        q.pop();
        assert_eq!(q.now(), Micros(100));
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(Micros(100), "a");
        q.pop();
        q.push_after(Micros(50), "b");
        assert_eq!(q.pop(), Some((Micros(150), "b")));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Micros(10), 1);
        q.push(Micros(40), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Micros(20), 2);
        q.push(Micros(30), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Micros(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Micros(7)));
    }

    #[test]
    fn peek_sees_through_buckets_and_overflow() {
        let mut q = EventQueue::new();
        q.push(Micros(40_000_000_000), "overflow");
        assert_eq!(q.peek_time(), Some(Micros(40_000_000_000)));
        q.push(Micros(2_000_000), "wheel");
        assert_eq!(q.peek_time(), Some(Micros(2_000_000)));
        q.push(Micros(100), "near");
        assert_eq!(q.peek_time(), Some(Micros(100)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(Micros(2_000_000)));
    }

    #[test]
    fn drain_empties_in_order_and_advances_clock() {
        let mut q = EventQueue::new();
        q.push(Micros(300), 3);
        q.push(Micros(100), 1);
        q.push(Micros(200), 2);
        let drained = q.drain();
        assert_eq!(
            drained,
            vec![(Micros(100), 1), (Micros(200), 2), (Micros(300), 3)]
        );
        assert!(q.is_empty());
        assert_eq!(q.now(), Micros(300));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(100_000);
        q.push(Micros(9), "b");
        q.push(Micros(4), "a");
        assert_eq!(q.pop(), Some((Micros(4), "a")));
        assert_eq!(q.pop(), Some((Micros(9), "b")));
    }

    #[test]
    fn heap_reference_matches_on_basics() {
        let mut q = HeapEventQueue::new();
        q.push(Micros(5), "first");
        q.push(Micros(5), "second");
        q.push(Micros(2), "zero");
        assert_eq!(q.pop(), Some((Micros(2), "zero")));
        assert_eq!(q.pop(), Some((Micros(5), "first")));
        assert_eq!(q.pop(), Some((Micros(5), "second")));
        assert_eq!(q.now(), Micros(5));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Micros(100), ());
        q.pop();
        q.push(Micros(50), ());
    }
}
