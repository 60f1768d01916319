//! Property-based tests for the event engine and simulated GPU.

#![cfg(test)]

use proptest::prelude::*;

use nexus_profile::{BatchingProfile, Micros, GPU_GTX1080TI};

use crate::engine::reference::HeapEventQueue;
use crate::engine::EventQueue;
use crate::gpu::{ResidentKey, SimGpu};
use crate::interference::InterferenceModel;

proptest! {
    /// The event queue is a stable priority queue: pops come out sorted by
    /// time, ties in insertion order, and nothing is lost.
    #[test]
    fn event_queue_is_stable_and_lossless(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Micros::from_micros(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broke out of order");
            }
        }
    }

    /// Differential: the calendar-backed [`EventQueue`] pops in exactly
    /// the `(time, seq)` order of the `HeapEventQueue` reference under
    /// arbitrary push/pop interleavings — near-horizon pushes, same-time
    /// tie floods, and far-future pushes that spill into the calendar's
    /// overflow heap (deltas up to 2^36 µs dwarf the wheel span, so every
    /// run exercises the spill/refill path).
    #[test]
    fn calendar_pops_in_heap_reference_order(
        ops in prop::collection::vec((0u8..4, 0u64..(1 << 36), 1u8..24), 1..400)
    ) {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut id = 0u64;
        for &(kind, delta, count) in &ops {
            match kind {
                0 => {
                    // Near-horizon push: lands in the wheel.
                    let d = Micros::from_micros(delta & 0xFFFF);
                    cal.push_after(d, id);
                    heap.push_after(d, id);
                    id += 1;
                }
                1 => {
                    // Far-future push: overflow-spill territory.
                    let d = Micros::from_micros(delta);
                    cal.push_after(d, id);
                    heap.push_after(d, id);
                    id += 1;
                }
                2 => {
                    // Same-time tie flood: insertion order must survive.
                    let d = Micros::from_micros(delta & 0xFFFF);
                    for _ in 0..count {
                        cal.push_after(d, id);
                        heap.push_after(d, id);
                        id += 1;
                    }
                }
                _ => {
                    // Interleaved pop: both must agree (also keeps the two
                    // clocks in lockstep, so later `push_after`s match).
                    prop_assert_eq!(cal.pop(), heap.pop());
                    prop_assert_eq!(cal.now(), heap.now());
                }
            }
        }
        prop_assert_eq!(cal.len(), heap.len());
        let drained = cal.drain();
        let mut expect = Vec::with_capacity(heap.len());
        while let Some(item) = heap.pop() {
            expect.push(item);
        }
        prop_assert_eq!(drained, expect);
    }

    /// GPU executions never overlap and busy time accumulates exactly.
    #[test]
    fn gpu_executions_serialize(durations in prop::collection::vec(1u64..50_000, 1..60)) {
        let mut gpu = SimGpu::new(GPU_GTX1080TI);
        let mut expected_busy = 0u64;
        let mut last_finish = Micros::ZERO;
        for &d in &durations {
            let e = gpu.execute(Micros::ZERO, Micros::from_micros(d));
            prop_assert!(e.start >= last_finish);
            prop_assert_eq!(e.finish, e.start + Micros::from_micros(d));
            last_finish = e.finish;
            expected_busy += d;
        }
        prop_assert_eq!(gpu.busy_total().as_micros(), expected_busy);
        prop_assert_eq!(gpu.executions(), durations.len() as u64);
    }

    /// Memory accounting is exact through arbitrary load/unload sequences
    /// and never exceeds capacity.
    #[test]
    fn gpu_memory_accounting(ops in prop::collection::vec((0u64..64, 1u64..2_000_000_000), 1..60)) {
        let mut gpu = SimGpu::new(GPU_GTX1080TI);
        let mut resident: std::collections::HashMap<u64, u64> = Default::default();
        for &(key, bytes) in &ops {
            let k = ResidentKey(key);
            if resident.remove(&key).is_some() {
                prop_assert!(gpu.unload(k).is_ok());
            } else if gpu.load(k, bytes, Micros::ZERO, Micros::ZERO).is_ok() {
                resident.insert(key, bytes);
            }
            let expect: u64 = resident.values().sum();
            prop_assert_eq!(gpu.memory_used(), expect);
            prop_assert!(gpu.memory_used() <= gpu.device().memory_bytes);
        }
    }

    /// Interference slowdown is 1 for a lone model, strictly increasing in
    /// peers, and the stretched profile stays valid.
    #[test]
    fn interference_monotone(overhead in 0.0f64..1.0, k in 2usize..12) {
        let m = InterferenceModel { per_peer_overhead: overhead };
        prop_assert_eq!(m.slowdown(1), 1.0);
        prop_assert!(m.slowdown(k) >= m.slowdown(k - 1));
        prop_assert!(m.slowdown(k) >= k as f64);
        let p = BatchingProfile::from_linear_ms(1.0, 10.0, 32);
        let s = m.stretched_profile(&p, k);
        for b in 1..=32 {
            prop_assert!(s.latency(b) >= p.latency(b));
        }
    }
}
