//! Deterministic parallel fan-out for sweep binaries.
//!
//! A sweep binary evaluates many independent `(workload, policy, gpus)`
//! points, each of which is a single-threaded, seeded, bit-reproducible
//! simulation. [`par_map`] fans those points across cores and returns the
//! results in input order, so a sweep's output is byte-identical whether it
//! ran on one thread or sixteen — the parallelism lives strictly *between*
//! simulations, never inside one.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads: `NEXUS_BENCH_THREADS` if set (0 or 1 forces
/// serial), otherwise the machine's available parallelism.
fn thread_count() -> usize {
    if let Ok(v) = std::env::var("NEXUS_BENCH_THREADS") {
        return v
            .trim()
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("NEXUS_BENCH_THREADS must be an integer, got {v:?}"))
            .max(1);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning across threads, and returns results
/// in input order.
///
/// Workers pull the next unclaimed index from a shared counter (cheap
/// work-stealing: sweep points vary wildly in cost), tag each result with
/// its index, and the merge sorts by index — the output is identical to
/// `items.iter().map(f).collect()` for any thread count. Threads are
/// scoped to the call: a sweep binary calls this once, so a persistent
/// pool would buy nothing.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (as "sweep worker
/// panicked" when it happened on a worker thread).
///
/// # Examples
///
/// ```
/// let squares = bench::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = thread_count().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results travel back
    // through the join.
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Uneven per-item cost exercises the work-stealing interleave.
        let f = |&x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        };
        let serial: Vec<_> = items.iter().map(f).collect();
        assert_eq!(par_map(&items, f), serial);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, |&x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Back-to-back sweeps each get fresh scoped workers and a fresh
        // index counter; results stay order-exact on every call.
        for round in 0u64..5 {
            let items: Vec<u64> = (0..40).map(|i| i + round * 100).collect();
            let serial: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(par_map(&items, |&x| x * 3), serial);
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        // Enough items that workers actually spawn even on small machines.
        let items: Vec<u32> = (0..64).collect();
        if thread_count() < 2 {
            // Serial path panics inline; match the harness expectation.
            panic!("sweep worker panicked");
        }
        par_map(&items, |&x| {
            assert!(x != 13, "boom");
            x
        });
    }
}
