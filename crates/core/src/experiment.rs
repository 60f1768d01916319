//! Experiment driver: the paper's headline metric.
//!
//! §7: "we refer to the maximum rate of queries that Nexus can process such
//! that 99% of them are served within their latency SLOs as its
//! *throughput*". This module measures that by bisecting the offered rate:
//! each probe runs the cluster simulation at a candidate rate and checks
//! the query-level bad rate against the target.

use nexus_profile::{DeviceType, Micros};
use nexus_runtime::{ClusterSim, SimConfig, SimResult, SystemConfig, TrafficClass};

/// Parameters of a max-goodput search.
#[derive(Debug, Clone)]
pub struct ThroughputSearch {
    /// Maximum tolerated query bad rate (paper: 0.01).
    pub target_bad_rate: f64,
    /// Lower bound on the offered rate (known-good).
    pub lo: f64,
    /// Upper bound on the offered rate (known-bad or ceiling).
    pub hi: f64,
    /// Bisection iterations (each runs one simulation).
    pub iters: u32,
}

impl Default for ThroughputSearch {
    fn default() -> Self {
        ThroughputSearch {
            target_bad_rate: 0.01,
            lo: 1.0,
            hi: 20_000.0,
            iters: 12,
        }
    }
}

/// Finds the largest offered rate whose measured bad rate stays within the
/// target, given `probe(rate) -> bad_rate`.
///
/// Measured bad rates are noisy and not perfectly monotone in rate; simple
/// bisection against the target is the paper's methodology and is robust
/// enough at the 1% level.
pub fn max_rate_within(search: &ThroughputSearch, mut probe: impl FnMut(f64) -> f64) -> f64 {
    let (mut lo, mut hi) = (search.lo, search.hi);
    // If even `hi` is good, report it (caller chose the ceiling).
    if probe(hi) <= search.target_bad_rate {
        return hi;
    }
    for _ in 0..search.iters {
        let mid = 0.5 * (lo + hi);
        if probe(mid) <= search.target_bad_rate {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Convenience: one simulation run of `system` over `classes` on a cluster
/// of `gpus` devices. Up to `trace_capacity` execution-trace events are
/// captured into [`SimResult::trace`]; 0 disables capture (tracing is off
/// the simulation path, so results are identical either way).
///
/// # Panics
///
/// Panics if `warmup >= horizon` or the classes cannot be planned (see
/// [`ClusterSim::new`]).
#[allow(clippy::too_many_arguments)]
pub fn run_once(
    system: SystemConfig,
    device: DeviceType,
    gpus: u32,
    classes: Vec<TrafficClass>,
    seed: u64,
    warmup: Micros,
    horizon: Micros,
    trace_capacity: usize,
) -> SimResult {
    ClusterSim::new(
        SimConfig {
            system,
            device,
            max_gpus: gpus,
            seed,
            horizon,
            warmup,
            trace_capacity,
            faults: vec![],
        },
        classes,
    )
    .run()
}

/// Measures a system's throughput (max 99%-good rate) for a workload
/// parameterized by total offered rate.
#[allow(clippy::too_many_arguments)]
pub fn measure_throughput(
    system: &SystemConfig,
    device: &DeviceType,
    gpus: u32,
    classes_at: impl Fn(f64) -> Vec<TrafficClass>,
    search: &ThroughputSearch,
    seed: u64,
    warmup: Micros,
    horizon: Micros,
) -> f64 {
    max_rate_within(search, |rate| {
        run_once(
            system.clone(),
            *device,
            gpus,
            classes_at(rate),
            seed,
            warmup,
            horizon,
            0,
        )
        .query_bad_rate
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_finds_threshold_of_step_function() {
        // bad(r) = 0 below 730, 1 above.
        let search = ThroughputSearch {
            target_bad_rate: 0.01,
            lo: 0.0,
            hi: 1_000.0,
            iters: 20,
        };
        let got = max_rate_within(&search, |r| if r <= 730.0 { 0.0 } else { 1.0 });
        assert!((got - 730.0).abs() < 1.0, "got {got}");
    }

    #[test]
    fn good_ceiling_is_returned_directly() {
        let search = ThroughputSearch {
            target_bad_rate: 0.01,
            lo: 0.0,
            hi: 500.0,
            iters: 20,
        };
        let mut probes = 0;
        let got = max_rate_within(&search, |_| {
            probes += 1;
            0.0
        });
        assert_eq!(got, 500.0);
        assert_eq!(probes, 1);
    }

    #[test]
    fn sloped_bad_rate_converges_to_one_percent_crossing() {
        // bad(r) = (r - 400) / 1000 above 400 ⇒ crosses 1% at 410.
        let search = ThroughputSearch {
            target_bad_rate: 0.01,
            lo: 0.0,
            hi: 800.0,
            iters: 24,
        };
        let got = max_rate_within(&search, |r| ((r - 400.0) / 1_000.0).max(0.0));
        assert!((got - 410.0).abs() < 0.5, "got {got}");
    }
}
