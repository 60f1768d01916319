//! Shared fleet and workload definitions for the heterogeneous bench
//! (`--bin hetero`) and its CI gate (`--bin hetero_smoke`).
//!
//! The bench compares a mixed 1080Ti/K80/V100 fleet against homogeneous
//! fleets of (approximately) the same hourly cost — the FLOPs-capacity
//! dollar proxy is the sum of `DeviceType::hourly_price_usd` over the
//! fleet — on workloads where device class matters: a tight-SLO detector
//! stage that only a V100 can hold within budget, plus bulk classes that
//! are cheapest on 1080Ti/K80 silicon. Both binaries must agree on the
//! exact configurations, so they live here instead of being duplicated.

use nexus::prelude::*;
use nexus_profile::{Micros, GPU_V100};
use nexus_workload::{apps, AppSpec, AppStage};

/// A named fleet: one pool per device class present.
pub struct Fleet {
    /// Stable identifier used in the committed JSON ("mixed" is the
    /// heterogeneous fleet under test).
    pub name: &'static str,
    pub pools: Vec<DevicePool>,
}

/// Hourly dollar proxy of a fleet: Σ pool size × device hourly price.
fn hourly_cost(pools: &[DevicePool]) -> f64 {
    pools
        .iter()
        .map(|p| f64::from(p.gpus) * p.device.hourly_price_usd)
        .sum()
}

/// The mixed fleet and its homogeneous-equivalent-cost baselines. The
/// mixed fleet costs $11.52/h; each baseline is the homogeneous fleet of
/// one class whose size rounds that cost to the nearest whole GPU
/// (19×1080Ti = $11.40, 13×K80 = $11.70, 4×V100 = $12.24 — the V100
/// fleet gets the round-up, which only biases *against* the mixed fleet).
pub fn fleets() -> Vec<Fleet> {
    vec![
        Fleet {
            name: "mixed",
            pools: vec![
                DevicePool {
                    device: GPU_V100,
                    gpus: 2,
                },
                DevicePool {
                    device: GPU_GTX1080TI,
                    gpus: 6,
                },
                DevicePool {
                    device: GPU_K80,
                    gpus: 2,
                },
            ],
        },
        Fleet {
            name: "all-1080ti",
            pools: vec![DevicePool {
                device: GPU_GTX1080TI,
                gpus: 19,
            }],
        },
        Fleet {
            name: "all-k80",
            pools: vec![DevicePool {
                device: GPU_K80,
                gpus: 13,
            }],
        },
        Fleet {
            name: "all-v100",
            pools: vec![DevicePool {
                device: GPU_V100,
                gpus: 4,
            }],
        },
    ]
}

/// A single-stage SSD detector with a deliberately tight SLO: at 70 ms the
/// worst-case rule 2ℓ(1) ≤ budget fails on a 1080Ti (ℓ(1) = 47 ms) and a
/// K80 (ℓ(1) ≈ 107 ms) but holds comfortably on a V100 (ℓ(1) ≈ 15 ms) —
/// the class is only plannable where the pool-aware DP can reach fast
/// silicon.
pub fn detector(slo: Micros) -> AppSpec {
    AppSpec {
        name: "detector".to_string(),
        slo,
        stages: vec![AppStage {
            model: "ssd".to_string(),
            variants: 1,
            children: vec![],
        }],
        streams: 1,
    }
}

/// The bench workloads. "steady-mix" is feasible on every device class —
/// the honest case where homogeneous cheap silicon can win. "frontier"
/// adds the tight-SLO detector: infeasible on 1080Ti/K80, so homogeneous
/// cheap fleets shed its whole rate while the mixed fleet serves it from
/// the V100 pool and keeps the bulk on cost-effective devices.
pub fn workloads() -> Vec<(&'static str, Vec<TrafficClass>)> {
    vec![
        (
            "steady-mix",
            vec![
                TrafficClass::new(apps::game(), ArrivalKind::Uniform, 500.0),
                TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 60.0),
                TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 20.0),
            ],
        ),
        (
            "frontier",
            vec![
                TrafficClass::new(
                    detector(Micros::from_millis(70)),
                    ArrivalKind::Uniform,
                    250.0,
                ),
                TrafficClass::new(apps::game(), ArrivalKind::Uniform, 400.0),
                TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 50.0),
                TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 15.0),
            ],
        ),
    ]
}

/// One (fleet × workload) measurement.
pub struct HeteroCell {
    /// Good queries per second.
    pub goodput: f64,
    /// Query-level bad rate.
    pub bad_rate: f64,
    /// Sessions the planner marked SLO-infeasible — the budget-violation
    /// count: each one is a session whose latency budget no available
    /// device class can hold, so its whole rate is shed.
    pub infeasible_sessions: usize,
    /// Fleet dollar proxy in USD/hour.
    pub hourly_usd: f64,
    /// Goodput per dollar-proxy (good queries/s per $/h).
    pub per_dollar: f64,
    /// FNV-1a fingerprint of the full `SimResult` debug rendering —
    /// byte-identical runs have equal fingerprints.
    pub fingerprint: u64,
    /// Per-pool rollup: (device name, backends, busy fraction, request
    /// goodput, request bad rate).
    pub pools: Vec<(&'static str, usize, f64, f64, f64)>,
}

/// Runs one fleet on one workload.
///
/// # Panics
///
/// Panics when the workload cannot be planned at all (unknown models).
pub fn run_cell(
    pools: &[DevicePool],
    classes: &[TrafficClass],
    seed: u64,
    warmup: Micros,
    horizon: Micros,
) -> HeteroCell {
    let sim = ClusterSim::try_new_pooled(
        SimConfig {
            system: SystemConfig::nexus().with_static_allocation(),
            device: pools[0].device,
            max_gpus: 0, // derived from the pools
            seed,
            horizon,
            warmup,
            trace_capacity: 0,
            faults: vec![],
        },
        pools.to_vec(),
        classes.to_vec(),
    )
    .expect("bench workloads reference catalog models only");
    let plan = sim.control_plan();
    let infeasible_sessions = plan
        .sessions
        .iter()
        .filter(|s| plan.is_infeasible(s.id))
        .count();
    let hourly_usd = hourly_cost(pools);
    let result = sim.run();
    let pool_rollup = result
        .pool_stats
        .iter()
        .map(|p| {
            (
                p.device,
                p.backends,
                p.busy_frac,
                p.request_goodput,
                p.request_bad_rate,
            )
        })
        .collect();
    HeteroCell {
        goodput: result.query_goodput,
        bad_rate: result.query_bad_rate,
        infeasible_sessions,
        hourly_usd,
        per_dollar: result.query_goodput / hourly_usd,
        fingerprint: fnv1a(format!("{result:?}").as_bytes()),
        pools: pool_rollup,
    }
}

/// FNV-1a over bytes: a stable fingerprint safe to commit (unlike
/// `DefaultHasher`, whose algorithm is not guaranteed across releases).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleets_are_cost_matched_within_ten_percent() {
        let fleets = fleets();
        let mixed = hourly_cost(&fleets[0].pools);
        for f in &fleets[1..] {
            let c = hourly_cost(&f.pools);
            assert!(
                (c - mixed).abs() / mixed < 0.10,
                "{}: ${c:.2}/h vs mixed ${mixed:.2}/h",
                f.name
            );
        }
    }

    #[test]
    fn detector_is_only_feasible_on_fast_silicon() {
        let slo = Micros::from_millis(70);
        let profile = nexus_profile::by_name("ssd").unwrap();
        // 2ℓ(1) ≤ SLO is the paper's worst-case feasibility rule (§4.1).
        assert!(2 * profile.profile_on(&GPU_V100).latency(1).as_micros() < slo.as_micros());
        assert!(2 * profile.profile_on(&GPU_GTX1080TI).latency(1).as_micros() > slo.as_micros());
        assert!(2 * profile.profile_on(&GPU_K80).latency(1).as_micros() > slo.as_micros());
    }
}
