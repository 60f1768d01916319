//! Heterogeneous clusters: serving across pools of different device types.
//!
//! The paper deploys on homogeneous clusters (16× GTX 1080Ti, 100× K80);
//! mixed fleets are the realistic production case (DESIGN.md §17). A
//! [`DevicePool`] list is a first-class planner input: the pool-aware
//! planner ([`crate::control::plan_pooled`]) chooses the device class per
//! pipeline *stage* jointly with the SLO split, squishy-packs each pool on
//! its own device profiles, and the simulator deploys one control plane
//! per pool with cross-pool handoffs for staged queries. The class-level
//! placement pass here ([`place_classes`]) remains as a fast advisory
//! estimate — which pool a whole class would land on by cost
//! effectiveness — used for capacity sanity checks and reporting.

use nexus_profile::{DeviceType, Micros};

use crate::cluster::{ClusterSim, SimConfig, SimResult};
use crate::config::SystemConfig;
use crate::control::{build_sessions, PlanError, TrafficClass};

/// One homogeneous slice of a mixed fleet.
#[derive(Debug, Clone, Copy)]
pub struct DevicePool {
    /// Device type of every GPU in the pool.
    pub device: DeviceType,
    /// Pool size.
    pub gpus: u32,
}

/// A placement of traffic classes onto pools.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `pool_of[class_index]` = pool index.
    pub pool_of: Vec<usize>,
    /// Estimated GPU demand per pool after placement.
    pub pool_demand: Vec<f64>,
}

/// Estimated GPU demand (GPU-seconds per second) of a class on a device:
/// the sum of its sessions' peak-throughput demands under their SLO splits.
///
/// # Errors
///
/// Returns [`PlanError`] when the class references a model missing from
/// the profile catalog (or its layer schema, under prefix batching) — the
/// demand of an unplannable class is undefined, not zero.
pub fn class_demand(
    class: &TrafficClass,
    cfg: &SystemConfig,
    device: &DeviceType,
) -> Result<f64, PlanError> {
    let (sessions, _) = build_sessions(std::slice::from_ref(class), cfg, device, None)?;
    Ok(sessions
        .iter()
        .filter_map(|s| {
            s.exec_profile
                .max_throughput_for_slo(s.budget)
                .map(|t| s.est_rate / t)
        })
        .sum())
}

/// Places classes onto pools: classes are taken in decreasing demand order
/// and assigned to the pool where their *dollar cost* (demand × hourly
/// price) is lowest among pools with remaining estimated capacity; if no
/// pool has room, the least-loaded pool (relative to size) takes it.
///
/// The visit order ties break on intrinsic class keys (name, then rate),
/// never on input position, so permuting the input permutes the placement
/// identically.
///
/// # Errors
///
/// Returns [`PlanError`] when any class references an unknown model.
pub fn place_classes(
    classes: &[TrafficClass],
    cfg: &SystemConfig,
    pools: &[DevicePool],
) -> Result<Placement, PlanError> {
    assert!(!pools.is_empty(), "need at least one pool");
    // Demand of every class on every pool's device.
    let mut demand: Vec<Vec<f64>> = Vec::with_capacity(classes.len());
    for c in classes {
        let mut row = Vec::with_capacity(pools.len());
        for p in pools {
            row.push(class_demand(c, cfg, &p.device)?);
        }
        demand.push(row);
    }
    let mut order: Vec<usize> = (0..classes.len()).collect();
    order.sort_by(|&a, &b| {
        demand[b][0]
            .partial_cmp(&demand[a][0])
            .expect("finite demand")
            .then_with(|| classes[a].name.cmp(&classes[b].name))
            .then_with(|| classes[b].rate.total_cmp(&classes[a].rate))
    });

    let mut pool_demand = vec![0.0f64; pools.len()];
    let mut pool_of = vec![0usize; classes.len()];
    for ci in order {
        // Candidate pools that can still fit the class (infeasible-on-
        // device classes have infinite/zero-throughput demand; skip pools
        // where demand is not finite or the class cannot run at all).
        // Prefer the cheapest pool with room; if none has room, the one
        // that ends up least (relatively) overloaded.
        let mut best: Option<(usize, (u8, f64))> = None;
        for (pi, pool) in pools.iter().enumerate() {
            let d = demand[ci][pi];
            if !d.is_finite() {
                continue;
            }
            let load_after = (pool_demand[pi] + d) / f64::from(pool.gpus);
            let fits = load_after <= 1.0;
            let score = if fits {
                (0u8, d * pool.device.hourly_price_usd)
            } else {
                (1u8, load_after)
            };
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((pi, score));
            }
        }
        let pi = best.map_or(0, |(pi, _)| pi);
        pool_of[ci] = pi;
        pool_demand[pi] += demand[ci][pi];
    }
    Ok(Placement {
        pool_of,
        pool_demand,
    })
}

/// Outcome of a heterogeneous run: the advisory class placement plus the
/// pooled simulation result (per-pool rollups in
/// [`SimResult::pool_stats`]).
#[derive(Debug)]
pub struct HeteroResult {
    /// The advisory class-level placement (the pool-aware planner derives
    /// the binding per-*stage* placement inside the split DP).
    pub placement: Placement,
    /// The pooled simulation result.
    pub result: SimResult,
}

impl HeteroResult {
    /// Fleet-wide query bad rate.
    pub fn query_bad_rate(&self) -> f64 {
        self.result.query_bad_rate
    }

    /// Fleet-wide good queries per second.
    pub fn query_goodput(&self) -> f64 {
        self.result.query_goodput
    }
}

/// Runs a mixed fleet as one pooled simulation: the pool-aware planner
/// splits each query's SLO across stages *and* device classes, packs each
/// pool on its own profiles, and the event loop hands staged requests
/// across pools.
///
/// # Errors
///
/// Returns [`PlanError`] when a class references an unknown model.
pub fn run_heterogeneous(
    system: &SystemConfig,
    pools: &[DevicePool],
    classes: Vec<TrafficClass>,
    seed: u64,
    warmup: Micros,
    horizon: Micros,
) -> Result<HeteroResult, PlanError> {
    let placement = place_classes(&classes, system, pools)?;
    let sim = ClusterSim::try_new_pooled(
        SimConfig {
            system: system.clone(),
            device: pools[0].device,
            max_gpus: 0, // derived from the pools
            seed,
            horizon,
            warmup,
            trace_capacity: 0,
            faults: vec![],
        },
        pools.to_vec(),
        classes,
    )?;
    Ok(HeteroResult {
        placement,
        result: sim.run(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::{GPU_GTX1080TI, GPU_K80};
    use nexus_workload::{apps, ArrivalKind};

    fn pools() -> Vec<DevicePool> {
        vec![
            DevicePool {
                device: GPU_GTX1080TI,
                gpus: 8,
            },
            DevicePool {
                device: GPU_K80,
                gpus: 8,
            },
        ]
    }

    #[test]
    fn demand_is_higher_on_slower_devices() {
        let cfg = SystemConfig::nexus();
        let class = TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 100.0);
        let fast = class_demand(&class, &cfg, &GPU_GTX1080TI).unwrap();
        let slow = class_demand(&class, &cfg, &GPU_K80).unwrap();
        assert!(slow > fast * 1.5, "K80 demand {slow} vs 1080Ti {fast}");
    }

    #[test]
    fn unknown_model_demand_is_a_typed_error() {
        let cfg = SystemConfig::nexus();
        let mut app = apps::traffic();
        app.stages[0].model = "no_such_model".to_string();
        let class = TrafficClass::new(app, ArrivalKind::Uniform, 50.0);
        let err = class_demand(&class, &cfg, &GPU_GTX1080TI)
            .expect_err("unknown model must not be silent zero demand");
        assert_eq!(
            err,
            PlanError::UnknownModel {
                model: "no_such_model".to_string()
            }
        );
        // And placement refuses the whole batch rather than misplacing it.
        assert!(place_classes(std::slice::from_ref(&class), &cfg, &pools()).is_err());
    }

    #[test]
    fn tight_slo_classes_land_on_the_fast_pool() {
        let cfg = SystemConfig::nexus();
        // game's 50 ms SLO is brutal on a K80; traffic's 400 ms is fine.
        let classes = vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 800.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 80.0),
        ];
        let placement = place_classes(&classes, &cfg, &pools()).unwrap();
        assert_eq!(placement.pool_of[0], 0, "game needs the 1080Ti pool");
    }

    #[test]
    fn heterogeneous_fleet_serves_within_slo() {
        let classes = vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 600.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 60.0),
            TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 20.0),
        ];
        let result = run_heterogeneous(
            &SystemConfig::nexus().with_static_allocation(),
            &pools(),
            classes,
            3,
            Micros::from_secs(3),
            Micros::from_secs(12),
        )
        .unwrap();
        assert!(result.query_goodput() > 500.0);
        assert!(
            result.query_bad_rate() < 0.03,
            "fleet bad rate {}",
            result.query_bad_rate()
        );
        // One rollup per pool, and at least one pool actually deployed.
        assert_eq!(result.result.pool_stats.len(), 2);
        assert!(result.result.pool_stats.iter().any(|p| p.backends > 0));
    }

    #[test]
    fn placement_balances_by_capacity() {
        let cfg = SystemConfig::nexus();
        // Many medium classes: the second pool must receive some.
        let classes: Vec<TrafficClass> = (0..6)
            .map(|_| TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 300.0))
            .collect();
        let placement = place_classes(&classes, &cfg, &pools()).unwrap();
        let on_fast = placement.pool_of.iter().filter(|&&p| p == 0).count();
        assert!(on_fast < 6, "overflow should spill to the second pool");
    }
}
