//! JSON workload configurations for the `simulate` binary: describe a
//! deployment (apps, rates, arrival shapes, cluster, system) in a file and
//! run it without writing Rust.

use serde::{Deserialize, Serialize};

use nexus::prelude::*;
use nexus_profile::{Micros, GPU_GTX1080TI, GPU_K80, GPU_V100};
use nexus_workload::apps::{self, AppStage};

/// One application stream in a workload file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppEntry {
    /// Table 4 application name (`game`, `traffic`, `traffic_rush`,
    /// `dance`, `bb`, `bike`, `amber`, `logo`).
    pub app: String,
    /// Offered root rate, frames/second: positive, at most [`MAX_RATE`].
    pub rate: f64,
    /// `uniform` (default) or `poisson`.
    #[serde(default)]
    pub arrival: Option<String>,
    /// Multiplies the app's latency SLO (e.g. 2.0 on K80-class devices).
    #[serde(default)]
    pub slo_scale: Option<f64>,
    /// Piecewise rate modulation: time-sorted `[seconds, factor]` pairs,
    /// seconds ≥ 0, each factor keeping the rate in `(0, MAX_RATE]`.
    #[serde(default)]
    pub modulation: Vec<(f64, f64)>,
    /// Custom single-stage app: catalog model name. When set, `app` becomes
    /// the display name and `slo_ms` is required.
    #[serde(default)]
    pub model: Option<String>,
    /// Latency SLO in milliseconds (≥ 1) for a custom single-stage app.
    #[serde(default)]
    pub slo_ms: Option<u64>,
}

/// One injected fault in a workload file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultEntry {
    /// Injection time, seconds from simulation start.
    pub at_secs: f64,
    /// Physical GPU slot (0-based, `< gpus`).
    pub gpu: usize,
    /// `crash`, `stall`, `slowdown`, or `rejoin`.
    pub kind: String,
    /// Duration in seconds (`stall` / `slowdown` only).
    #[serde(default)]
    pub secs: Option<f64>,
    /// Slowdown factor ≥ 1.0 (`slowdown` only).
    #[serde(default)]
    pub factor: Option<f64>,
}

/// A complete workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadFile {
    /// Cluster size.
    pub gpus: u32,
    /// Device type: `gtx1080ti` (default), `k80`, or `v100`.
    #[serde(default)]
    pub device: Option<String>,
    /// System: `nexus` (default), `nexus-batch`, `clipper`, `tf-serving`,
    /// `nexus-parallel`, or an ablation (`-PB`, `-SS`, `-ED`, `-OL`, `-QA`).
    #[serde(default)]
    pub system: Option<String>,
    /// Measured seconds, at least 1 (warm-up is added on top).
    pub secs: u64,
    /// RNG seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Epoch seconds (default 30; 0 = static allocation).
    #[serde(default)]
    pub epoch_secs: Option<u64>,
    /// The application streams.
    pub apps: Vec<AppEntry>,
    /// Scheduled GPU faults (empty = fault-free run).
    #[serde(default)]
    pub faults: Vec<FaultEntry>,
}

/// Errors from interpreting a workload file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError(pub String);

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload config error: {}", self.0)
    }
}

impl std::error::Error for WorkloadError {}

/// Highest accepted arrival rate, requests/second, modulation included: one
/// per microsecond. The simulation clock ticks in microseconds, so above
/// this successive arrivals stop advancing time.
pub const MAX_RATE: f64 = 1_000_000.0;

/// Whether `rate` is a usable arrival rate (NaN fails both comparisons).
fn rate_in_range(rate: f64) -> bool {
    rate > 0.0 && rate <= MAX_RATE
}

impl WorkloadFile {
    /// Parses a JSON workload description.
    pub fn from_json(json: &str) -> Result<Self, WorkloadError> {
        serde_json::from_str(json).map_err(|e| WorkloadError(e.to_string()))
    }

    /// The device type named by the config.
    pub fn device_type(&self) -> Result<nexus_profile::DeviceType, WorkloadError> {
        match self.device.as_deref().unwrap_or("gtx1080ti") {
            "gtx1080ti" => Ok(GPU_GTX1080TI),
            "k80" => Ok(GPU_K80),
            "v100" => Ok(GPU_V100),
            other => Err(WorkloadError(format!("unknown device {other:?}"))),
        }
    }

    /// The system configuration named by the config.
    pub fn system_config(&self) -> Result<SystemConfig, WorkloadError> {
        let mut cfg = match self.system.as_deref().unwrap_or("nexus") {
            "nexus" => SystemConfig::nexus(),
            "nexus-batch" => SystemConfig::nexus_batch_mode(),
            "clipper" => SystemConfig::clipper(),
            "tf-serving" => SystemConfig::tf_serving(),
            "nexus-parallel" => SystemConfig::nexus_parallel(),
            "-PB" => SystemConfig::nexus_no_pb(),
            "-SS" => SystemConfig::nexus_no_ss(),
            "-ED" => SystemConfig::nexus_no_ed(),
            "-OL" => SystemConfig::nexus_no_ol(),
            "-QA" => SystemConfig::nexus_no_qa(),
            other => return Err(WorkloadError(format!("unknown system {other:?}"))),
        };
        match self.epoch_secs {
            Some(0) => cfg = cfg.with_static_allocation(),
            Some(s) => cfg = cfg.with_epoch(Micros::from_secs(s)),
            None => {}
        }
        Ok(cfg)
    }

    /// The run's `(warmup, horizon)`: `secs` measured seconds after a
    /// warm-up of a quarter of that, clamped to 2–10 s.
    pub fn window(&self) -> Result<(Micros, Micros), WorkloadError> {
        if self.secs == 0 {
            return Err(WorkloadError(
                "\"secs\" must be at least 1: nothing would be measured".into(),
            ));
        }
        let warmup_secs = (self.secs / 4).clamp(2, 10);
        let horizon_micros = self
            .secs
            .checked_add(warmup_secs)
            .and_then(|s| s.checked_mul(1_000_000))
            .ok_or_else(|| {
                WorkloadError(format!(
                    "\"secs\" {} is beyond the simulation clock",
                    self.secs
                ))
            })?;
        Ok((
            Micros::from_secs(warmup_secs),
            Micros::from_micros(horizon_micros),
        ))
    }

    /// Builds the traffic classes.
    pub fn classes(&self) -> Result<Vec<TrafficClass>, WorkloadError> {
        self.apps
            .iter()
            .map(|entry| {
                let mut app = if let Some(model) = &entry.model {
                    // Custom single-stage app: the model name is validated
                    // later, when the control plane plans the deployment
                    // (an unknown model is a typed `PlanError`, not a
                    // config-parse failure).
                    let slo_ms = entry.slo_ms.ok_or_else(|| {
                        WorkloadError(format!("custom app {:?} needs slo_ms", entry.app))
                    })?;
                    if slo_ms == 0 {
                        return Err(WorkloadError("slo_ms must be at least 1".into()));
                    }
                    AppSpec {
                        name: entry.app.clone(),
                        slo: Micros::from_millis(slo_ms),
                        stages: vec![AppStage {
                            model: model.clone(),
                            variants: 1,
                            children: vec![],
                        }],
                        streams: 1,
                    }
                } else {
                    match entry.app.as_str() {
                        "game" => apps::game(),
                        "traffic" => apps::traffic(),
                        "traffic_rush" => apps::traffic_rush_hour(),
                        "dance" => apps::dance(),
                        "bb" => apps::bb(),
                        "bike" => apps::bike(),
                        "amber" => apps::amber(),
                        "logo" => apps::logo(),
                        other => return Err(WorkloadError(format!("unknown app {other:?}"))),
                    }
                };
                if let Some(scale) = entry.slo_scale {
                    if !(scale.is_finite() && scale > 0.0) {
                        return Err(WorkloadError("slo_scale must be positive".into()));
                    }
                    app.slo = app.slo.scale(scale);
                }
                let arrival = match entry.arrival.as_deref().unwrap_or("uniform") {
                    "uniform" => ArrivalKind::Uniform,
                    "poisson" => ArrivalKind::Poisson,
                    other => return Err(WorkloadError(format!("unknown arrival {other:?}"))),
                };
                if !rate_in_range(entry.rate) {
                    return Err(WorkloadError(format!(
                        "rate must be in (0, {MAX_RATE}] requests/s, got {:?}",
                        entry.rate
                    )));
                }
                for &(secs, factor) in &entry.modulation {
                    if !(secs.is_finite() && secs >= 0.0) {
                        return Err(WorkloadError("modulation time must be >= 0".into()));
                    }
                    if !rate_in_range(entry.rate * factor) {
                        return Err(WorkloadError(format!(
                            "modulation factor {factor:?} takes the rate outside \
                             (0, {MAX_RATE}] requests/s"
                        )));
                    }
                }
                if !entry.modulation.windows(2).all(|w| w[0].0 <= w[1].0) {
                    return Err(WorkloadError("modulation must be time-sorted".into()));
                }
                let modulation = entry
                    .modulation
                    .iter()
                    .map(|&(secs, factor)| (Micros::from_secs_f64(secs), factor))
                    .collect();
                Ok(TrafficClass::new(app, arrival, entry.rate).with_modulation(modulation))
            })
            .collect()
    }

    /// Builds the fault schedule.
    pub fn faults(&self) -> Result<Vec<FaultSpec>, WorkloadError> {
        self.faults
            .iter()
            .map(|entry| {
                if !(entry.at_secs.is_finite() && entry.at_secs >= 0.0) {
                    return Err(WorkloadError("fault at_secs must be >= 0".into()));
                }
                if entry.gpu >= self.gpus as usize {
                    return Err(WorkloadError(format!(
                        "fault gpu {} out of range (cluster has {})",
                        entry.gpu, self.gpus
                    )));
                }
                let duration = || -> Result<Micros, WorkloadError> {
                    let secs = entry.secs.ok_or_else(|| {
                        WorkloadError(format!("fault kind {:?} needs secs", entry.kind))
                    })?;
                    if !(secs.is_finite() && secs > 0.0) {
                        return Err(WorkloadError("fault secs must be positive".into()));
                    }
                    Ok(Micros::from_secs_f64(secs))
                };
                let kind = match entry.kind.as_str() {
                    "crash" => FaultKind::Crash,
                    "stall" => FaultKind::Stall {
                        duration: duration()?,
                    },
                    "slowdown" => {
                        let factor = entry
                            .factor
                            .ok_or_else(|| WorkloadError("slowdown needs factor".into()))?;
                        if !(factor.is_finite() && factor >= 1.0) {
                            return Err(WorkloadError("slowdown factor must be >= 1.0".into()));
                        }
                        FaultKind::Slowdown {
                            factor,
                            duration: duration()?,
                        }
                    }
                    "rejoin" => FaultKind::Rejoin,
                    "conn_drop" => FaultKind::ConnDrop {
                        duration: duration()?,
                    },
                    "heartbeat_delay" => FaultKind::HeartbeatDelay {
                        duration: duration()?,
                    },
                    "slow_loris" => {
                        let factor = entry
                            .factor
                            .ok_or_else(|| WorkloadError("slow_loris needs factor".into()))?;
                        if !(factor.is_finite() && factor >= 1.0) {
                            return Err(WorkloadError("slow_loris factor must be >= 1.0".into()));
                        }
                        FaultKind::SlowLoris {
                            factor,
                            duration: duration()?,
                        }
                    }
                    other => return Err(WorkloadError(format!("unknown fault kind {other:?}"))),
                };
                Ok(FaultSpec {
                    at: Micros::from_secs_f64(entry.at_secs),
                    slot: entry.gpu,
                    kind,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = include_str!("../../../workloads/sample.json");

    #[test]
    fn sample_workload_parses() {
        let w = WorkloadFile::from_json(SAMPLE).expect("sample parses");
        assert_eq!(w.gpus, 16);
        assert!(w.device_type().is_ok());
        assert!(w.system_config().is_ok());
        let classes = w.classes().expect("apps resolve");
        assert_eq!(classes.len(), w.apps.len());
    }

    #[test]
    fn unknown_names_are_reported() {
        let bad = r#"{"gpus": 4, "secs": 5, "apps": [{"app": "nope", "rate": 1.0}]}"#;
        let w = WorkloadFile::from_json(bad).unwrap();
        assert!(w.classes().is_err());
        let bad_sys = r#"{"gpus": 4, "secs": 5, "system": "zork", "apps": []}"#;
        assert!(WorkloadFile::from_json(bad_sys)
            .unwrap()
            .system_config()
            .is_err());
    }

    #[test]
    fn slo_scale_applies() {
        let json = r#"{"gpus": 4, "secs": 5,
            "apps": [{"app": "traffic", "rate": 10.0, "slo_scale": 2.0}]}"#;
        let classes = WorkloadFile::from_json(json).unwrap().classes().unwrap();
        assert_eq!(classes[0].app.slo, Micros::from_millis(800));
    }

    #[test]
    fn fault_entries_resolve_to_specs() {
        let json = r#"{"gpus": 16, "secs": 30, "apps": [],
            "faults": [
                {"at_secs": 10.0, "gpu": 0, "kind": "crash"},
                {"at_secs": 12.0, "gpu": 1, "kind": "stall", "secs": 0.5},
                {"at_secs": 14.0, "gpu": 2, "kind": "slowdown", "secs": 2.0, "factor": 3.0},
                {"at_secs": 20.0, "gpu": 0, "kind": "rejoin"},
                {"at_secs": 22.0, "gpu": 3, "kind": "conn_drop", "secs": 0.4},
                {"at_secs": 24.0, "gpu": 4, "kind": "heartbeat_delay", "secs": 1.0},
                {"at_secs": 26.0, "gpu": 5, "kind": "slow_loris", "secs": 2.0, "factor": 4.0}
            ]}"#;
        let w = WorkloadFile::from_json(json).unwrap();
        let faults = w.faults().expect("faults resolve");
        assert_eq!(faults.len(), 7);
        assert_eq!(faults[0].kind, FaultKind::Crash);
        assert_eq!(faults[0].at, Micros::from_secs(10));
        assert_eq!(
            faults[1].kind,
            FaultKind::Stall {
                duration: Micros::from_millis(500)
            }
        );
        assert_eq!(
            faults[2].kind,
            FaultKind::Slowdown {
                factor: 3.0,
                duration: Micros::from_secs(2)
            }
        );
        assert_eq!(faults[3].kind, FaultKind::Rejoin);
        assert_eq!(
            faults[4].kind,
            FaultKind::ConnDrop {
                duration: Micros::from_millis(400)
            }
        );
        assert_eq!(
            faults[5].kind,
            FaultKind::HeartbeatDelay {
                duration: Micros::from_secs(1)
            }
        );
        assert_eq!(
            faults[6].kind,
            FaultKind::SlowLoris {
                factor: 4.0,
                duration: Micros::from_secs(2)
            }
        );
    }

    #[test]
    fn bad_fault_entries_are_reported() {
        let out_of_range = r#"{"gpus": 4, "secs": 5, "apps": [],
            "faults": [{"at_secs": 1.0, "gpu": 9, "kind": "crash"}]}"#;
        assert!(WorkloadFile::from_json(out_of_range)
            .unwrap()
            .faults()
            .is_err());
        let bad_kind = r#"{"gpus": 4, "secs": 5, "apps": [],
            "faults": [{"at_secs": 1.0, "gpu": 0, "kind": "meltdown"}]}"#;
        assert!(WorkloadFile::from_json(bad_kind).unwrap().faults().is_err());
        let missing_secs = r#"{"gpus": 4, "secs": 5, "apps": [],
            "faults": [{"at_secs": 1.0, "gpu": 0, "kind": "stall"}]}"#;
        assert!(WorkloadFile::from_json(missing_secs)
            .unwrap()
            .faults()
            .is_err());
        let weak_factor = r#"{"gpus": 4, "secs": 5, "apps": [],
            "faults": [{"at_secs": 1.0, "gpu": 0, "kind": "slowdown",
                        "secs": 1.0, "factor": 0.5}]}"#;
        assert!(WorkloadFile::from_json(weak_factor)
            .unwrap()
            .faults()
            .is_err());
    }

    /// Values that used to reach a library assert, hang, or exhaust memory
    /// (DESIGN §12): each is a typed error from the reader, and its valid
    /// neighbour still reads.
    #[test]
    fn out_of_range_values_are_typed_errors() {
        let reads = |json: &str| {
            WorkloadFile::from_json(json).and_then(|w| {
                w.window()?;
                w.classes()
            })
        };
        let with_app = |secs: &str, app: &str| {
            format!(r#"{{"gpus": 4, "secs": {secs}, "apps": [{{"app": "game", {app}}}]}}"#)
        };
        let custom = |slo_ms: u64| {
            let app = format!(r#""model": "resnet50", "slo_ms": {slo_ms}, "rate": 1.0"#);
            with_app("5", &app)
        };
        for bad in [
            with_app("5", r#""rate": -5.0"#),
            with_app("5", r#""rate": 0.0"#),
            with_app("5", r#""rate": 1e300"#),
            with_app("5", r#""rate": 1000001.0"#),
            with_app("5", r#""rate": 1e999"#),
            with_app("5", r#""rate": 10.0, "modulation": [[-1.0, 1.0]]"#),
            with_app("5", r#""rate": 10.0, "modulation": [[0.0, 0.0]]"#),
            with_app("5", r#""rate": 10.0, "modulation": [[0.0, -1.0]]"#),
            with_app("5", r#""rate": 10.0, "modulation": [[0.0, 1e300]]"#),
            with_app("5", r#""rate": 10.0, "modulation": [[0.0, 1e999]]"#),
            with_app(
                "5",
                r#""rate": 10.0, "modulation": [[5.0, 1.0], [1.0, 2.0]]"#,
            ),
            with_app("0", r#""rate": 10.0"#),
            with_app("18446744073709551615", r#""rate": 10.0"#),
            with_app("18446744073709", r#""rate": 10.0"#),
            with_app("-1", r#""rate": 10.0"#),
            custom(0),
            "[".repeat(100_000),
        ] {
            let shown = &bad[..bad.len().min(120)];
            assert!(reads(&bad).is_err(), "accepted {shown}");
        }
        for good in [
            with_app("5", r#""rate": 1000000.0"#),
            with_app("5", r#""rate": 1e-9"#),
            with_app(
                "5",
                r#""rate": 10.0, "modulation": [[0.0, 0.5], [0.0, 2.0], [1e9, 1.0]]"#,
            ),
            with_app("18446744073699", r#""rate": 10.0"#),
            custom(1),
        ] {
            assert!(reads(&good).is_ok(), "rejected {good}");
        }
    }

    #[test]
    fn custom_model_app_builds_a_single_stage() {
        let json = r#"{"gpus": 4, "secs": 5,
            "apps": [{"app": "my_det", "model": "resnet50", "slo_ms": 200, "rate": 10.0}]}"#;
        let classes = WorkloadFile::from_json(json).unwrap().classes().unwrap();
        assert_eq!(classes[0].app.name, "my_det");
        assert_eq!(classes[0].app.stages.len(), 1);
        assert_eq!(classes[0].app.stages[0].model, "resnet50");
        assert_eq!(classes[0].app.slo, Micros::from_millis(200));
        // Missing slo_ms is a config error.
        let bad = r#"{"gpus": 4, "secs": 5,
            "apps": [{"app": "x", "model": "resnet50", "rate": 1.0}]}"#;
        assert!(WorkloadFile::from_json(bad).unwrap().classes().is_err());
    }

    #[test]
    fn epoch_zero_means_static() {
        let json = r#"{"gpus": 4, "secs": 5, "epoch_secs": 0, "apps": []}"#;
        let cfg = WorkloadFile::from_json(json)
            .unwrap()
            .system_config()
            .unwrap();
        assert_eq!(cfg.epoch, Micros::MAX);
    }
}
