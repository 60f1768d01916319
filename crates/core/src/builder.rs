//! High-level cluster builder: the quickest way to stand up a Nexus
//! deployment in simulation.
//!
//! ```
//! use nexus::prelude::*;
//!
//! let result = NexusCluster::builder()
//!     .gpus(4)
//!     .app(nexus_workload::apps::traffic(), 50.0)
//!     .horizon_secs(5)
//!     .seed(7)
//!     .simulate();
//! assert!(result.query_bad_rate < 0.01);
//! ```

use nexus_profile::{DeviceType, Micros, GPU_GTX1080TI};
use nexus_runtime::{ClusterSim, FaultSpec, SimConfig, SimResult, SystemConfig, TrafficClass};
use nexus_workload::{AppSpec, ArrivalKind};

/// A configured (simulated) Nexus deployment.
pub struct NexusCluster {
    config: SimConfig,
    classes: Vec<TrafficClass>,
}

/// Builder for [`NexusCluster`].
pub struct NexusClusterBuilder {
    system: SystemConfig,
    device: DeviceType,
    gpus: u32,
    seed: u64,
    warmup: Micros,
    horizon: Micros,
    trace_capacity: usize,
    classes: Vec<TrafficClass>,
    faults: Vec<FaultSpec>,
}

impl NexusCluster {
    /// Starts building a cluster with full-Nexus defaults on GTX 1080Ti
    /// devices (the paper's 16-GPU case-study hardware).
    pub fn builder() -> NexusClusterBuilder {
        NexusClusterBuilder {
            system: SystemConfig::nexus(),
            device: GPU_GTX1080TI,
            gpus: 16,
            seed: 0,
            warmup: Micros::from_secs(5),
            horizon: Micros::from_secs(30),
            trace_capacity: 0,
            classes: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Runs the simulation to completion.
    pub fn simulate(self) -> SimResult {
        ClusterSim::new(self.config, self.classes).run()
    }
}

impl NexusClusterBuilder {
    /// Chooses the serving-system configuration (defaults to full Nexus).
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// Sets the GPU device type.
    pub fn device(mut self, device: DeviceType) -> Self {
        self.device = device;
        self
    }

    /// Sets the cluster size.
    pub fn gpus(mut self, gpus: u32) -> Self {
        self.gpus = gpus;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated duration in seconds.
    pub fn horizon_secs(mut self, secs: u64) -> Self {
        self.horizon = Micros::from_secs(secs);
        self.warmup = self.warmup.min(self.horizon / 4);
        self
    }

    /// Sets the measurement warm-up in seconds.
    pub fn warmup_secs(mut self, secs: u64) -> Self {
        self.warmup = Micros::from_secs(secs);
        self
    }

    /// Enables execution-trace capture up to `capacity` events (see
    /// [`nexus_runtime::Trace`]).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Adds an application stream at `rate` frames/second with uniform
    /// inter-arrival times (the paper's default, §7.1).
    pub fn app(mut self, app: AppSpec, rate: f64) -> Self {
        self.classes
            .push(TrafficClass::new(app, ArrivalKind::Uniform, rate));
        self
    }

    /// Adds a fully custom traffic class.
    pub fn traffic_class(mut self, class: TrafficClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Injects one scheduled fault (see [`nexus_runtime::FaultSpec`]).
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.faults.push(fault);
        self
    }

    /// Replaces the fault schedule.
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Finalizes the builder.
    ///
    /// # Panics
    ///
    /// Panics if no traffic class was added or the cluster has no GPUs.
    /// A warm-up that does not end before the horizon panics when the
    /// simulator is constructed ([`NexusCluster::simulate`]) —
    /// `horizon_secs` clamps the warm-up only when it is called after
    /// `warmup_secs`.
    pub fn build(self) -> NexusCluster {
        assert!(!self.classes.is_empty(), "add at least one app");
        assert!(self.gpus >= 1, "cluster needs at least one GPU");
        NexusCluster {
            config: SimConfig {
                system: self.system,
                device: self.device,
                max_gpus: self.gpus,
                seed: self.seed,
                horizon: self.horizon,
                warmup: self.warmup,
                trace_capacity: self.trace_capacity,
                faults: self.faults,
            },
            classes: self.classes,
        }
    }

    /// Builds and runs in one step.
    pub fn simulate(self) -> SimResult {
        self.build().simulate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_workload::apps;

    #[test]
    fn builder_runs_a_small_cluster() {
        let result = NexusCluster::builder()
            .gpus(4)
            .app(apps::dance(), 20.0)
            .horizon_secs(8)
            .warmup_secs(2)
            .seed(3)
            .simulate();
        assert!(result.queries_finished > 100);
        assert!(result.query_bad_rate < 0.05);
    }

    #[test]
    fn builder_supports_system_swap() {
        let result = NexusCluster::builder()
            .system(SystemConfig::tf_serving())
            .gpus(4)
            .app(apps::dance(), 20.0)
            .horizon_secs(8)
            .seed(3)
            .simulate();
        assert!(result.queries_finished > 100);
    }

    #[test]
    fn trace_capture_records_lifecycle() {
        let result = NexusCluster::builder()
            .gpus(4)
            .app(apps::dance(), 20.0)
            .horizon_secs(6)
            .warmup_secs(1)
            .trace(50_000)
            .seed(3)
            .simulate();
        let trace = result.trace.expect("tracing enabled");
        use nexus_runtime::TraceEvent;
        let mut arrivals = 0;
        let mut batches = 0;
        let mut completions = 0;
        for e in trace.events() {
            match e {
                TraceEvent::Arrival { .. } => arrivals += 1,
                TraceEvent::Batch { .. } => batches += 1,
                TraceEvent::Completion { .. } => completions += 1,
                _ => {}
            }
        }
        assert!(arrivals > 100);
        assert!(batches > 10);
        // Every arrival terminates (completion or drop); dance is lightly
        // loaded so almost all complete.
        assert!(completions > arrivals * 9 / 10);
        // Events are time-ordered.
        for w in trace.events().windows(2) {
            assert!(w[0].time() <= w[1].time());
        }
    }

    #[test]
    #[should_panic(expected = "add at least one app")]
    fn empty_builder_panics() {
        let _ = NexusCluster::builder().build();
    }

    #[test]
    #[should_panic(expected = "warm-up (10s) must end before the horizon (5s)")]
    fn warmup_past_horizon_panics() {
        let _ = NexusCluster::builder()
            .gpus(4)
            .app(apps::traffic(), 50.0)
            .horizon_secs(5)
            .warmup_secs(10)
            .simulate();
    }
}
