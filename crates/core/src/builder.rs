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

/// Per-session serving parameters derived from a control plan — what a
/// networked front door ([`nexus_serve`]) needs to admit and route for a
/// deployment planned by this crate's scheduler. Produced by
/// [`NexusCluster::serve_specs`].
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// One [`nexus_serve::SessionSlo`] per planned session, indexed by
    /// the session ids routing tables use.
    pub slos: Vec<nexus_serve::SessionSlo>,
    /// `routes[session]` = backend (GPU) indices hosting the session in
    /// the initial allocation — the natural epoch-1 routing table.
    pub routes: Vec<Vec<u32>>,
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

    /// Access the underlying simulator (e.g. to inspect the control plan
    /// before running).
    pub fn into_sim(self) -> ClusterSim {
        ClusterSim::new(self.config, self.classes)
    }

    /// Derives the serving front door's per-session parameters from the
    /// scheduler's control plan: the SLO and execution latencies feed the
    /// admission gate, the initial allocation becomes the epoch-1 routing
    /// table. This is the bridge from "planned in simulation" to "served
    /// over the network" — the same plan that drives the simulator
    /// configures `nexus-serve` frontends.
    pub fn serve_specs(self) -> ServeSpec {
        let sim = self.into_sim();
        let plan = sim.control_plan();
        let slos = plan
            .sessions
            .iter()
            .map(|s| {
                // The batch the packer chose for this session (largest
                // across hosting GPUs), falling back to the SLO-feasible
                // maximum when the allocation does not host it.
                let planned_batch = plan
                    .iter_plans()
                    .flat_map(|p| &p.entries)
                    .filter(|e| e.session == s.id)
                    .map(|e| e.batch)
                    .max()
                    .unwrap_or_else(|| s.exec_profile.max_batch_for_slo(s.budget).max(1));
                nexus_serve::SessionSlo {
                    slo: s.budget,
                    // Smallest-feasible-rung latency from the execution
                    // ladder (equals ℓ(1) while ladders keep a bottom rung
                    // of one): the true execution floor for doomed checks.
                    ell_min: nexus_profile::BatchLadder::from_profile(&s.exec_profile)
                        .min_latency(),
                    ell_b: s.exec_profile.latency(planned_batch.max(1)),
                    batch: planned_batch.max(1),
                }
            })
            .collect();
        let mut routes = vec![Vec::new(); plan.sessions.len()];
        for (gpu, p) in plan.iter_plans().enumerate() {
            for e in &p.entries {
                routes[e.session.0 as usize].push(gpu as u32);
            }
        }
        ServeSpec { slos, routes }
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
    /// simulator is constructed ([`NexusCluster::simulate`],
    /// [`NexusCluster::into_sim`]) — `horizon_secs` clamps the warm-up
    /// only when it is called after `warmup_secs`.
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

    #[test]
    fn serve_specs_cover_every_planned_session() {
        let spec = NexusCluster::builder()
            .gpus(4)
            .app(apps::dance(), 20.0)
            .horizon_secs(8)
            .seed(3)
            .build()
            .serve_specs();
        assert!(!spec.slos.is_empty());
        assert_eq!(spec.slos.len(), spec.routes.len());
        for (s, routes) in spec.slos.iter().zip(&spec.routes) {
            // The admission gate's inputs must be coherent: a planned
            // session has positive latencies, a batch its SLO can hold,
            // and at least one backend hosting it.
            assert!(s.ell_min > nexus_profile::Micros::ZERO);
            assert!(s.ell_b >= s.ell_min);
            assert!(s.batch >= 1);
            assert!(s.slo > nexus_profile::Micros::ZERO);
            assert!(!routes.is_empty(), "planned session with no backend");
        }
    }
}
