//! # Nexus (reproduction): a GPU cluster engine for DNN serving under SLOs
//!
//! A from-scratch Rust reproduction of *Nexus: A GPU Cluster Engine for
//! Accelerating DNN-Based Video Analysis* (Shen et al., SOSP 2019),
//! including every substrate the paper depends on: a deterministic
//! discrete-event GPU cluster simulator standing in for physical GPUs, the
//! batching-profile foundation, squishy bin packing, complex-query latency
//! splitting, prefix batching of transfer-learned model variants,
//! early-drop dispatch, the epoch control loop, and the Clipper /
//! TensorFlow-Serving baselines of §7.
//!
//! ## Quick start
//!
//! ```
//! use nexus::prelude::*;
//! use nexus_workload::apps;
//!
//! // A 4-GPU cluster serving the traffic-monitoring app of §7.3.2.
//! let result = NexusCluster::builder()
//!     .gpus(4)
//!     .app(apps::traffic(), 50.0)
//!     .horizon_secs(10)
//!     .simulate();
//! assert!(result.query_bad_rate < 0.01);
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`nexus_profile`] | batching profiles `ℓ(b)`, device + model catalogs, cost model, profiler |
//! | [`nexus_model`] | layer schemas, prefix detection, model database |
//! | [`nexus_simgpu`] | event engine, simulated GPUs, interference model |
//! | [`nexus_workload`] | arrival processes, Zipf rates, the Table 4 app suite |
//! | [`nexus_scheduler`] | squishy bin packing, query-split DP, exact solvers |
//! | [`nexus_baseline`] | batch-oblivious baseline scheduler |
//! | [`nexus_runtime`] | dispatch, backends, routing, epochs, the cluster sim |
//! | `nexus` (this crate) | builder facade + throughput-search experiment driver |

pub mod builder;
pub mod experiment;
pub mod workloads;

pub use builder::{NexusCluster, NexusClusterBuilder};
pub use experiment::{max_rate_within, measure_throughput, run_once, ThroughputSearch};

// Re-export the component crates under stable names.
pub use nexus_baseline;
pub use nexus_model;
pub use nexus_profile;
pub use nexus_runtime;
pub use nexus_scheduler;
pub use nexus_serve;
pub use nexus_simgpu;
pub use nexus_workload;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use crate::builder::{NexusCluster, NexusClusterBuilder};
    pub use crate::experiment::{measure_throughput, run_once, ThroughputSearch};
    pub use nexus_profile::{BatchingProfile, DeviceType, Micros, GPU_GTX1080TI, GPU_K80};
    pub use nexus_runtime::{
        ClusterSim, DevicePool, DropPolicy, FaultKind, FaultSpec, PlanError, SchedulerPolicy,
        SimConfig, SimResult, SystemConfig, TrafficClass,
    };
    pub use nexus_scheduler::{SessionId, SessionSpec};
    pub use nexus_workload::{AppSpec, ArrivalKind};
}
