//! The Nexus data plane and control loop: request dispatch with early/lazy
//! drop (§4.3, §6.3), duty-cycle backend execution with GPU multiplexing
//! and CPU/GPU overlap, weighted routing, epoch-based re-scheduling (§5),
//! and the event-driven cluster simulation composing it all.

pub mod cluster;
pub mod config;
pub mod control;
pub mod dispatch;
pub mod histogram;
pub mod metrics;
pub mod request;
pub mod trace;

#[cfg(test)]
mod proptests;

pub use cluster::{ClusterSim, GpuOccupancy, NodeSession, PoolStats, SimConfig, SimResult};
pub use config::{SchedulerPolicy, SystemConfig};
pub use control::{
    build_sessions, plan, plan_pooled, ControlPlan, DevicePool, PlanError, PoolPlan, RouteTarget,
    RuntimeSession, TrafficClass,
};
pub use dispatch::{BatchPull, DropPolicy, SessionQueue};
pub use histogram::LatencyHistogram;
pub use metrics::{ClusterMetrics, FailureRecord, SessionMetrics, TimelineBucket};
pub use nexus_simgpu::{FaultKind, FaultSchedule, FaultSpec};
pub use request::{FinishedQuery, QueryId, QueryTracker, Request, RequestId, RequestOutcome};
pub use trace::{DropCause, Trace, TraceEvent};
