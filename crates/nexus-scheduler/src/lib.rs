//! Scheduling algorithms of the Nexus reproduction: squishy bin packing
//! (§6.1, Algorithm 1), complex-query latency splitting (§6.2), incremental
//! epoch rescheduling, and exact solvers validating the greedy heuristics
//! (the role CPLEX played in the paper; Appendix A).

pub mod exact;
pub mod incremental;
pub mod query;
pub mod session;
pub mod squishy;

#[cfg(test)]
mod proptests;

pub use exact::{
    exact_residual_min_gpus, exhaustive_hetero_min_cost, fgsp_min_gpus, reduction_from_3partition,
    FgspTask,
};
pub use incremental::{assign_plans, PlanAssignment};
pub use query::{
    even_latency_split, optimize_hetero_split, optimize_latency_split, pipeline_avg_throughput,
    HeteroQueryDag, HeteroQueryStage, HeteroSplit, LatencySplit, QueryDag, QueryStage,
    StageCandidate,
};
pub use session::{SessionId, SessionSpec};
pub use squishy::{
    lower_bound_gpus, squishy_bin_packing, squishy_bin_packing_with, Allocation, GpuPlan,
    MergeOrder, PlanEntry,
};
