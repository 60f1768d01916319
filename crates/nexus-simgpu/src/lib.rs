//! Deterministic discrete-event GPU cluster substrate for the Nexus
//! reproduction.
//!
//! Substitutes for the paper's physical GPUs (DESIGN.md §2): a virtual-time
//! event queue ([`EventQueue`]), simulated devices that execute batched
//! model invocations at profile-derived latencies under memory constraints
//! ([`SimGpu`]), the uncoordinated-sharing interference model behind the
//! Fig. 14 comparisons ([`InterferenceModel`]).

pub mod calendar;
pub mod engine;
pub mod fault;
pub mod gpu;
pub mod interference;
pub mod runner;

#[cfg(test)]
mod proptests;

pub use calendar::CalendarQueue;
pub use engine::EventQueue;
pub use fault::{FaultKind, FaultSchedule, FaultSpec, FleetHealth, PollOutcome};
pub use gpu::{Execution, GpuError, ResidentKey, SimGpu};
pub use interference::InterferenceModel;
pub use runner::SimBatchRunner;
