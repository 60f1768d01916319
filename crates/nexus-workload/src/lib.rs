//! Workload generation for the Nexus reproduction: deterministic arrival
//! processes (uniform / Poisson / MMPP with diurnal modulation), Zipf-
//! distributed per-stream rates, fan-out (γ) samplers, and the seven
//! Table 4 applications expressed as query templates.

pub mod apps;
pub mod arrivals;
pub mod rng;
pub mod zipf;

#[cfg(test)]
mod proptests;

pub use apps::{all_apps, AppSpec, AppStage, GammaSpec};
pub use arrivals::{poisson_sample, ArrivalGen, ArrivalKind};
pub use rng::{rng_for, splitmix64};
pub use zipf::{zipf_rates, zipf_weights};
