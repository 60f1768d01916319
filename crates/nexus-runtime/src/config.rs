//! System configurations: full Nexus, its ablations (§7.3's -PB/-SS/-ED/
//! -OL/-QA), and the Clipper / TensorFlow-Serving / Nexus-parallel
//! baselines (§7.2, §7.5).

use nexus_profile::Micros;
use nexus_simgpu::InterferenceModel;

use crate::dispatch::DropPolicy;

/// Default CPU worker threads per GPU (§6.3: 4–5 cores saturate a GPU).
pub const DEFAULT_CPU_WORKERS: u32 = 4;

/// Which cluster scheduler allocates sessions to GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// Squishy bin packing (§6.1).
    Squishy,
    /// The batch-oblivious proportional baseline (§7.2).
    BatchOblivious,
}

/// A serving-system configuration the cluster simulator can run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Display name (used in experiment output).
    pub name: &'static str,
    /// Cluster scheduler.
    pub scheduler: SchedulerPolicy,
    /// Dispatch/admission policy.
    pub drop_policy: DropPolicy,
    /// Overlap CPU pre/post-processing with GPU execution (OL, §6.3).
    pub overlap: bool,
    /// Coordinated execution: one runtime owns the GPU and round-robins
    /// models. `false` = models issue independently and interfere (Clipper
    /// containers, Nexus-parallel).
    pub coordinated: bool,
    /// Merge specialized-model variants into prefix-batched sessions (PB).
    pub prefix_batching: bool,
    /// Optimize query latency splits (QA); `false` = even split baseline.
    pub query_analysis: bool,
    /// Batch-plan ladders (DESIGN.md §16): plan batch sizes on each
    /// profile's rung table and execute every coordinated slot as a greedy
    /// sequence of rung-shaped minibatches, recursing on the leftover
    /// instead of waiting a full duty cycle. Ladder choice is a pure
    /// function of queue state and the plan, so determinism is unaffected.
    pub ladder: bool,
    /// CPU worker threads per GPU.
    pub cpu_workers: u32,
    /// Epoch length for the control loop; `Micros::MAX` disables
    /// re-scheduling after the initial allocation.
    pub epoch: Micros,
    /// How far beyond the demand-packed GPU count the scheduler may
    /// replicate plans onto idle GPUs (burst headroom). 1.0 = demand-sized
    /// allocation only.
    pub spread_factor: f64,
    /// Interference model for uncoordinated execution.
    pub interference: InterferenceModel,
    /// How often the controller polls backend heartbeats when fault
    /// injection is active.
    pub heartbeat_interval: Micros,
    /// Consecutive missed heartbeats before a backend is declared dead.
    pub heartbeat_misses: u32,
    /// Minimum spacing between *rejoin-triggered* re-packs. A flapping
    /// backend (crash/rejoin on a short period) would otherwise thrash
    /// the deployment with an emergency replan per flap, paying model
    /// loads and queue migrations each time for capacity that is about
    /// to vanish again. Deaths always replan immediately — delaying
    /// those loses requests; delaying a rejoin only defers spare
    /// capacity (the deferred re-pack runs on the next heartbeat tick
    /// once the cooldown elapses). `Micros::ZERO` disables rate
    /// limiting (a rejoin re-packs immediately, the historical
    /// behavior).
    pub rejoin_cooldown: Micros,
}

impl SystemConfig {
    /// Full Nexus.
    pub fn nexus() -> Self {
        SystemConfig {
            name: "nexus",
            scheduler: SchedulerPolicy::Squishy,
            drop_policy: DropPolicy::Early,
            overlap: true,
            coordinated: true,
            prefix_batching: true,
            query_analysis: true,
            ladder: true,
            cpu_workers: DEFAULT_CPU_WORKERS,
            epoch: Micros::from_secs(30),
            spread_factor: 4.0,
            interference: InterferenceModel::default(),
            heartbeat_interval: Micros::from_millis(100),
            heartbeat_misses: 3,
            rejoin_cooldown: Micros::ZERO,
        }
    }

    /// Nexus without prefix batching (-PB).
    pub fn nexus_no_pb() -> Self {
        SystemConfig {
            name: "nexus-PB",
            prefix_batching: false,
            ..SystemConfig::nexus()
        }
    }

    /// Nexus with the batch-oblivious scheduler (-SS).
    pub fn nexus_no_ss() -> Self {
        SystemConfig {
            name: "nexus-SS",
            scheduler: SchedulerPolicy::BatchOblivious,
            ..SystemConfig::nexus()
        }
    }

    /// Nexus with lazy dropping (-ED).
    pub fn nexus_no_ed() -> Self {
        SystemConfig {
            name: "nexus-ED",
            drop_policy: DropPolicy::Lazy,
            ..SystemConfig::nexus()
        }
    }

    /// Nexus without overlapped CPU/GPU processing (-OL).
    pub fn nexus_no_ol() -> Self {
        SystemConfig {
            name: "nexus-OL",
            overlap: false,
            ..SystemConfig::nexus()
        }
    }

    /// Nexus with even latency splits (-QA).
    pub fn nexus_no_qa() -> Self {
        SystemConfig {
            name: "nexus-QA",
            query_analysis: false,
            ..SystemConfig::nexus()
        }
    }

    /// "Nexus-parallel" (§7.5): Nexus scheduling and batching, but models
    /// issue to the GPU in parallel without interference control.
    pub fn nexus_parallel() -> Self {
        SystemConfig {
            name: "nexus-parallel",
            coordinated: false,
            ..SystemConfig::nexus()
        }
    }

    /// Clipper-like baseline: batch-oblivious scheduling, adaptive (lazy)
    /// batching, one interfering container per model, serialized CPU/GPU.
    pub fn clipper() -> Self {
        SystemConfig {
            name: "clipper",
            scheduler: SchedulerPolicy::BatchOblivious,
            drop_policy: DropPolicy::Lazy,
            overlap: false,
            coordinated: false,
            prefix_batching: false,
            query_analysis: false,
            ladder: false,
            cpu_workers: DEFAULT_CPU_WORKERS,
            epoch: Micros::from_secs(30),
            spread_factor: 4.0,
            interference: InterferenceModel::default(),
            heartbeat_interval: Micros::from_millis(100),
            heartbeat_misses: 3,
            rejoin_cooldown: Micros::ZERO,
        }
    }

    /// TensorFlow-Serving-like baseline: batch-oblivious scheduling,
    /// round-robin in-process execution, max-batch-for-SLO sizing, no
    /// request dropping, serialized CPU/GPU.
    pub fn tf_serving() -> Self {
        SystemConfig {
            name: "tf-serving",
            scheduler: SchedulerPolicy::BatchOblivious,
            drop_policy: DropPolicy::None,
            overlap: false,
            coordinated: true,
            prefix_batching: false,
            query_analysis: false,
            ladder: false,
            cpu_workers: DEFAULT_CPU_WORKERS,
            epoch: Micros::from_secs(30),
            spread_factor: 4.0,
            interference: InterferenceModel::default(),
            heartbeat_interval: Micros::from_millis(100),
            heartbeat_misses: 3,
            rejoin_cooldown: Micros::ZERO,
        }
    }

    /// Nexus in batch-application mode (§5): requests past their deadline
    /// are delayed and served at lower priority instead of dropped —
    /// appropriate when every frame must eventually be processed.
    pub fn nexus_batch_mode() -> Self {
        SystemConfig {
            name: "nexus-batch",
            drop_policy: DropPolicy::Deprioritize,
            ..SystemConfig::nexus()
        }
    }

    /// Sets the spread factor (see [`SystemConfig::spread_factor`]).
    pub fn with_spread_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "spread factor must be at least 1");
        self.spread_factor = factor;
        self
    }

    /// Disables the epoch control loop (static one-shot allocation).
    pub fn with_static_allocation(mut self) -> Self {
        self.epoch = Micros::MAX;
        self
    }

    /// Sets the epoch length.
    pub fn with_epoch(mut self, epoch: Micros) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the minimum spacing between rejoin-triggered re-packs (see
    /// [`SystemConfig::rejoin_cooldown`]). Deaths are never rate-limited.
    pub fn with_rejoin_cooldown(mut self, cooldown: Micros) -> Self {
        self.rejoin_cooldown = cooldown;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_differ_from_nexus_in_exactly_one_dimension() {
        let base = SystemConfig::nexus();
        assert!(!SystemConfig::nexus_no_pb().prefix_batching);
        assert_eq!(
            SystemConfig::nexus_no_ss().scheduler,
            SchedulerPolicy::BatchOblivious
        );
        assert_eq!(SystemConfig::nexus_no_ed().drop_policy, DropPolicy::Lazy);
        assert!(!SystemConfig::nexus_no_ol().overlap);
        assert!(!SystemConfig::nexus_no_qa().query_analysis);
        assert!(!SystemConfig::nexus_parallel().coordinated);
        // Everything else matches full Nexus.
        let no_ol = SystemConfig::nexus_no_ol();
        assert_eq!(no_ol.scheduler, base.scheduler);
        assert_eq!(no_ol.drop_policy, base.drop_policy);
        assert_eq!(no_ol.prefix_batching, base.prefix_batching);
    }

    #[test]
    fn baselines_are_oblivious_and_undropping_or_lazy() {
        let clipper = SystemConfig::clipper();
        assert_eq!(clipper.scheduler, SchedulerPolicy::BatchOblivious);
        assert_eq!(clipper.drop_policy, DropPolicy::Lazy);
        assert!(!clipper.coordinated);
        let tf = SystemConfig::tf_serving();
        assert_eq!(tf.drop_policy, DropPolicy::None);
        assert!(tf.coordinated);
    }

    #[test]
    fn batch_mode_never_drops() {
        assert_eq!(
            SystemConfig::nexus_batch_mode().drop_policy,
            DropPolicy::Deprioritize
        );
    }

    #[test]
    fn static_allocation_disables_epochs() {
        let c = SystemConfig::nexus().with_static_allocation();
        assert_eq!(c.epoch, Micros::MAX);
    }
}
