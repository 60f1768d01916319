//! The cluster simulation: frontends, backends, and the control loop
//! composed over the discrete-event engine.
//!
//! This is the reproduction's equivalent of the paper's deployed system
//! (§5): root requests arrive at a distributed frontend, are routed by the
//! routing table to backends, queued per session, executed in batched
//! round-robin duty cycles (or uncoordinated parallel containers for the
//! baselines), spawn child stage requests per the application dataflow, and
//! are tracked to per-request and per-query terminal states. An epoch tick
//! re-runs the global scheduler on observed rates and migrates sessions,
//! charging model-load delays (§6.1 incremental scheduling).
//!
//! The simulator also hosts the failure pipeline: a seeded [`FaultSpec`]
//! schedule injects crashes, stalls, and slowdowns into *physical* GPU
//! slots; the controller heartbeats every deployed backend, declares a
//! slot dead after `heartbeat_misses` consecutive misses, re-packs the
//! lost sessions onto survivors with an out-of-band emergency epoch, and
//! re-dispatches stranded requests whose deadline budget still covers one
//! single-item execution (deadline-aware retry).

use nexus_profile::{BatchLadder, DeviceType, Micros, SharedProfile};
use nexus_scheduler::{assign_plans, GpuPlan, SessionId};
use nexus_simgpu::{
    EventQueue, FaultKind, FaultSpec, FleetHealth, PollOutcome, ResidentKey, SimGpu,
};
use nexus_workload::{poisson_sample, rng_for, ArrivalGen, GammaSpec};
use rand::rngs::StdRng;
use rand::Rng;

use crate::config::SystemConfig;
use crate::control::{plan, plan_pooled, ControlPlan, DevicePool, PlanError, TrafficClass};
use crate::dispatch::{classify_drop, BatchPull, DropPolicy, MiniBatch, SessionQueue};
use crate::metrics::ClusterMetrics;
use crate::request::{QueryId, QueryTracker, Request, RequestId, RequestOutcome};
use crate::trace::{DropCause, Trace, TraceEvent};

mod node;
pub use node::NodeSession;

/// Cluster simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The serving system under test.
    pub system: SystemConfig,
    /// GPU device type of every backend.
    pub device: DeviceType,
    /// Cluster size cap.
    pub max_gpus: u32,
    /// RNG seed.
    pub seed: u64,
    /// Root arrivals are generated in `[0, horizon)`.
    pub horizon: Micros,
    /// Measurements consider queries arriving in `[warmup, horizon)`.
    pub warmup: Micros,
    /// Maximum trace events to capture (0 disables tracing).
    pub trace_capacity: usize,
    /// Deterministic fault schedule against physical GPU slots. Empty
    /// disables the failure pipeline entirely (no heartbeat events, no
    /// in-flight bookkeeping) — a no-fault run is bit-identical to one
    /// built before fault injection existed.
    pub faults: Vec<FaultSpec>,
}

/// Summary of one simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Request-level bad rate within the measurement window.
    pub request_bad_rate: f64,
    /// Query-level bad rate (dropped or past-deadline) for queries arriving
    /// in the window.
    pub query_bad_rate: f64,
    /// Good queries per second completed for window arrivals.
    pub query_goodput: f64,
    /// Queries arriving in the window that reached a terminal state.
    pub queries_finished: u64,
    /// Mean allocated GPUs over the run.
    pub mean_gpus: f64,
    /// Aggregate GPU busy time divided by allocated GPU-seconds.
    pub gpu_utilization: f64,
    /// Discrete events processed by the engine over the whole run.
    pub events_processed: u64,
    /// Full per-session and timeline metrics.
    pub metrics: ClusterMetrics,
    /// Captured execution trace, when enabled.
    pub trace: Option<Trace>,
    /// Trace events discarded after the capture buffer filled (0 when
    /// tracing was off or the buffer sufficed). Surfaced here so callers
    /// learn a capture was incomplete without digging into the trace.
    pub trace_truncated: u64,
    /// Per-GPU occupancy of the final deployment: measured busy fraction
    /// over the last inter-reallocation window vs. the squishy plan's
    /// predicted duty-cycle occupancy.
    pub gpu_occupancy: Vec<GpuOccupancy>,
    /// Per-device-pool rollup of the final deployment (one entry for a
    /// homogeneous fleet).
    pub pool_stats: Vec<PoolStats>,
}

/// Measured vs. planned occupancy of one backend GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuOccupancy {
    /// Backend index in the final deployment.
    pub backend: usize,
    /// Device pool the backend belongs to (0 for homogeneous fleets).
    pub pool: usize,
    /// Busy fraction observed since the last deployment swap.
    pub busy_frac: f64,
    /// The plan's predicted duty-cycle occupancy: Σ batch execution
    /// latencies over the duty cycle (§6.2 squishy bin packing).
    pub planned_frac: f64,
}

/// Rollup of one device pool's serving over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Pool index (position in the planner's pool list).
    pub pool: usize,
    /// Device class name of the pool.
    pub device: &'static str,
    /// Backends deployed in the pool at the end of the run.
    pub backends: usize,
    /// Mean measured busy fraction across the pool's backends since the
    /// last deployment swap.
    pub busy_frac: f64,
    /// Good request completions per second on this pool's sessions, over
    /// the whole run.
    pub request_goodput: f64,
    /// Fraction of the pool's terminal requests that were late or dropped.
    pub request_bad_rate: f64,
}

enum Event {
    RootArrival {
        class: u32,
    },
    Wake {
        backend: u32,
        /// Slot to serve (uncoordinated mode); `u32::MAX` in coordinated
        /// mode, where the wake addresses the whole backend.
        slot: u32,
        /// Deployment generation the event belongs to; stale events from
        /// before an epoch reallocation are ignored.
        gen: u64,
    },
    /// A batch finished executing. The bulky payload (requests, fault
    /// bookkeeping, trace echo) parks in [`ClusterSim::jobs`]; the event
    /// carries only the pool index — every event moves through the
    /// calendar wheel several times, so payload size is event-loop
    /// bandwidth.
    BatchDone {
        backend: u32,
        job: u32,
    },
    EpochTick,
    /// Inject `SimConfig::faults[index]`.
    Fault {
        index: u32,
    },
    /// A timed fault (stall/slowdown) on a physical slot expires.
    FaultEnd {
        slot: u32,
    },
    /// The controller polls every deployed backend's heartbeat.
    HeartbeatCheck,
}

/// Parked payload of an in-flight [`Event::BatchDone`], pool-allocated in
/// [`ClusterSim::jobs`] (slots recycle through a free list, so steady
/// state allocates nothing).
#[derive(Default)]
struct BatchJob {
    requests: Vec<Request>,
    /// Serving slot within the backend (uncoordinated completions).
    slot: usize,
    gen: u64,
    /// In-flight batch id; crashed-GPU batches are marked lost and their
    /// completion is discarded. 0 when fault injection is off.
    batch: u64,
    /// Physical GPU slot the batch launched on — the in-flight table is
    /// indexed by it, and it stays valid across deployment swaps (backend
    /// indices do not). Unused when fault injection is off.
    pslot: usize,
    /// Execution start time, echoed into completion trace events so a
    /// request's queue/exec phase boundary is known. Carried even with
    /// tracing off (it is dead data then, never read).
    started: Micros,
    /// Trace batch id ([`Trace::alloc_batch_seq`]); 0 when tracing is off.
    seq: u64,
    /// Whether this completion releases the backend (coordinated) or slot.
    /// A batch parks one job per part of its sequence; only the final one
    /// frees the GPU for the next round.
    last: bool,
}

/// A session slot within a backend.
struct Slot {
    session: SessionId,
    target_batch: u32,
    /// How long the oldest request may wait for batch-mates before the
    /// slot serves anyway — the plan's duty cycle (§4.1: a request waits at
    /// most one duty cycle before its session's next batch).
    gather_limit: Micros,
    /// Duty-cycle time owed to co-located sessions each round; bounds how
    /// far the early-drop window may grow beyond the planned batch.
    reserve: Micros,
    /// Profile used for forced-start timing. Under uncoordinated execution
    /// this is pessimistically interference-stretched: a container that
    /// waits until the last safe moment computed from its solo latency is
    /// late whenever a peer happens to be concurrent.
    timing: SharedProfile,
    /// The session's effective profile, never stretched: it sizes pulls
    /// and gives every launched part its latency ℓ(rung), which a
    /// container then scales by the interference of its *actually
    /// concurrent* peers.
    profile: SharedProfile,
    /// Precomputed batch ladder of the effective profile: the rung shapes
    /// ladder execution may run, with cached per-rung latencies
    /// (DESIGN.md §16).
    ladder: BatchLadder,
    queue: SessionQueue,
    busy: bool,
    /// Per-slot phase-jitter state: each round serves `target − (state %
    /// span)` instead of exactly `target`, so replicas of one session
    /// drift out of phase instead of emitting synchronized downstream
    /// bursts (deterministic SplitMix64 stream).
    jitter_state: u64,
    /// Cyclic batch assignments of an operator-given rotating plan
    /// (DESIGN.md §16), current step first: each launched batch rotates
    /// the next step into `target_batch`. Empty for a squishy plan, whose
    /// one batch never changes.
    rotation: Box<[u32]>,
}

struct Backend {
    slots: Vec<Slot>,
    cursor: usize,
    busy: bool,
    available_at: Micros,
    armed_wake: Micros,
    /// Dense session-id → slot index map (`u32::MAX` = not hosted). Built
    /// once per deployment so the per-request routing lookup is O(1)
    /// instead of a linear scan over hosted sessions.
    slot_index: Vec<u32>,
    /// The simulated device: enforces that resident models fit in memory
    /// (the plan promised it; the device checks it) and accounts busy time.
    gpu: SimGpu,
}

impl Backend {
    fn slot_of(&self, session: SessionId) -> Option<usize> {
        let i = *self.slot_index.get(session.0 as usize)?;
        (i != u32::MAX).then_some(i as usize)
    }
}

/// Smooth weighted-round-robin router state per session.
///
/// WRR keeps replica loads balanced to within one request — random
/// splitting would transiently overload saturated replicas. The phase-lock
/// that perfect interleaving would cause (every replica's batch filling at
/// the same instant, emitting synchronized downstream bursts) is broken at
/// the backends instead, by jittering effective batch sizes.
struct RouteTargetState {
    backend: usize,
    weight: f64,
    credit: f64,
}

struct Route {
    /// Replica targets with their live WRR credit, one contiguous array so
    /// the per-request scan touches a single cache stream.
    targets: Vec<RouteTargetState>,
    /// Sum of target weights, fixed per deployment. Precomputed with the
    /// same left-to-right summation `pick` used to do inline, so the pick
    /// sequence is bit-identical — just without re-summing per request.
    total: f64,
}

impl Route {
    fn pick(&mut self) -> Option<usize> {
        // Tracking the best credit in a local is exact: a target's credit
        // only changes at its own iteration, so the cached value cannot go
        // stale before the scan ends.
        let mut best = 0;
        let mut best_credit = f64::NEG_INFINITY;
        for (i, t) in self.targets.iter_mut().enumerate() {
            t.credit += t.weight;
            if i == 0 || t.credit > best_credit {
                best = i;
                best_credit = t.credit;
            }
        }
        let t = self.targets.get_mut(best)?;
        t.credit -= self.total;
        Some(t.backend)
    }
}

/// Outcome of inspecting one slot during a service scan.
enum SlotDecision {
    /// Queue empty or not yet worth serving.
    Skip,
    /// Not ready; a wake should be armed at this time.
    NotReady(Micros),
    /// A pull happened. Dropped requests sit in `ClusterSim::scratch`
    /// until [`ClusterSim::record_drops`] drains them.
    Pulled {
        session: SessionId,
        batch: Vec<Request>,
        /// Expiry of the oldest survivor if the batch came back empty.
        pending_expiry: Option<Micros>,
    },
}

/// The cluster simulator.
pub struct ClusterSim {
    cfg: SimConfig,
    classes: Vec<TrafficClass>,
    control: ControlPlan,
    /// Device pools of a heterogeneous fleet (empty for homogeneous
    /// deployments, which re-plan through the global single-device
    /// planner and stay byte-identical to the pre-pool simulator).
    pools: Vec<DevicePool>,
    /// First physical GPU slot of each pool. Kept on the simulator, not
    /// read from [`PoolPlan::gpus`]: a replan under dead slots caps the
    /// plan below the physical pool size, but the slot ranges are fixed
    /// hardware.
    pool_bases: Vec<usize>,
    /// Physical GPU slots per pool (sums to `cfg.max_gpus`).
    pool_sizes: Vec<usize>,
    backends: Vec<Backend>,
    /// Routing state per session.
    routes: Vec<Route>,
    /// (class, stage) → session ids (one per variant; single when merged).
    stage_sessions: Vec<Vec<Vec<SessionId>>>,
    variant_cursor: Vec<Vec<usize>>,
    events: EventQueue<Event>,
    arrivals: Vec<ArrivalGen>,
    arrival_rng: Vec<StdRng>,
    gamma_rng: StdRng,
    tracker: QueryTracker,
    metrics: ClusterMetrics,
    next_request: u64,
    epoch_arrivals: Vec<u64>,
    epoch_started: Micros,
    est_rates: Vec<f64>,
    /// Rates the current deployment was planned for; re-planning is skipped
    /// while observations stay close to them (§5: reconfiguration is
    /// rate-limited to prevent oscillation).
    planned_rates: Vec<f64>,
    /// When the deployment was last replaced.
    last_replan: Micros,
    /// A rejoin wanted a re-pack but landed inside the rejoin cooldown;
    /// the deferred replan runs on the first heartbeat tick at or after
    /// this time (cleared by any deployment swap happening first).
    pending_replan: Option<Micros>,
    gpu_seconds_allocated: f64,
    last_alloc_change: Micros,
    generation: u64,
    trace: Option<Trace>,
    /// Ground-truth and controller-view health of the physical GPU fleet
    /// (`max_gpus` slots).
    fleet: FleetHealth,
    /// Physical slot each deployed backend runs on. Faults address slots;
    /// reconfigurations re-map backends but reused backends keep their
    /// slot.
    backend_slot: Vec<usize>,
    /// Whether fault injection is active (gates in-flight bookkeeping).
    fault_mode: bool,
    next_batch: u64,
    /// In-flight batches indexed by *physical* slot, each a list of
    /// `(batch id, request copies)` in launch (= id) order, kept so a
    /// crash can strand exactly the work that was on the device. The
    /// per-slot insertion order matches the ascending-id iteration the
    /// old `BTreeMap` table gave, so crash handling stays deterministic.
    inflight: Vec<Vec<(u64, Vec<Request>)>>,
    /// Batch ids destroyed by a crash; their `BatchDone` is discarded.
    /// Membership-only (iteration order never observed), so a small Vec
    /// with swap-remove beats a hash set.
    lost_batches: Vec<u64>,
    /// Requests stranded in-flight on a crashed slot (indexed by physical
    /// slot), held until the controller detects the failure and applies
    /// the retry rule.
    limbo: Vec<Vec<Request>>,
    /// Reusable pull buffers: one batch/dropped pair refilled in place on
    /// every dispatch, so the hot path allocates nothing.
    scratch: BatchPull,
    /// Reusable part sequence of the last pull: its rung-shaped
    /// minibatches, or one part for a classic pull (cleared and refilled
    /// per dispatch, like `scratch`).
    mb_scratch: Vec<MiniBatch>,
    /// Reusable per-batch buffer of `(child stage, gamma, deadline
    /// offset)` edges, hoisted out of the completion loop (every request
    /// in a batch shares one session, hence one child-edge list).
    child_scratch: Vec<(usize, GammaSpec, Micros)>,
    /// In-flight batch payload pool (see [`BatchJob`]); `free_jobs` lists
    /// recyclable slots, LIFO — a deterministic function of the event
    /// stream, and the indices never reach any output.
    jobs: Vec<BatchJob>,
    free_jobs: Vec<u32>,
    /// Recycled batch vectors: `BatchDone` hands its spent `Vec` back and
    /// the next pull reuses it instead of allocating.
    batch_pool: Vec<Vec<Request>>,
    /// GPU busy time accumulated by backends that deployment swaps have
    /// since retired; `summarize` adds it to the live backends' busy time
    /// so utilization covers the whole run, not just the final epoch.
    retired_busy: u64,
    /// Discrete events processed (for the engine-throughput benchmark).
    events_processed: u64,
}

impl ClusterSim {
    /// Builds a simulator for `classes` under `cfg`, panicking on invalid
    /// input (see [`ClusterSim::try_new`]).
    pub fn new(cfg: SimConfig, classes: Vec<TrafficClass>) -> Self {
        ClusterSim::try_new(cfg, classes)
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"))
    }

    /// Builds a simulator for `classes` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when a traffic class references an unknown
    /// model or a fault spec targets a slot outside `max_gpus` — user
    /// input, so callers (e.g. the `simulate` binary) can report it
    /// cleanly instead of aborting.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.warmup >= cfg.horizon` (an empty measurement
    /// window), like every other constructor.
    pub fn try_new(cfg: SimConfig, classes: Vec<TrafficClass>) -> Result<Self, PlanError> {
        ClusterSim::construct(cfg, classes, Vec::new())
    }

    /// Builds a simulator over a heterogeneous fleet: one device pool per
    /// class of GPU, planned jointly by the pool-aware planner
    /// ([`crate::control::plan_pooled`]). Physical GPU slots are laid out
    /// pool by pool (`pools[0]` owns slots `0..pools[0].gpus`, and so on);
    /// `cfg.max_gpus` and `cfg.device` are ignored — the pools define the
    /// fleet.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] like [`ClusterSim::try_new`].
    pub fn try_new_pooled(
        mut cfg: SimConfig,
        pools: Vec<DevicePool>,
        classes: Vec<TrafficClass>,
    ) -> Result<Self, PlanError> {
        assert!(!pools.is_empty(), "need at least one device pool");
        cfg.max_gpus = pools.iter().map(|p| p.gpus).sum();
        ClusterSim::construct(cfg, classes, pools)
    }

    /// Shared construction body; `pools` empty means homogeneous.
    fn construct(
        cfg: SimConfig,
        classes: Vec<TrafficClass>,
        pools: Vec<DevicePool>,
    ) -> Result<Self, PlanError> {
        for f in &cfg.faults {
            if f.slot >= cfg.max_gpus as usize {
                return Err(PlanError::FaultSlot {
                    slot: f.slot,
                    max_gpus: cfg.max_gpus,
                });
            }
        }
        let est_rates: Vec<f64> = classes.iter().map(|c| c.rate).collect();
        let control = if pools.is_empty() {
            plan(
                &classes,
                &cfg.system,
                &cfg.device,
                cfg.max_gpus,
                Some(&est_rates),
            )?
        } else {
            let avail: Vec<u32> = pools.iter().map(|p| p.gpus).collect();
            plan_pooled(&classes, &cfg.system, &pools, &avail, Some(&est_rates))?
        };
        Ok(ClusterSim::deploy(cfg, classes, control, pools))
    }

    /// Deploys a planned `control` for `classes`: backends, routes and the
    /// seeded event queue. Every constructor ends here.
    fn deploy(
        cfg: SimConfig,
        classes: Vec<TrafficClass>,
        control: ControlPlan,
        pools: Vec<DevicePool>,
    ) -> Self {
        // Every entry point converges here, so the builder, `run_once` and
        // `SimConfig` literals are all covered: an empty measurement
        // window would otherwise summarize to all zeros without a word.
        assert!(
            cfg.warmup < cfg.horizon,
            "warm-up ({}) must end before the horizon ({}): no query could \
             arrive in the measured window",
            cfg.warmup,
            cfg.horizon
        );
        let est_rates: Vec<f64> = classes.iter().map(|c| c.rate).collect();
        let (pool_bases, pool_sizes) = if pools.is_empty() {
            (vec![0], vec![cfg.max_gpus as usize])
        } else {
            let mut bases = Vec::with_capacity(pools.len());
            let mut base = 0usize;
            for p in &pools {
                bases.push(base);
                base += p.gpus as usize;
            }
            (bases, pools.iter().map(|p| p.gpus as usize).collect())
        };
        let backends = build_backends(&control, &cfg.system);
        let routes = build_routes(&control);
        let stage_sessions = index_sessions(&classes, &control);
        let variant_cursor = classes
            .iter()
            .map(|c| vec![0usize; c.app.stages.len()])
            .collect();
        // Workload hint: pending events track armed wakes + in-flight
        // batches (O(backends)) plus one scheduled arrival per class.
        let mut events = EventQueue::with_capacity(backends.len() * 2 + classes.len() + 16);
        let mut arrivals = Vec::new();
        let mut arrival_rng = Vec::new();
        for (ci, class) in classes.iter().enumerate() {
            let mut gen = ArrivalGen::new(class.arrival, class.rate)
                .with_modulation(class.modulation.clone());
            let mut rng = rng_for(cfg.seed, ci as u64);
            if let Some(t) = gen.next_arrival(cfg.horizon, &mut rng) {
                events.push(t, Event::RootArrival { class: ci as u32 });
            }
            arrivals.push(gen);
            arrival_rng.push(rng);
        }
        if cfg.system.epoch != Micros::MAX && cfg.system.epoch < cfg.horizon {
            // §5: epochs are typically 30–60 s, but large workload changes
            // trigger early, with a 10 s minimum period — so the controller
            // *observes* every min(epoch, 10 s).
            let tick = cfg.system.epoch.min(Micros::from_secs(10));
            events.push(tick, Event::EpochTick);
        }
        for (index, f) in cfg.faults.iter().enumerate() {
            if f.at < cfg.horizon {
                events.push(
                    f.at,
                    Event::Fault {
                        index: index as u32,
                    },
                );
            }
        }
        if !cfg.faults.is_empty() {
            // Heartbeat polling only exists when faults can happen — a
            // no-fault run keeps its exact pre-fault event stream.
            events.push(cfg.system.heartbeat_interval, Event::HeartbeatCheck);
        }
        let mut metrics = ClusterMetrics::new(Micros::from_secs(1));
        metrics.record_allocation(Micros::ZERO, control.gpu_count() as u32);
        let gamma_rng = rng_for(cfg.seed, 0xFA_0000);
        let n_classes = classes.len();
        let cfg2_trace = cfg.trace_capacity;
        let fleet = FleetHealth::new(cfg.max_gpus as usize);
        // Initial physical placement: each pool's backends occupy its slot
        // range from the bottom (identical to `(0..backends.len())` for the
        // single homogeneous pool).
        let backend_slot: Vec<usize> = control
            .pools
            .iter()
            .flat_map(|pp| {
                let base = pool_bases[pp.pool];
                (0..pp.allocation.plans.len()).map(move |li| base + li)
            })
            .collect();
        let fault_mode = !cfg.faults.is_empty();
        let max_gpus = cfg.max_gpus as usize;
        ClusterSim {
            cfg,
            classes,
            control,
            pools,
            pool_bases,
            pool_sizes,
            backends,
            routes,
            stage_sessions,
            variant_cursor,
            events,
            arrivals,
            arrival_rng,
            gamma_rng,
            tracker: QueryTracker::new(),
            metrics,
            next_request: 0,
            epoch_arrivals: vec![0; n_classes],
            epoch_started: Micros::ZERO,
            planned_rates: est_rates.clone(),
            last_replan: Micros::ZERO,
            pending_replan: None,
            est_rates,
            gpu_seconds_allocated: 0.0,
            last_alloc_change: Micros::ZERO,
            generation: 0,
            trace: (cfg2_trace > 0).then(|| Trace::new(cfg2_trace)),
            fleet,
            backend_slot,
            fault_mode,
            next_batch: 1,
            inflight: vec![Vec::new(); max_gpus],
            lost_batches: Vec::new(),
            limbo: vec![Vec::new(); max_gpus],
            scratch: BatchPull::default(),
            mb_scratch: Vec::new(),
            child_scratch: Vec::new(),
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            batch_pool: Vec::new(),
            retired_busy: 0,
            events_processed: 0,
        }
    }

    /// The initial control plan (for inspection in tests/benches).
    pub fn control_plan(&self) -> &ControlPlan {
        &self.control
    }

    /// Runs to completion and summarizes.
    pub fn run(mut self) -> SimResult {
        while let Some((now, ev)) = self.events.pop() {
            self.events_processed += 1;
            match ev {
                Event::RootArrival { class } => self.on_root_arrival(now, class as usize),
                Event::Wake { backend, slot, gen } => {
                    if gen == self.generation {
                        self.on_wake(now, backend as usize, slot as usize);
                    }
                }
                Event::BatchDone { backend, job } => self.on_batch_done(now, backend as usize, job),
                Event::EpochTick => self.on_epoch(now),
                Event::Fault { index } => self.on_fault(now, index as usize),
                Event::FaultEnd { slot } => self.on_fault_end(now, slot as usize),
                Event::HeartbeatCheck => self.on_heartbeat_check(now),
            }
        }
        debug_assert_eq!(self.lost_wake(), None, "a backend holds work but no wake");
        self.summarize()
    }

    /// Lost-wake tripwire for the drained event loop: the first serving
    /// backend that still queues requests or has a coordinated wake armed.
    /// Either means a wake was never scheduled, and its requests wait
    /// forever. A backend on a crashed slot that no heartbeat declared dead
    /// before the run ended holds its queue by design: `summarize` counts
    /// it as unserved.
    fn lost_wake(&self) -> Option<usize> {
        (0..self.backends.len()).find(|&bi| {
            let b = &self.backends[bi];
            (!self.fault_mode || self.slot_serving(bi))
                && (b.slots.iter().any(|s| !s.queue.is_empty())
                    || (self.cfg.system.coordinated && b.armed_wake != Micros::MAX))
        })
    }

    /// Whether the physical slot under `backend` currently executes work.
    fn slot_serving(&self, backend: usize) -> bool {
        self.fleet.serving(self.backend_slot[backend])
    }

    /// GPUs the controller *knows* it can use: the fleet minus declared-
    /// dead slots. Crashed-but-undetected slots still count — the
    /// controller cannot plan around failures it has not detected yet.
    fn available_gpus(&self) -> u32 {
        self.cfg
            .max_gpus
            .saturating_sub(self.fleet.dead_count() as u32)
    }

    fn on_root_arrival(&mut self, now: Micros, class: usize) {
        // Schedule the subsequent arrival.
        if let Some(t) = {
            let gen = &mut self.arrivals[class];
            gen.next_arrival(self.cfg.horizon, &mut self.arrival_rng[class])
        } {
            self.events.push(
                t.max(now),
                Event::RootArrival {
                    class: class as u32,
                },
            );
        }

        self.epoch_arrivals[class] += 1;
        let slo = self.classes[class].app.slo;
        let query = self.tracker.open(now, now + slo);
        let budget = self.control.budgets[class][0];
        self.submit(now, class, 0, query, now + budget.min(slo));
    }

    /// Creates and routes one stage request.
    fn submit(
        &mut self,
        now: Micros,
        class: usize,
        stage: usize,
        query: QueryId,
        deadline: Micros,
    ) {
        let variants = &self.stage_sessions[class][stage];
        // Pre-wrapped cursor: the variant list is fixed for the whole run
        // (`stage_sessions` is built once), so compare-and-reset walks the
        // same sequence as the old `cursor % len` without the division.
        let cursor = &mut self.variant_cursor[class][stage];
        let vi = *cursor;
        *cursor += 1;
        if *cursor == variants.len() {
            *cursor = 0;
        }
        let session = variants[vi];
        let req = Request {
            id: RequestId(self.next_request),
            session,
            arrival: now,
            deadline,
            query: Some(query),
        };
        self.next_request += 1;
        self.metrics.record_arrival(session, now);
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Arrival {
                t: now,
                request: req.id.0,
                session,
            });
        }
        match self.routes[session.0 as usize].pick() {
            Some(backend) => {
                let slot = self.enqueue(backend, req);
                self.arm(now, backend, slot);
            }
            // No replica (infeasible or capacity-capped): admission
            // control rejects at the frontend.
            None => self.drop_request(now, req, DropCause::NoRoute),
        }
    }

    /// Queues `req` on the slot of `backend` that hosts its session (a
    /// route target always does) and returns that slot.
    fn enqueue(&mut self, backend: usize, req: Request) -> usize {
        let b = &mut self.backends[backend];
        let slot = b
            .slot_of(req.session)
            .expect("route targets host the session");
        b.slots[slot].queue.push(req);
        slot
    }

    /// Arms a wake for the backend (coordinated) or slot (uncoordinated)
    /// after `slot`'s queue changed; `usize::MAX` means every slot of a
    /// coordinated backend did (see [`Self::arm_all`]).
    ///
    /// A coordinated backend is woken at the changed slot's ready time,
    /// not now. The invariant that makes this enough: while the backend
    /// is idle, `armed_wake` is its earliest pending live wake and no later
    /// than any slot's [`ready_at`]. A slot's ready time moves only when
    /// its queue does, i.e. at an arrival (armed here) or at a pull (after
    /// which the serve scan re-arms from every slot), so the other slots
    /// need no look. A busy backend has no wake armed (it launched from a
    /// wake that had just cleared it, or from a completion) and arms
    /// nothing: its last completion rescans every slot. An idle container
    /// is woken now, once per arrival.
    fn arm(&mut self, now: Micros, backend: usize, slot: usize) {
        // `fault_mode` gate: with no faults configured every slot serves
        // forever, so the fleet-health lookup is a constant `true` — skip
        // it on the per-request path.
        if self.fault_mode && !self.slot_serving(backend) {
            // Crashed or stalled: requests queue; a stall end re-arms, a
            // crash is detected by heartbeats and the queue re-dispatched.
            return;
        }
        let b = &self.backends[backend];
        let t = if self.cfg.system.coordinated {
            if b.busy {
                return;
            }
            let ready = match b.slots.get(slot) {
                Some(s) => ready_at(s, now),
                None => b.slots.iter().filter_map(|s| ready_at(s, now)).min(),
            };
            let Some(t) = ready else {
                return;
            };
            t
        } else if b.slots.get(slot).is_some_and(|s| !s.busy) {
            now
        } else {
            return;
        };
        let t = t.max(b.available_at);
        self.wake(t, backend, slot);
    }

    /// Arms every slot of `backend` (a new deployment, a fault ending).
    fn arm_all(&mut self, now: Micros, backend: usize) {
        if self.cfg.system.coordinated {
            self.arm(now, backend, usize::MAX);
        } else {
            for slot in 0..self.backends[backend].slots.len() {
                self.arm(now, backend, slot);
            }
        }
    }

    /// Re-arms `backend` at `t`: a coordinated backend through its deduped
    /// [`Self::arm_backend`], a container's `slot` with a wake of its own.
    fn wake(&mut self, t: Micros, backend: usize, slot: usize) {
        if self.cfg.system.coordinated {
            self.arm_backend(t, backend);
        } else {
            self.push_wake(t, backend, slot as u32);
        }
    }

    /// Schedules a wake at `t` for `slot` of `backend` (`u32::MAX`: the
    /// whole coordinated backend).
    fn push_wake(&mut self, t: Micros, backend: usize, slot: u32) {
        self.events.push(
            t,
            Event::Wake {
                backend: backend as u32,
                slot,
                gen: self.generation,
            },
        );
    }

    /// Coordinated wakes dedup on `armed_wake`: only a wake earlier than
    /// the one already armed is scheduled.
    fn arm_backend(&mut self, t: Micros, backend: usize) {
        let b = &mut self.backends[backend];
        if b.armed_wake > t {
            b.armed_wake = t;
            self.push_wake(t, backend, u32::MAX);
        }
    }

    fn on_wake(&mut self, now: Micros, backend: usize, slot: usize) {
        if self.cfg.system.coordinated {
            // Only the armed wake serves. Any other was superseded by an
            // earlier one that has already fired and rescanned.
            if now != self.backends[backend].armed_wake {
                return;
            }
            // Clear it even if the slot is not serving right now, or a
            // stalled backend could never re-arm (`arm` dedups on
            // `armed_wake`).
            self.backends[backend].armed_wake = Micros::MAX;
        }
        if self.fault_mode && !self.slot_serving(backend) {
            return;
        }
        self.serve(now, backend, slot);
    }

    /// Allocates a batch id and records the in-flight copy (fault mode
    /// only); a crash on the slot then strands exactly these requests.
    /// Returns `(batch id, physical slot)`.
    fn launch_bookkeeping(&mut self, backend: usize, batch: &[Request]) -> (u64, usize) {
        if !self.fault_mode {
            return (0, 0);
        }
        let id = self.next_batch;
        self.next_batch += 1;
        let pslot = self.backend_slot[backend];
        self.inflight[pslot].push((id, batch.to_vec()));
        (id, pslot)
    }

    /// Drains the dropped requests left in `scratch` by the last pull.
    /// `(backend, si)` locate the pulling slot so traced drops can be
    /// classified against its profile's ℓ(1).
    fn record_drops(&mut self, now: Micros, session: SessionId, backend: usize, si: usize) {
        if self.scratch.dropped.is_empty() {
            return;
        }
        // Computed only when tracing: ℓ(1) lookup stays off the hot path.
        let min_start = self
            .trace
            .is_some()
            .then(|| now + self.backends[backend].slots[si].ladder.min_latency());
        let mut dropped = std::mem::take(&mut self.scratch.dropped);
        let tb = self.metrics.terminal_batch(session, now);
        for r in dropped.drain(..) {
            self.metrics.record_drop_in(tb);
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Drop {
                    t: now,
                    request: r.id.0,
                    session,
                    cause: classify_drop(r.deadline, min_start.expect("set when tracing")),
                });
            }
            if let Some(q) = r.query {
                self.tracker.record(q, RequestOutcome::Dropped(now));
            }
        }
        // Hand the (now empty) buffer back for the next pull.
        self.scratch.dropped = dropped;
    }

    /// The one serve path (DESIGN.md §11): pulls the first ready batch and
    /// launches it. A coordinated backend scans every slot round-robin
    /// from its cursor and runs one batch at a time; a container scans
    /// only its own `slot`. Both inspect, record drops and launch the same
    /// way, and a scan that launches nothing re-arms through
    /// [`Self::wake`].
    fn serve(&mut self, now: Micros, backend: usize, slot: usize) {
        let coordinated = self.cfg.system.coordinated;
        let b = &self.backends[backend];
        let len = b.slots.len();
        // A busy coordinated backend rescans at its completion; a busy
        // container slot is skipped by `ready_at`.
        if (coordinated && b.busy) || (!coordinated && slot >= len) {
            return;
        }
        if now < b.available_at {
            let t = b.available_at;
            self.wake(t, backend, slot);
            return;
        }
        let first = if coordinated { b.cursor } else { slot };
        let n = if coordinated { len } else { 1 };
        let policy = self.cfg.system.drop_policy;
        // Containers always pull classic batches.
        let ladder_on = self.cfg.system.ladder && coordinated;
        let mut earliest_wake: Option<Micros> = None;
        // `first < len` always (the cursor is stored pre-wrapped), so one
        // conditional subtract replaces the per-slot modulo. The scan runs
        // as an inner loop holding the backend borrow (see `inspect_slot`);
        // it only drops out to `&mut self` territory on a pull — empty
        // pulls (everything expired) re-enter the scan where it left off.
        let mut k = 0;
        while k < n {
            let pulled = {
                let b = &mut self.backends[backend];
                loop {
                    if k >= n {
                        break None;
                    }
                    let mut si = first + k;
                    if si >= len {
                        si -= len;
                    }
                    k += 1;
                    match inspect_slot(
                        &mut b.slots[si],
                        now,
                        policy,
                        ladder_on,
                        &mut self.scratch,
                        &mut self.mb_scratch,
                        &mut self.batch_pool,
                    ) {
                        SlotDecision::Skip => {}
                        SlotDecision::NotReady(f) => {
                            earliest_wake = Some(earliest_wake.map_or(f, |e: Micros| e.min(f)));
                        }
                        SlotDecision::Pulled {
                            session,
                            batch,
                            pending_expiry,
                        } => break Some((si, session, batch, pending_expiry)),
                    }
                }
            };
            let Some((si, session, batch, pending_expiry)) = pulled else {
                break;
            };
            self.record_drops(now, session, backend, si);
            if !batch.is_empty() {
                self.launch_parts(now, backend, si, session, batch);
                return;
            }
            self.recycle(batch);
            if let Some(expiry) = pending_expiry {
                // Lazy-held requests: revisit at their expiry.
                let f = expiry.max(now + Micros(1));
                earliest_wake = Some(earliest_wake.map_or(f, |e: Micros| e.min(f)));
            }
        }
        if let Some(f) = earliest_wake {
            self.wake(f, backend, slot);
        }
    }

    /// Launches `batch`, just pulled from `slot`, as the part sequence
    /// [`inspect_slot`] left in `mb_scratch` (DESIGN.md §16): the parts run
    /// back-to-back from `now`, each completes at its cumulative finish,
    /// and only the last frees the backend (coordinated) or the slot
    /// (container) for the next pull. A classic pull is one part.
    fn launch_parts(
        &mut self,
        now: Micros,
        backend: usize,
        slot: usize,
        session: SessionId,
        batch: Vec<Request>,
    ) {
        // Straggler slowdown stretches every part; without faults the
        // factor is a constant 1.0 — skip the health lookup.
        let slowdown = if self.fault_mode {
            self.fleet.slowdown(self.backend_slot[backend])
        } else {
            1.0
        };
        let b = &mut self.backends[backend];
        let (interference, shared_by) = if self.cfg.system.coordinated {
            b.busy = true;
            b.cursor = (slot + 1) % b.slots.len();
            (1.0, None)
        } else {
            // Interference from the peers that are executing right now
            // (including this one): an idle co-located container costs
            // nothing.
            let concurrent = 1 + b.slots.iter().filter(|s| s.busy).count();
            b.slots[slot].busy = true;
            let factor = self.cfg.system.interference.slowdown(concurrent);
            (factor, Some(concurrent as u64))
        };
        let s = &b.slots[slot];
        let parts = self
            .mb_scratch
            .iter()
            .map(|mb| part_duration(s, mb.rung, interference, slowdown));
        match shared_by {
            None => {
                b.gpu.execute_sequence(now, parts);
            }
            // Fair-share accounting: concurrent containers time-share the
            // device.
            Some(concurrent) => {
                for d in parts {
                    b.gpu.accrue_shared(d / concurrent);
                }
            }
        }
        // One execution per part over `[start, start + duration)`: trace
        // it, record the in-flight copy, park the payload and schedule its
        // completion.
        let nmb = self.mb_scratch.len();
        let mut start = now;
        let mut rest = batch;
        for j in 0..nmb {
            let mb = self.mb_scratch[j];
            let s = &self.backends[backend].slots[slot];
            let duration = part_duration(s, mb.rung, interference, slowdown);
            let last = j + 1 == nmb;
            let requests = if last {
                std::mem::take(&mut rest)
            } else {
                let mut p = self.batch_pool.pop().unwrap_or_default();
                p.extend(rest.drain(..mb.len as usize));
                p
            };
            let seq = match &mut self.trace {
                Some(tr) => {
                    let seq = tr.alloc_batch_seq();
                    tr.push(TraceEvent::Batch {
                        t: start,
                        backend,
                        session,
                        size: requests.len() as u32,
                        duration,
                        rung: mb.rung,
                        leftover: j > 0,
                        seq,
                    });
                    seq
                }
                None => 0,
            };
            let (id, pslot) = self.launch_bookkeeping(backend, &requests);
            let job = self.alloc_job(BatchJob {
                requests,
                slot,
                gen: self.generation,
                batch: id,
                pslot,
                started: start,
                seq,
                last,
            });
            self.events.push(
                start + duration,
                Event::BatchDone {
                    backend: backend as u32,
                    job,
                },
            );
            start += duration;
        }
    }

    /// Returns a spent batch vector to the recycling pool.
    fn recycle(&mut self, mut batch: Vec<Request>) {
        batch.clear();
        self.batch_pool.push(batch);
    }

    /// Allocates a [`BatchJob`] pool slot (recycling freed ones) for an
    /// in-flight batch; [`Self::on_batch_done`] takes it back out.
    fn alloc_job(&mut self, job: BatchJob) -> u32 {
        match self.free_jobs.pop() {
            Some(i) => {
                self.jobs[i as usize] = job;
                i
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u32
            }
        }
    }

    fn on_batch_done(&mut self, now: Micros, backend: usize, job: u32) {
        let BatchJob {
            requests,
            slot,
            gen,
            batch,
            pslot,
            started,
            seq,
            last,
        } = std::mem::take(&mut self.jobs[job as usize]);
        self.free_jobs.push(job);
        if self.fault_mode {
            if let Some(pos) = self.lost_batches.iter().position(|&b| b == batch) {
                // The GPU crashed mid-execution: the batch never finished.
                // Its requests sit in limbo until detection re-dispatches
                // them.
                self.lost_batches.swap_remove(pos);
                self.recycle(requests);
                return;
            }
            let entries = &mut self.inflight[pslot];
            if let Some(pos) = entries.iter().position(|&(id, _)| id == batch) {
                entries.remove(pos);
            }
        }
        // Per-batch invariants: a batch is pulled from one slot's queue, so
        // every request shares a session — hoist the session → (class,
        // stage) → child-edge (+ deadline offset) lookups out of the
        // per-request loop. Copy the edges into a reusable scratch so the
        // loop below can call `submit` (needs `&mut self`) freely.
        let mut class = 0usize;
        let mut tb = None;
        if let Some(first) = requests.first() {
            let s = &self.control.sessions[first.session.0 as usize];
            class = s.class;
            let stage = s.stage;
            let n = self.classes[class].app.stages[stage].children.len();
            self.child_scratch.clear();
            for k in 0..n {
                let (child, gamma) = self.classes[class].app.stages[stage].children[k];
                let offset = self.stage_offset(class, child);
                self.child_scratch.push((child, gamma, offset));
            }
            // One session/bucket resolution for the whole batch (shared
            // session, shared finish time).
            tb = Some(self.metrics.terminal_batch(first.session, now));
        }
        let n_children = self.child_scratch.len();
        for &req in &requests {
            debug_assert_eq!(req.session, requests[0].session);
            let good = now <= req.deadline;
            self.metrics
                .record_completion_in(tb.expect("nonempty batch"), req.arrival, good);
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Completion {
                    t: now,
                    request: req.id.0,
                    session: req.session,
                    latency: now - req.arrival,
                    exec_start: started,
                    batch_seq: seq,
                    good,
                });
            }
            if let Some(query) = req.query {
                // One window lookup for the whole spawn loop: the query
                // stays open throughout (this request's own terminal
                // record happens after the loop), so its span is fixed.
                let (q_arrival, q_deadline) = if n_children > 0 {
                    self.tracker.span(query).unwrap_or((now, Micros::MAX))
                } else {
                    (now, Micros::MAX)
                };
                for k in 0..n_children {
                    let (child, gamma, offset) = self.child_scratch[k];
                    let count = sample_gamma(gamma, &mut self.gamma_rng);
                    if count > 0 {
                        self.tracker.add_outstanding(query, count);
                        // The child's window is its cumulative budget offset
                        // from the query arrival — slack left by ancestors
                        // finishing early is inherited, the query SLO is the
                        // only hard wall.
                        let deadline = (q_arrival + offset).min(q_deadline).max(now);
                        for _ in 0..count {
                            self.submit(now, class, child, query, deadline);
                        }
                    }
                }
                self.tracker.record(query, RequestOutcome::Completed(now));
            }
        }
        self.recycle(requests);
        // A part before the last: the batch's sequence is still
        // executing, so the backend or slot stays held.
        if !last {
            return;
        }
        // A stale generation means the deployment was replaced while this
        // batch executed; the work still counted, but the backend state it
        // referred to is gone.
        if gen != self.generation {
            return;
        }
        let b = &mut self.backends[backend];
        if self.cfg.system.coordinated {
            b.busy = false;
        } else {
            b.slots[slot].busy = false;
        }
        if !self.fault_mode || self.slot_serving(backend) {
            self.serve(now, backend, slot);
        }
    }

    /// Cumulative deadline offset of a stage (same for all its variants).
    fn stage_offset(&self, class: usize, stage: usize) -> Micros {
        let sid = self.stage_sessions[class][stage][0];
        self.control.sessions[sid.0 as usize].deadline_offset
    }

    fn on_epoch(&mut self, now: Micros) {
        // Observe per-class rates over the elapsed epoch.
        let epoch_secs = (now - self.epoch_started).as_secs_f64();
        if epoch_secs > 0.0 {
            for (ci, count) in self.epoch_arrivals.iter_mut().enumerate() {
                let observed = *count as f64 / epoch_secs;
                let prev = self.est_rates[ci] / 1.1;
                // React immediately to increases, decay slowly on
                // decreases, provision 10% headroom.
                let blended = if observed > prev {
                    observed
                } else {
                    0.5 * prev + 0.5 * observed
                };
                self.est_rates[ci] = blended * 1.1;
                *count = 0;
            }
        }
        self.epoch_started = now;

        // Reconfigure when the workload moved materially (early trigger) or
        // a full epoch elapsed; otherwise skip — swapping deployments costs
        // model loads and queue migrations, and the paper rate-limits
        // reconfiguration for exactly this reason.
        let tick = self.cfg.system.epoch.min(Micros::from_secs(10));
        let significant =
            self.est_rates
                .iter()
                .zip(&self.planned_rates)
                .any(|(&now_r, &planned)| {
                    let base = planned.max(1.0);
                    (now_r - planned).abs() / base > 0.15
                });
        let epoch_elapsed = now - self.last_replan >= self.cfg.system.epoch;
        if !significant && !epoch_elapsed {
            if now + tick < self.cfg.horizon {
                self.events.push(now + tick, Event::EpochTick);
            }
            return;
        }
        self.last_replan = now;
        self.planned_rates = self.est_rates.clone();

        let next = self.replan_control();
        self.swap_deployment(now, next);
        if now + tick < self.cfg.horizon {
            self.events.push(now + tick, Event::EpochTick);
        }
    }

    /// Replaces the running deployment with `next`: matches new plans onto
    /// surviving backends (§6.1 incremental scheduling, skipping declared-
    /// dead slots), charges model loads, migrates queues, re-routes
    /// orphans, and wakes the new deployment. Shared by the epoch tick and
    /// the out-of-band emergency replan after a failure.
    fn swap_deployment(&mut self, now: Micros, next: ControlPlan) {
        // Any swap re-packs on current capacity, so a rejoin-deferred
        // replan that is still pending becomes moot.
        self.pending_replan = None;
        // Account allocated GPU-seconds under the *old* allocation.
        self.gpu_seconds_allocated +=
            (now - self.last_alloc_change).as_secs_f64() * self.control.gpu_count() as f64;
        self.last_alloc_change = now;

        // Only backends on slots the controller trusts may be reused; a
        // declared-dead slot's model residency is gone with the hardware.
        // Matching runs per pool — a backend's device class and physical
        // slot range belong to its pool, so reuse never crosses pools. The
        // single-pool case reduces to the old global matching exactly.
        debug_assert_eq!(next.pools.len(), self.control.pools.len());
        let next_count: usize = next.pools.iter().map(|p| p.allocation.plans.len()).sum();
        let mut matched_prev: Vec<Option<usize>> = vec![None; next_count];
        let mut model_loads = 0usize;
        for (pp, opp) in next.pools.iter().zip(&self.control.pools) {
            let old_range = opp.first_backend..opp.first_backend + opp.allocation.plans.len();
            let reusable: Vec<usize> = old_range
                .filter(|&b| !self.fleet.is_dead(self.backend_slot[b]))
                .collect();
            let prev_plans: Vec<GpuPlan> = reusable
                .iter()
                .map(|&b| self.control.plan_of(b).clone())
                .collect();
            let assignment = assign_plans(&prev_plans, &pp.allocation.plans);
            model_loads += assignment.model_loads;
            for (li, m) in assignment.backend_for.iter().enumerate() {
                matched_prev[pp.first_backend + li] = m.map(|pos| reusable[pos]);
            }
        }
        let mut new_backends = build_backends(&next, &self.cfg.system);
        // Charge model-load delay on backends that must load new models.
        for (ni, nb) in new_backends.iter_mut().enumerate() {
            let mut max_load = Micros::ZERO;
            for slot in &nb.slots {
                let resident = matched_prev[ni]
                    .is_some_and(|pb| self.backends[pb].slot_of(slot.session).is_some());
                if !resident {
                    let load = next.sessions[slot.session.0 as usize]
                        .exec_profile
                        .load_time();
                    max_load = max_load.max(load);
                }
            }
            // Phase stagger matters only for brand-new backends; reused
            // ones already drifted out of phase and must not go dark for a
            // duty cycle at every reconfiguration.
            let stagger = if matched_prev[ni].is_some() {
                Micros::ZERO
            } else {
                nb.available_at
            };
            nb.available_at = now + max_load + stagger;
        }
        // Queues stay with backends that keep hosting their session (no
        // disruption); only requests whose host changed migrate.
        for (ni, nb) in new_backends.iter_mut().enumerate() {
            if let Some(pi) = matched_prev[ni] {
                for slot in nb.slots.iter_mut() {
                    if let Some(psi) = self.backends[pi].slot_of(slot.session) {
                        for r in self.backends[pi].slots[psi].queue.drain() {
                            slot.queue.push(r);
                        }
                    }
                }
            }
        }
        let mut orphans: Vec<Request> = Vec::new();
        for b in &mut self.backends {
            for slot in &mut b.slots {
                orphans.extend(slot.queue.drain());
            }
        }
        // Physical placement: reused backends keep their slot; fresh ones
        // take the lowest slot in their *pool's* physical range not
        // declared dead and not already occupied. A crashed-but-undetected
        // slot is eligible — the controller does not know better yet, and
        // the misplaced sessions are rescued by the next detection.
        let mut new_backend_slot = vec![usize::MAX; new_backends.len()];
        let mut occupied = vec![false; self.cfg.max_gpus as usize];
        for (ni, slot) in new_backend_slot.iter_mut().enumerate() {
            if let Some(pb) = matched_prev[ni] {
                *slot = self.backend_slot[pb];
                occupied[*slot] = true;
            }
        }
        for (ni, slot) in new_backend_slot.iter_mut().enumerate() {
            if *slot == usize::MAX {
                let pool = next.pool_of(ni);
                let base = self.pool_bases[pool];
                let free = (base..base + self.pool_sizes[pool])
                    .find(|&s| !occupied[s] && !self.fleet.is_dead(s))
                    .expect("pool plan count is capped at non-dead slot count");
                *slot = free;
                occupied[free] = true;
            }
        }
        self.generation += 1;
        self.routes = build_routes(&next);
        // The outgoing backends' busy time would vanish with them (reused
        // backends get fresh devices too); bank it for `summarize`.
        self.retired_busy += self
            .backends
            .iter()
            .map(|b| b.gpu.busy_total().as_micros())
            .sum::<u64>();
        self.backends = new_backends;
        self.backend_slot = new_backend_slot;
        self.control = next;
        for req in orphans {
            match self.routes[req.session.0 as usize].pick() {
                Some(backend) => {
                    self.enqueue(backend, req);
                }
                None => self.drop_request(now, req, DropCause::Orphaned),
            }
        }
        self.metrics
            .record_allocation(now, self.control.gpu_count() as u32);
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Reallocation {
                t: now,
                gpus: self.control.gpu_count() as u32,
                model_loads,
            });
        }
        // Wake everything to pick up the new schedule.
        for backend in 0..self.backends.len() {
            self.arm_all(now, backend);
        }
    }

    /// Injects `SimConfig::faults[index]` into the fleet.
    fn on_fault(&mut self, now: Micros, index: usize) {
        let spec = self.cfg.faults[index];
        let slot = spec.slot;
        match spec.kind {
            FaultKind::Crash => {
                self.fleet.crash(slot);
                // In-flight batches on the device die with it: mark them
                // lost and hold their requests in limbo until detection.
                // The per-slot table is in launch (= ascending id) order,
                // matching the old id-keyed map's iteration.
                for (id, requests) in std::mem::take(&mut self.inflight[slot]) {
                    self.lost_batches.push(id);
                    self.limbo[slot].extend(requests);
                }
                self.metrics.record_fault(slot, now);
            }
            FaultKind::Stall { duration } => {
                self.fleet.stall(slot);
                self.metrics.record_fault(slot, now);
                self.events
                    .push(now + duration, Event::FaultEnd { slot: slot as u32 });
            }
            FaultKind::Slowdown { factor, duration } => {
                self.fleet.slow(slot, factor);
                self.events
                    .push(now + duration, Event::FaultEnd { slot: slot as u32 });
            }
            FaultKind::ConnDrop { duration } => {
                // Network path down: dispatch and heartbeats fail, the
                // device is fine. Same controller-visible silhouette as a
                // stall — detection cannot tell them apart, by design.
                self.fleet.disconnect(slot);
                self.metrics.record_fault(slot, now);
                self.events
                    .push(now + duration, Event::FaultEnd { slot: slot as u32 });
            }
            FaultKind::HeartbeatDelay { duration } => {
                // Control plane goes blind while the data plane serves. A
                // delay outlasting the detection window yields a false-
                // positive death and a needless re-pack.
                self.fleet.mute(slot);
                self.metrics.record_fault(slot, now);
                self.events
                    .push(now + duration, Event::FaultEnd { slot: slot as u32 });
            }
            FaultKind::SlowLoris { factor, duration } => {
                // Starving network path: latency stretches, heartbeats
                // stay timely — degrades without tripping detection.
                self.fleet.slow(slot, factor);
                self.events
                    .push(now + duration, Event::FaultEnd { slot: slot as u32 });
            }
            FaultKind::Rejoin => {
                let was_out = self.fleet.crashed(slot) || self.fleet.is_dead(slot);
                self.fleet.revive(slot);
                if let Some(tr) = &mut self.trace {
                    tr.push(TraceEvent::Rejoin { t: now, gpu: slot });
                }
                if was_out {
                    // Regained capacity: re-pack so the fleet uses it
                    // (rate-limited — a flapping slot must not thrash the
                    // deployment).
                    self.rejoin_replan(now);
                }
                return;
            }
        }
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Fault {
                t: now,
                gpu: slot,
                kind: spec.kind,
            });
        }
    }

    /// A timed fault (stall/slowdown) expires.
    fn on_fault_end(&mut self, now: Micros, slot: usize) {
        if self.fleet.is_dead(slot) {
            // The stall outlived the detection window: the controller
            // already re-packed around the slot, so its resumption is a
            // rejoin of spare capacity.
            self.fleet.revive(slot);
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::Rejoin { t: now, gpu: slot });
            }
            self.rejoin_replan(now);
            return;
        }
        self.fleet.end_fault(slot);
        // Wake whichever backend sat out the fault on this slot.
        if let Some(backend) = self.backend_slot.iter().position(|&s| s == slot) {
            self.arm_all(now, backend);
        }
    }

    /// The controller pings every deployed backend; `heartbeat_misses`
    /// consecutive silent polls declare the slot dead and trigger recovery.
    fn on_heartbeat_check(&mut self, now: Micros) {
        // A rejoin re-pack deferred by the cooldown runs here once due —
        // the heartbeat tick is the controller's only periodic foothold,
        // so no extra event variant is needed.
        if self.pending_replan.is_some_and(|due| due <= now) {
            self.emergency_replan(now);
        }
        let threshold = self.cfg.system.heartbeat_misses;
        let mut newly_dead: Vec<usize> = Vec::new();
        for backend in 0..self.backends.len() {
            let slot = self.backend_slot[backend];
            if self.fleet.poll(slot, threshold) == PollOutcome::NewlyDead {
                newly_dead.push(slot);
            }
        }
        if !newly_dead.is_empty() {
            self.handle_failures(now, newly_dead);
        }
        let interval = self.cfg.system.heartbeat_interval;
        if now + interval < self.cfg.horizon {
            self.events.push(now + interval, Event::HeartbeatCheck);
        }
    }

    /// Recovery after detection: strand the dead backends' queued and
    /// in-flight requests, re-pack the lost sessions onto survivors (the
    /// emergency epoch), then re-dispatch each stranded request whose
    /// remaining budget still covers a single-item execution — the rest
    /// are counted dropped.
    fn handle_failures(&mut self, now: Micros, slots: Vec<usize>) {
        let mut stranded: Vec<(usize, Vec<Request>)> = Vec::new();
        for &slot in &slots {
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent::FailureDetected { t: now, gpu: slot });
            }
            let mut requests: Vec<Request> = Vec::new();
            // Queued work first (FIFO per slot), then the limbo batches
            // that died on the device.
            if let Some(backend) = self.backend_slot.iter().position(|&s| s == slot) {
                for sl in &mut self.backends[backend].slots {
                    requests.extend(sl.queue.drain());
                }
            }
            requests.extend(std::mem::take(&mut self.limbo[slot]));
            stranded.push((slot, requests));
        }
        // Re-pack survivors before re-dispatching so retries land on live
        // routes. This also drops the dead backends from the routing
        // tables — frontends stop sending them traffic immediately.
        self.emergency_replan(now);
        for (slot, requests) in stranded {
            let mut retried = 0u64;
            let mut lost = 0u64;
            for req in requests {
                if self.retry(now, req) {
                    retried += 1;
                } else {
                    lost += 1;
                }
            }
            self.metrics.record_detection(slot, now, retried, lost);
        }
    }

    /// Deadline-aware retry of one stranded request: re-dispatch only if
    /// the remaining budget covers the smallest feasible ladder rung
    /// (ℓ(rung₁), which equals ℓ(1) for the current power-of-two ladders);
    /// otherwise it is already doomed and counts as dropped without
    /// wasting survivor capacity. Cold path — detection only — so deriving
    /// the ladder here is fine.
    fn retry(&mut self, now: Micros, req: Request) -> bool {
        let session = req.session;
        let exec = &self.control.sessions[session.0 as usize].exec_profile;
        if req.deadline >= now + BatchLadder::from_profile(exec).min_latency() {
            if let Some(backend) = self.routes[session.0 as usize].pick() {
                if let Some(tr) = &mut self.trace {
                    tr.push(TraceEvent::Retry {
                        t: now,
                        request: req.id.0,
                        session,
                    });
                }
                let slot = self.enqueue(backend, req);
                self.arm(now, backend, slot);
                return true;
            }
        }
        self.drop_request(now, req, DropCause::Stranded);
        false
    }

    /// Drops `req` at `now` outside a pull: counts it, traces it with
    /// `cause`, and closes its query's branch as dropped.
    fn drop_request(&mut self, now: Micros, req: Request, cause: DropCause) {
        self.metrics.record_drop(req.session, now);
        if let Some(tr) = &mut self.trace {
            tr.push(TraceEvent::Drop {
                t: now,
                request: req.id.0,
                session: req.session,
                cause,
            });
        }
        if let Some(q) = req.query {
            self.tracker.record(q, RequestOutcome::Dropped(now));
        }
    }

    /// A rejoin wants its regained capacity packed in. Deaths re-pack
    /// immediately (delay loses requests), but rejoins are rate-limited
    /// by `SystemConfig::rejoin_cooldown`: within the cooldown of the
    /// last swap the re-pack is deferred to the first heartbeat tick
    /// after it elapses, so a flapping slot produces at most one
    /// deployment swap per cooldown instead of one per flap.
    fn rejoin_replan(&mut self, now: Micros) {
        let cooldown = self.cfg.system.rejoin_cooldown;
        if cooldown == Micros::ZERO || now.saturating_sub(self.last_replan) >= cooldown {
            self.emergency_replan(now);
        } else {
            let due = self.last_replan + cooldown;
            // Keep the earliest due time if several rejoins queue up.
            self.pending_replan = Some(self.pending_replan.map_or(due, |d| d.min(due)));
        }
    }

    /// The out-of-band emergency epoch: re-plans on the capacity the
    /// controller knows about and swaps the deployment immediately,
    /// independent of the epoch schedule (it runs even under static
    /// allocation). Only moved sessions pay model-load cost, via the same
    /// incremental plan assignment as a regular epoch.
    fn emergency_replan(&mut self, now: Micros) {
        let next = self.replan_control();
        self.swap_deployment(now, next);
        self.last_replan = now;
    }

    /// Re-plans on the capacity the controller currently trusts:
    /// homogeneous fleets re-run the global single-device planner on the
    /// live GPU count; pooled fleets re-run the pool-aware planner with
    /// each pool capped at its count of non-declared-dead physical slots.
    fn replan_control(&self) -> ControlPlan {
        if self.pools.is_empty() {
            plan(
                &self.classes,
                &self.cfg.system,
                &self.cfg.device,
                self.available_gpus(),
                Some(&self.est_rates),
            )
            .expect("models validated at construction")
        } else {
            let avail: Vec<u32> = self
                .pool_bases
                .iter()
                .zip(&self.pool_sizes)
                .map(|(&base, &size)| {
                    (base..base + size)
                        .filter(|&s| !self.fleet.is_dead(s))
                        .count() as u32
                })
                .collect();
            plan_pooled(
                &self.classes,
                &self.cfg.system,
                &self.pools,
                &avail,
                Some(&self.est_rates),
            )
            .expect("models validated at construction")
        }
    }

    fn summarize(mut self) -> SimResult {
        let end = self.events.now().max(self.cfg.horizon);
        // Flush requests still queued at the end of the run: they are
        // terminally unserved.
        let mut leftovers: Vec<Request> = Vec::new();
        for b in &mut self.backends {
            for slot in &mut b.slots {
                leftovers.extend(slot.queue.drain());
            }
        }
        // Requests stranded on a crashed GPU whose failure was never
        // detected before the run ended (slot index order, matching the
        // old slot-keyed map).
        let queued_leftovers = leftovers.len();
        for requests in std::mem::take(&mut self.limbo) {
            leftovers.extend(requests);
        }
        for (i, req) in leftovers.into_iter().enumerate() {
            let cause = if i < queued_leftovers {
                DropCause::RunEnd
            } else {
                DropCause::Stranded
            };
            self.drop_request(end, req, cause);
        }
        self.gpu_seconds_allocated +=
            (end - self.last_alloc_change).as_secs_f64() * self.control.gpu_count() as f64;

        let window_start = self.cfg.warmup;
        let window_end = self.cfg.horizon;
        let window_secs = (window_end - window_start).as_secs_f64().max(1e-9);

        let mut finished = 0u64;
        let mut bad = 0u64;
        for q in self.tracker.finished() {
            if q.arrival >= window_start && q.arrival < window_end {
                finished += 1;
                if !q.good {
                    bad += 1;
                }
            }
        }
        let query_bad_rate = if finished == 0 {
            0.0
        } else {
            bad as f64 / finished as f64
        };

        // Busy time of the final deployment's backends, plus everything
        // the deployment swaps retired along the way — without the
        // retired share, utilization only reflected the last epoch.
        let busy_total: u64 = self.retired_busy
            + self
                .backends
                .iter()
                .map(|b| b.gpu.busy_total().as_micros())
                .sum::<u64>();
        let mean_gpus = self.gpu_seconds_allocated / end.as_secs_f64().max(1e-9);
        let gpu_utilization = if self.gpu_seconds_allocated > 0.0 {
            ((busy_total as f64 / 1e6) / self.gpu_seconds_allocated).min(1.0)
        } else {
            0.0
        };

        // Occupancy of the final deployment: each backend's measured busy
        // fraction since the last swap, against the plan's predicted
        // duty-cycle occupancy (Σ exec latencies / duty cycle). Purely
        // observational — computed once, after the event loop.
        let final_window = (end - self.last_alloc_change).as_secs_f64();
        let gpu_occupancy: Vec<GpuOccupancy> = self
            .backends
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let p = self.control.plan_of(bi);
                let exec_total: Micros = p.entries.iter().map(|e| e.exec_latency).sum();
                let planned_frac = if p.duty_cycle > Micros::ZERO {
                    (exec_total.as_secs_f64() / p.duty_cycle.as_secs_f64()).min(1.0)
                } else {
                    0.0
                };
                let busy_frac = if final_window > 0.0 {
                    (b.gpu.busy_total().as_secs_f64() / final_window).min(1.0)
                } else {
                    0.0
                };
                GpuOccupancy {
                    backend: bi,
                    pool: self.control.pool_of(bi),
                    busy_frac,
                    planned_frac,
                }
            })
            .collect();

        // Per-pool rollup: occupancy from the slice of backends the pool
        // owns, request counters joined through each session's planned
        // pool. Run-wide (unwindowed) on purpose — an observability
        // surface, not a measurement-window statistic.
        let run_secs = end.as_secs_f64().max(1e-9);
        let pool_stats: Vec<PoolStats> = self
            .control
            .pools
            .iter()
            .map(|pp| {
                let nplans = pp.allocation.plans.len();
                let occ = &gpu_occupancy[pp.first_backend..pp.first_backend + nplans];
                let busy_frac = if occ.is_empty() {
                    0.0
                } else {
                    occ.iter().map(|o| o.busy_frac).sum::<f64>() / occ.len() as f64
                };
                let (mut good, mut bad_reqs) = (0u64, 0u64);
                for s in &self.control.sessions {
                    if s.pool != pp.pool {
                        continue;
                    }
                    if let Some(m) = self.metrics.session(s.id) {
                        good += m.good;
                        bad_reqs += m.late + m.dropped;
                    }
                }
                let terminal = good + bad_reqs;
                PoolStats {
                    pool: pp.pool,
                    device: pp.device.name,
                    backends: nplans,
                    busy_frac,
                    request_goodput: good as f64 / run_secs,
                    request_bad_rate: if terminal == 0 {
                        0.0
                    } else {
                        bad_reqs as f64 / terminal as f64
                    },
                }
            })
            .collect();

        SimResult {
            request_bad_rate: self.metrics.bad_rate_in(window_start, window_end),
            query_bad_rate,
            query_goodput: (finished - bad) as f64 / window_secs,
            queries_finished: finished,
            mean_gpus,
            gpu_utilization,
            events_processed: self.events_processed,
            metrics: self.metrics,
            trace_truncated: self.trace.as_ref().map_or(0, |t| t.truncated),
            trace: self.trace,
            gpu_occupancy,
            pool_stats,
        }
    }
}

/// When an idle backend should serve `slot`, seen at `now`: `None` while
/// it has nothing to serve, `Some(now)` if it pulls now, else the future
/// time it becomes due. Its queue reaches the jittered target, or the
/// oldest request has gathered for a duty cycle, or the latest safe start
/// arrives, whichever is first. The one readiness rule: [`inspect_slot`]
/// pulls on it and [`ClusterSim::arm`] wakes on it.
fn ready_at(slot: &Slot, now: Micros) -> Option<Micros> {
    if slot.queue.is_empty() || slot.busy {
        return None;
    }
    let queued = slot.queue.len() as u32;
    // Jittered readiness threshold (phase decorrelation).
    let span = (slot.target_batch / 6).max(1);
    let eff_target = slot.target_batch - (slot.jitter_state % u64::from(span)) as u32;
    if queued >= eff_target {
        return Some(now);
    }
    // Wait for batch-mates, but no longer than one duty cycle past the
    // oldest arrival and never past the latest safe start.
    let gather_until = slot
        .queue
        .oldest_arrival()
        .map_or(Micros::MAX, |a| a + slot.gather_limit);
    Some(forced_start(slot).min(gather_until).max(now))
}

/// Inspects one slot: readiness check and pull. A free function over split
/// borrows (slot, scratch, pool) rather than a `&mut self` method, so the
/// serve scans can hold their backend borrow across the whole slot loop —
/// the compiler keeps the slot array pointer in a register instead of
/// re-deriving `backends[backend].slots[si]` once per slot.
#[inline]
fn inspect_slot(
    slot: &mut Slot,
    now: Micros,
    policy: DropPolicy,
    ladder_on: bool,
    scratch: &mut BatchPull,
    minibatches: &mut Vec<MiniBatch>,
    batch_pool: &mut Vec<Vec<Request>>,
) -> SlotDecision {
    match ready_at(slot, now) {
        None => return SlotDecision::Skip,
        Some(f) if f > now => return SlotDecision::NotReady(f),
        Some(_) => {}
    }
    // The GPU scheduler executes the *planned* batch sizes (§6.3); an
    // infinite reserve pins the early-drop window to the plan. Bursty
    // child stages survive because their deadlines inherit ancestor
    // slack, not because batches balloon.
    slot.jitter_state = nexus_workload::splitmix64(slot.jitter_state);
    if ladder_on {
        // Allowance = the planned slot length: the rung sequence may
        // re-segment the slot (small rungs for tight fronts, a padded
        // cover for short queues) but never stretch it, so the duty-cycle
        // promises to co-located sessions hold. The planned batch is a
        // rung by construction, so the allowance is exactly `ℓ(plan)`.
        let allowance = slot.ladder.rung_latency(slot.target_batch);
        slot.queue.pull_ladder_into(
            now,
            slot.target_batch,
            allowance,
            &slot.profile,
            &slot.ladder,
            policy,
            Micros::MAX,
            scratch,
            minibatches,
        );
    } else {
        slot.queue.pull_into(
            now,
            slot.target_batch,
            &slot.profile,
            policy,
            Micros::MAX,
            scratch,
        );
        // A classic batch is the one-part sequence: its own size is the
        // rung, so the part runs in exactly ℓ(n).
        let n = scratch.batch.len() as u32;
        minibatches.clear();
        minibatches.push(MiniBatch { rung: n, len: n });
    }
    if !scratch.batch.is_empty() && !slot.rotation.is_empty() {
        // Every non-empty pull launches: advance the rotation.
        slot.rotation.rotate_left(1);
        slot.target_batch = slot.rotation[0];
    }
    let pending_expiry = if scratch.batch.is_empty() {
        slot.queue.oldest_deadline()
    } else {
        None
    };
    // Hand the filled batch out and put a recycled buffer back in the
    // scratch slot — no allocation on either side of the swap.
    let batch = std::mem::replace(&mut scratch.batch, batch_pool.pop().unwrap_or_default());
    SlotDecision::Pulled {
        session: slot.session,
        batch,
        pending_expiry,
    }
}

/// Latest time a slot can start its next batch without missing the oldest
/// request's deadline.
fn forced_start(slot: &Slot) -> Micros {
    // The dispatcher may serve the whole queue in one batch (bursts), so
    // the latest safe start accounts for that larger execution, using the
    // timing profile (interference-pessimistic for containers) — and for
    // the worst case that every co-located session's batch gets in line
    // first (the peer reserve).
    let n = (slot.queue.len() as u32).max(1);
    let deadline = slot.queue.oldest_deadline().unwrap_or(Micros::MAX);
    deadline
        .saturating_sub(slot.timing.latency_clamped(n))
        .saturating_sub(slot.reserve)
}

/// Execution time of one `rung`-shaped part of `slot`'s batch: ℓ(rung)
/// (the ladder caches the same value for every rung), stretched by a
/// container's `interference`, then by a straggler `slowdown`. A factor of
/// 1.0 is skipped, so an unstretched part is exactly ℓ(rung).
fn part_duration(slot: &Slot, rung: u32, interference: f64, slowdown: f64) -> Micros {
    let mut d = slot.profile.latency_clamped(rung);
    for factor in [interference, slowdown] {
        if factor != 1.0 {
            d = d.scale(factor);
        }
    }
    d
}

/// Samples a fan-out count (stochastic rounding for fractional fixed γ).
fn sample_gamma(gamma: GammaSpec, rng: &mut StdRng) -> u32 {
    match gamma {
        GammaSpec::Fixed(g) => {
            let base = g.floor();
            let frac = g - base;
            base as u32 + u32::from(rng.gen::<f64>() < frac)
        }
        GammaSpec::Poisson(g) => poisson_sample(rng, g),
    }
}

fn build_backends(control: &ControlPlan, system: &SystemConfig) -> Vec<Backend> {
    let total: usize = control
        .pools
        .iter()
        .map(|pp| pp.allocation.plans.len())
        .sum();
    let mut backends = Vec::with_capacity(total);
    for pp in &control.pools {
        // Stagger and phase jitter are pool-local: replicas phase-lock with
        // their own pool's duty cycles, and the single-pool case matches
        // the old global indexing exactly (`li == bi`, `n` = plan count).
        let n = pp.allocation.plans.len().max(1) as u64;
        for (li, p) in pp.allocation.plans.iter().enumerate() {
            let bi = pp.first_backend + li;
            // Load every hosted model onto the simulated device (the
            // *pool's* device class); the squishy memory constraint
            // guarantees this fits, and the device enforces it.
            let mut gpu = SimGpu::new(pp.device);
            for e in &p.entries {
                let session = &control.sessions[e.session.0 as usize];
                gpu.load(
                    ResidentKey(u64::from(e.session.0)),
                    session.exec_profile.memory_bytes(),
                    session.exec_profile.load_time(),
                    Micros::ZERO,
                )
                .expect("scheduler guarantees plans fit device memory");
            }
            let mut slot_index = vec![u32::MAX; control.sessions.len()];
            for (si, e) in p.entries.iter().enumerate() {
                if slot_index[e.session.0 as usize] == u32::MAX {
                    slot_index[e.session.0 as usize] = si as u32;
                }
            }
            let slots = p
                .entries
                .iter()
                .map(|e| {
                    let session = &control.sessions[e.session.0 as usize];
                    // Containers size batches by the latency they observe
                    // when running alone (they cannot predict peer
                    // activity); the *execution* pays for whatever peers
                    // are actually concurrent; *timing* decisions hedge for
                    // the worst case. Coordinated backends never interfere,
                    // so sizing, timing, and execution agree.
                    let exec = session.exec_profile.clone();
                    let k = p.entries.len();
                    let (timing, gather_limit, reserve) = if system.coordinated {
                        let own = e.exec_latency;
                        (exec.clone(), p.duty_cycle, p.duty_cycle.saturating_sub(own))
                    } else {
                        (
                            system.interference.stretched_profile(&exec, k).into(),
                            p.duty_cycle.min(session.budget / 2),
                            Micros::ZERO,
                        )
                    };
                    Slot {
                        session: e.session,
                        target_batch: e.batch.max(1),
                        gather_limit,
                        reserve,
                        timing,
                        // The squishy-planned batch is materialised as a
                        // rung so the slot's operating shape is compiled:
                        // full pulls run exactly the planned size instead
                        // of padding up to the next power of two.
                        ladder: BatchLadder::from_profile(&exec).with_rung(e.batch.max(1), &exec),
                        profile: exec,
                        queue: SessionQueue::new(),
                        busy: false,
                        jitter_state: (bi as u64) << 32 | e.session.0 as u64,
                        rotation: Box::default(),
                    }
                })
                .collect();
            // Stagger backend start phases across one duty cycle:
            // replicas of a saturated session otherwise phase-lock and dump
            // synchronized downstream bursts every cycle.
            let stagger = Micros::from_micros(p.duty_cycle.as_micros() * li as u64 / n);
            backends.push(Backend {
                slots,
                cursor: 0,
                busy: false,
                available_at: stagger,
                armed_wake: Micros::MAX,
                slot_index,
                gpu,
            });
        }
    }
    backends
}

/// One weighted-round-robin route per session. Target `i` starts with a
/// credit of `-i * 1e-6`: it only decides otherwise exact credit ties, and
/// every pinned determinism fingerprint was taken with the pick order it
/// produces.
fn build_routes(control: &ControlPlan) -> Vec<Route> {
    control
        .routes
        .iter()
        .map(|targets| Route {
            targets: targets
                .iter()
                .enumerate()
                .map(|(i, t)| RouteTargetState {
                    backend: t.backend,
                    weight: t.weight,
                    credit: -(i as f64) * 1e-6,
                })
                .collect(),
            total: targets.iter().map(|t| t.weight).sum(),
        })
        .collect()
}

/// Indexes sessions by (class, stage) for request routing.
fn index_sessions(classes: &[TrafficClass], control: &ControlPlan) -> Vec<Vec<Vec<SessionId>>> {
    let mut idx: Vec<Vec<Vec<SessionId>>> = classes
        .iter()
        .map(|c| vec![Vec::new(); c.app.stages.len()])
        .collect();
    for s in &control.sessions {
        idx[s.class][s.stage].push(s.id);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use nexus_profile::GPU_GTX1080TI;
    use nexus_workload::{apps, ArrivalKind};

    fn sim(system: SystemConfig, rate: f64, gpus: u32, seed: u64) -> SimResult {
        let classes = vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            rate,
        )];
        ClusterSim::new(
            SimConfig {
                system: system.with_static_allocation(),
                device: GPU_GTX1080TI,
                max_gpus: gpus,
                seed,
                horizon: Micros::from_secs(20),
                warmup: Micros::from_secs(5),
                trace_capacity: 0,
                faults: vec![],
            },
            classes,
        )
        .run()
    }

    #[test]
    fn nexus_serves_moderate_load_cleanly() {
        let r = sim(SystemConfig::nexus(), 100.0, 16, 1);
        assert!(
            r.queries_finished > 1_000,
            "finished={}",
            r.queries_finished
        );
        assert!(
            r.query_bad_rate < 0.01,
            "bad rate {} too high",
            r.query_bad_rate
        );
        // Goodput ≈ offered rate.
        assert!(
            (r.query_goodput - 100.0).abs() / 100.0 < 0.05,
            "goodput={}",
            r.query_goodput
        );
    }

    #[test]
    fn overload_is_shed_not_hidden() {
        // Far beyond 2 GPUs' capacity: bad rate must rise substantially.
        let r = sim(SystemConfig::nexus(), 2_000.0, 2, 2);
        assert!(
            r.query_bad_rate > 0.3,
            "expected heavy shedding, got {}",
            r.query_bad_rate
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = sim(SystemConfig::nexus(), 150.0, 16, 7);
        let b = sim(SystemConfig::nexus(), 150.0, 16, 7);
        assert_eq!(a.queries_finished, b.queries_finished);
        assert_eq!(a.query_bad_rate, b.query_bad_rate);
        assert_eq!(a.metrics.bad_rate(), b.metrics.bad_rate());
    }

    #[test]
    fn nexus_outperforms_clipper_baseline() {
        // At a load Nexus handles cleanly, the Clipper-like baseline (lazy
        // drop, interfering containers, serialized CPU) degrades.
        let rate = 260.0;
        let nexus = sim(SystemConfig::nexus(), rate, 8, 3);
        let clipper = sim(SystemConfig::clipper(), rate, 8, 3);
        assert!(
            nexus.query_bad_rate < clipper.query_bad_rate + 1e-9,
            "nexus {} vs clipper {}",
            nexus.query_bad_rate,
            clipper.query_bad_rate
        );
        assert!(nexus.query_goodput >= clipper.query_goodput * 0.99);
    }

    #[test]
    fn epoch_loop_adapts_to_rate_increase() {
        // Start under-provisioned estimate, workload triples mid-run; the
        // epoch controller must grow the allocation.
        let classes = vec![
            TrafficClass::new(apps::traffic(), ArrivalKind::Poisson, 60.0)
                .with_modulation(vec![(Micros::ZERO, 1.0), (Micros::from_secs(30), 3.0)]),
        ];
        let result = ClusterSim::new(
            SimConfig {
                system: SystemConfig::nexus().with_epoch(Micros::from_secs(10)),
                device: GPU_GTX1080TI,
                max_gpus: 32,
                seed: 5,
                horizon: Micros::from_secs(90),
                warmup: Micros::from_secs(10),
                trace_capacity: 0,
                faults: vec![],
            },
            classes,
        )
        .run();
        let tl = result.metrics.timeline();
        let early = tl[25].gpus_allocated;
        let late = tl[70].gpus_allocated;
        assert!(
            late > early,
            "allocation should grow with load: {early} -> {late}"
        );
        // After adaptation the system still serves most queries.
        assert!(
            result.query_bad_rate < 0.15,
            "bad={}",
            result.query_bad_rate
        );
    }

    /// A faulted run: 16 GPUs at a load Nexus handles cleanly, static
    /// allocation (recovery must work out-of-band, without the epoch
    /// loop).
    fn faulted_sim(faults: Vec<FaultSpec>, seed: u64) -> SimResult {
        let classes = vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            100.0,
        )];
        ClusterSim::new(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: GPU_GTX1080TI,
                max_gpus: 16,
                seed,
                horizon: Micros::from_secs(20),
                warmup: Micros::from_secs(5),
                trace_capacity: 0,
                faults,
            },
            classes,
        )
        .run()
    }

    #[test]
    fn crash_is_detected_and_goodput_recovers() {
        let fault_at = Micros::from_secs(10);
        let r = faulted_sim(
            vec![FaultSpec {
                at: fault_at,
                slot: 0,
                kind: FaultKind::Crash,
            }],
            11,
        );
        let failures = r.metrics.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].gpu, 0);
        // k = 3 misses at 100 ms polls: declared dead within ~400 ms.
        let ttd = failures[0].time_to_detect().expect("detected");
        assert!(
            ttd <= Micros::from_millis(400),
            "detection took {ttd}, expected within 4 heartbeat intervals"
        );
        // Goodput returns to ≥ 95% of the pre-fault level quickly: the
        // emergency replan runs at detection, not at the next epoch.
        let baseline = r.metrics.goodput(Micros::from_secs(5), fault_at);
        let recovery = r
            .metrics
            .goodput_recovery_time(fault_at, baseline, 0.95)
            .expect("goodput must recover");
        assert!(
            recovery <= Micros::from_secs(5),
            "recovery took {recovery} (baseline {baseline:.1} req/s)"
        );
        // Losing 1 of 16 GPUs at moderate load must not wreck the run.
        assert!(r.query_bad_rate < 0.1, "bad={}", r.query_bad_rate);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let faults = || {
            vec![
                FaultSpec {
                    at: Micros::from_secs(6),
                    slot: 0,
                    kind: FaultKind::Crash,
                },
                FaultSpec {
                    at: Micros::from_secs(7),
                    slot: 1,
                    kind: FaultKind::Slowdown {
                        factor: 2.0,
                        duration: Micros::from_secs(3),
                    },
                },
                FaultSpec {
                    at: Micros::from_secs(8),
                    slot: 2,
                    kind: FaultKind::Stall {
                        duration: Micros::from_secs(1),
                    },
                },
                FaultSpec {
                    at: Micros::from_secs(14),
                    slot: 0,
                    kind: FaultKind::Rejoin,
                },
            ]
        };
        let a = faulted_sim(faults(), 7);
        let b = faulted_sim(faults(), 7);
        assert_eq!(a.queries_finished, b.queries_finished);
        assert_eq!(a.query_bad_rate, b.query_bad_rate);
        assert_eq!(a.metrics.bad_rate(), b.metrics.bad_rate());
        assert_eq!(a.metrics.failures(), b.metrics.failures());
        assert_eq!(a.metrics.timeline(), b.metrics.timeline());
    }

    /// [`faulted_sim`] with a custom system config and trace capture.
    fn faulted_sim_traced(
        system: SystemConfig,
        faults: Vec<FaultSpec>,
        seed: u64,
        horizon_s: u64,
    ) -> SimResult {
        let classes = vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            100.0,
        )];
        ClusterSim::new(
            SimConfig {
                system,
                device: GPU_GTX1080TI,
                max_gpus: 16,
                seed,
                horizon: Micros::from_secs(horizon_s),
                warmup: Micros::from_secs(5),
                trace_capacity: 1 << 20,
                faults,
            },
            classes,
        )
        .run()
    }

    fn count_reallocations(r: &SimResult) -> usize {
        r.trace
            .as_ref()
            .expect("traced run")
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reallocation { .. }))
            .count()
    }

    #[test]
    fn network_faults_inject_heal_and_trace() {
        // A connection drop that heals before detection, a slow-loris
        // stretch that never trips detection, and a heartbeat delay long
        // enough to cause a false-positive death on a healthy backend.
        let r = faulted_sim_traced(
            SystemConfig::nexus().with_static_allocation(),
            vec![
                FaultSpec {
                    at: Micros::from_secs(8),
                    slot: 0,
                    kind: FaultKind::ConnDrop {
                        duration: Micros::from_millis(150),
                    },
                },
                FaultSpec {
                    at: Micros::from_secs(9),
                    slot: 1,
                    kind: FaultKind::SlowLoris {
                        factor: 3.0,
                        duration: Micros::from_secs(2),
                    },
                },
                FaultSpec {
                    at: Micros::from_secs(12),
                    slot: 2,
                    kind: FaultKind::HeartbeatDelay {
                        duration: Micros::from_secs(1),
                    },
                },
            ],
            17,
            20,
        );
        let trace = r.trace.as_ref().expect("traced");
        let kinds: Vec<FaultKind> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Fault { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::ConnDrop { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::SlowLoris { .. })));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, FaultKind::HeartbeatDelay { .. })));
        // The 150 ms drop spans at most two 100 ms polls: never declared.
        let f0 = r.metrics.failures().iter().find(|f| f.gpu == 0).unwrap();
        assert_eq!(f0.detected_at, None, "conn drop healed before detection");
        // The 1 s heartbeat delay crosses the 3-miss threshold: a false-
        // positive death, then the slot rejoins when beats resume.
        let f2 = r.metrics.failures().iter().find(|f| f.gpu == 2).unwrap();
        assert!(
            f2.detected_at.is_some(),
            "heartbeat delay must trip detection"
        );
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Rejoin { gpu: 2, .. })),
            "muted slot rejoins when its beats resume"
        );
        // Degraded-but-serving cluster: the run still mostly meets SLOs.
        assert!(r.query_bad_rate < 0.15, "bad={}", r.query_bad_rate);
    }

    #[test]
    fn flapping_rejoins_are_rate_limited_by_cooldown() {
        // Slot 0 flaps: crash/rejoin on a 2 s period. Without a cooldown
        // every rejoin triggers an emergency re-pack; with one, rejoin
        // re-packs collapse to at most one per cooldown window.
        let flaps = || {
            let mut f = Vec::new();
            for (i, t) in [(0u64, 6u64), (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)] {
                f.push(FaultSpec {
                    at: Micros::from_secs(t),
                    slot: 0,
                    kind: if i % 2 == 0 {
                        FaultKind::Crash
                    } else {
                        FaultKind::Rejoin
                    },
                });
            }
            f
        };
        let free = faulted_sim_traced(
            SystemConfig::nexus().with_static_allocation(),
            flaps(),
            23,
            20,
        );
        let limited = faulted_sim_traced(
            SystemConfig::nexus()
                .with_static_allocation()
                .with_rejoin_cooldown(Micros::from_secs(5)),
            flaps(),
            23,
            20,
        );
        let free_swaps = count_reallocations(&free);
        let limited_swaps = count_reallocations(&limited);
        assert!(
            limited_swaps < free_swaps,
            "cooldown must reduce deployment swaps ({limited_swaps} vs {free_swaps})"
        );
        // Deaths still re-pack immediately — the first crash's emergency
        // replan is never deferred.
        let first_detect = limited
            .metrics
            .failures()
            .iter()
            .filter_map(|f| f.detected_at)
            .min()
            .expect("first crash detected");
        assert!(first_detect <= Micros::from_secs(6) + Micros::from_millis(500));
        // The deferred re-pack eventually runs: the rejoined slot serves
        // again and goodput survives the flapping.
        assert!(
            limited.query_bad_rate < 0.2,
            "bad={}",
            limited.query_bad_rate
        );
    }

    #[test]
    fn short_stall_clears_before_detection() {
        // A 150 ms stall spans at most two 100 ms heartbeat polls — below
        // the 3-miss threshold, so the controller never declares death and
        // no replan happens.
        let r = faulted_sim(
            vec![FaultSpec {
                at: Micros::from_secs(8),
                slot: 0,
                kind: FaultKind::Stall {
                    duration: Micros::from_millis(150),
                },
            }],
            13,
        );
        assert_eq!(r.metrics.failures().len(), 1);
        assert_eq!(r.metrics.failures()[0].detected_at, None);
        assert!(r.query_bad_rate < 0.05, "bad={}", r.query_bad_rate);
    }

    #[test]
    fn fault_slot_out_of_range_is_a_typed_error() {
        let classes = vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            50.0,
        )];
        let err = ClusterSim::try_new(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: GPU_GTX1080TI,
                max_gpus: 4,
                seed: 1,
                horizon: Micros::from_secs(5),
                warmup: Micros::from_secs(1),
                trace_capacity: 0,
                faults: vec![FaultSpec {
                    at: Micros::from_secs(1),
                    slot: 9,
                    kind: FaultKind::Crash,
                }],
            },
            classes,
        )
        .err()
        .expect("out-of-range fault slot must be rejected");
        assert_eq!(
            err,
            crate::control::PlanError::FaultSlot {
                slot: 9,
                max_gpus: 4
            }
        );
    }

    #[test]
    fn single_stage_app_without_children_completes() {
        // game has a two-stage tree; use a pruned single-stage app to cover
        // the no-children path.
        let mut app = apps::game();
        app.stages[0].children.clear();
        app.stages.truncate(1);
        let classes = vec![TrafficClass::new(app, ArrivalKind::Uniform, 500.0)];
        let r = ClusterSim::new(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: GPU_GTX1080TI,
                max_gpus: 8,
                seed: 9,
                horizon: Micros::from_secs(10),
                warmup: Micros::from_secs(2),
                trace_capacity: 0,
                faults: vec![],
            },
            classes,
        )
        .run();
        assert!(r.queries_finished > 3_000);
        assert!(r.query_bad_rate < 0.02, "bad={}", r.query_bad_rate);
    }

    #[test]
    fn heterogeneous_fleet_serves_within_slo() {
        let pools = [GPU_GTX1080TI, nexus_profile::GPU_K80]
            .map(|device| DevicePool { device, gpus: 8 })
            .to_vec();
        let classes = vec![
            TrafficClass::new(apps::game(), ArrivalKind::Uniform, 600.0),
            TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, 60.0),
            TrafficClass::new(apps::dance(), ArrivalKind::Uniform, 20.0),
        ];
        let r = ClusterSim::try_new_pooled(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: pools[0].device,
                max_gpus: 0, // derived from the pools
                seed: 3,
                horizon: Micros::from_secs(12),
                warmup: Micros::from_secs(3),
                trace_capacity: 0,
                faults: vec![],
            },
            pools,
            classes,
        )
        .unwrap()
        .run();
        assert!(r.query_goodput > 500.0);
        assert!(
            r.query_bad_rate < 0.03,
            "fleet bad rate {}",
            r.query_bad_rate
        );
        // One rollup per pool, and at least one pool actually deployed.
        assert_eq!(r.pool_stats.len(), 2);
        assert!(r.pool_stats.iter().any(|p| p.backends > 0));
    }

    /// A slot with `reqs` queued as `(arrival, slack)` pairs in µs, built
    /// the way [`build_backends`] builds a coordinated one.
    fn slot_with(
        reqs: &[(u64, u64)],
        target: u32,
        gather_us: u64,
        reserve_us: u64,
        jitter_state: u64,
        busy: bool,
    ) -> Slot {
        let profile = nexus_profile::BatchingProfile::from_linear_ms(1.0, 8.0, 32);
        let mut arrivals = reqs.to_vec();
        arrivals.sort_by_key(|&(a, _)| a);
        let mut queue = SessionQueue::new();
        for (i, &(arrival, slack)) in arrivals.iter().enumerate() {
            queue.push(Request {
                id: RequestId(i as u64),
                session: SessionId(0),
                arrival: Micros::from_micros(arrival),
                deadline: Micros::from_micros(arrival + slack),
                query: None,
            });
        }
        let exec: SharedProfile = profile.clone().into();
        Slot {
            session: SessionId(0),
            target_batch: target,
            gather_limit: Micros::from_micros(gather_us),
            reserve: Micros::from_micros(reserve_us),
            timing: exec.clone(),
            profile: exec,
            ladder: BatchLadder::from_profile(&profile).with_rung(target, &profile),
            queue,
            busy,
            jitter_state,
            rotation: Box::default(),
        }
    }

    #[test]
    fn a_rotating_slot_advances_only_on_launched_batches() {
        let mut scratch = BatchPull::default();
        let (mut mbs, mut pool) = (Vec::new(), Vec::new());
        let mut inspect = |slot: &mut Slot, at: u64| {
            let at = Micros::from_micros(at);
            match inspect_slot(
                slot,
                at,
                DropPolicy::Early,
                false,
                &mut scratch,
                &mut mbs,
                &mut pool,
            ) {
                SlotDecision::Pulled { batch, .. } => Some(batch.len()),
                _ => None,
            }
        };
        // Five requests with a second of slack: the slot pulls its step,
        // 3, then 1, then waits for a third request to fill the next 3.
        let mut slot = slot_with(&[(0, 1_000_000); 5], 3, 1_000_000, 0, 0, false);
        slot.rotation = vec![3, 1].into();
        assert_eq!(inspect(&mut slot, 10), Some(3));
        assert_eq!(slot.target_batch, 1);
        assert_eq!(inspect(&mut slot, 10), Some(1));
        assert_eq!(slot.target_batch, 3);
        assert_eq!(inspect(&mut slot, 10), None);
        assert_eq!(slot.target_batch, 3);
        // A pull that only drops expired requests launches nothing, so the
        // rotation stays put.
        let mut slot = slot_with(&[(0, 1_000)], 2, 1_000_000, 0, 0, false);
        slot.rotation = vec![2, 1].into();
        assert_eq!(inspect(&mut slot, 5_000), Some(0));
        assert_eq!((slot.target_batch, &slot.rotation[..]), (2, &[2, 1][..]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// `ready_at` is the readiness rule `inspect_slot` acts on:
        /// `Some(now)` exactly when the slot pulls, `Some(f)` with `f > now`
        /// exactly when it answers `NotReady(f)`, `None` exactly when it
        /// skips. A slot that is not pulled is left as it was, and seen
        /// again at its ready time it pulls — so the wake `arm` schedules
        /// there launches.
        #[test]
        fn ready_at_is_the_rule_inspect_slot_pulls_on(
            reqs in proptest::prop::collection::vec((0u64..30_000, 1_000u64..300_000), 0..24),
            target in 1u32..33,
            gather_us in 0u64..200_000,
            reserve_us in 0u64..30_000,
            jitter_state in 0u64..u64::MAX,
            since_last_us in 0u64..60_000,
            busy in proptest::prop::bool::ANY,
            ladder_on in proptest::prop::bool::ANY,
            policy_idx in 0usize..4,
        ) {
            let policy = [
                DropPolicy::None,
                DropPolicy::Lazy,
                DropPolicy::Early,
                DropPolicy::Deprioritize,
            ][policy_idx];
            let mut slot = slot_with(&reqs, target, gather_us, reserve_us, jitter_state, busy);
            // Seen some time after the newest arrival, as a wake would.
            let last = reqs.iter().map(|&(a, _)| a).max().unwrap_or(0);
            let now = Micros::from_micros(last + since_last_us);
            let mut scratch = BatchPull::default();
            let mut mbs = Vec::new();
            let mut pool = Vec::new();
            let mut inspect = |slot: &mut Slot, at: Micros| {
                inspect_slot(slot, at, policy, ladder_on, &mut scratch, &mut mbs, &mut pool)
            };
            let ready = ready_at(&slot, now);
            let queued = slot.queue.len();
            match (ready, inspect(&mut slot, now)) {
                (None, SlotDecision::Skip) => {}
                (Some(t), SlotDecision::Pulled { .. }) => {
                    proptest::prop_assert_eq!(t, now);
                    proptest::prop_assert_ne!(slot.jitter_state, jitter_state);
                }
                (Some(t), SlotDecision::NotReady(f)) => {
                    proptest::prop_assert!(t == f && f > now, "ready {t:?}, NotReady({f:?})");
                    proptest::prop_assert_eq!(slot.queue.len(), queued);
                    proptest::prop_assert_eq!(slot.jitter_state, jitter_state);
                    proptest::prop_assert_eq!(ready_at(&slot, f), Some(f));
                    proptest::prop_assert!(
                        matches!(inspect(&mut slot, f), SlotDecision::Pulled { .. }),
                        "a wake at the ready time {f:?} does not pull"
                    );
                }
                (ready, _) => {
                    proptest::prop_assert!(false, "ready_at {ready:?} disagrees with inspect_slot");
                }
            }
        }
    }
}
