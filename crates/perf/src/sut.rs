//! The adapter: every call into the system under test is in this file.
//!
//! The harness may not be edited by the changes it judges, so it must not
//! pin code those changes are asked to delete. This file therefore keeps
//! to the surface ROADMAP items 2–3 say survives: the
//! `NexusCluster::builder()` chain (never `.shards()`/`.threads()`, never
//! a `SimConfig` literal), `plan_pooled`, `assign_plans`,
//! `squishy_bin_packing`, `lower_bound_gpus`, the two split DPs,
//! `BatchLadder`, `SessionQueue::{push, pull_into, pull_ladder_into}`,
//! `EventQueue::{push, pop}`, `ClusterMetrics::record_*`,
//! `ArrivalGen::next_arrival`, `find_prefix_groups`, the trace codec and
//! summary, the wire protocol, `spawn_frontend`/`spawn_backend`,
//! `RouteTable::pick` and `AdmissionGate::admit`. Not `plan`,
//! `place_classes`, `run_heterogeneous`, `run_once*`, `HeapEventQueue`,
//! `simulate_node`, `live` or the parallel-executor types.
//!
//! Operations that take nanoseconds are timed here, around the loop that
//! calls them, and returned as a [`Timed`]; everything slower is timed by
//! the caller around one call into this file.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use nexus::{max_rate_within, NexusCluster, ThroughputSearch};
use nexus_model::{find_prefix_groups, zoo};
use nexus_profile::{
    BatchLadder, BatchingProfile, DeviceType, Micros, GPU_GTX1080TI, GPU_K80, GPU_V100,
};
use nexus_runtime::{
    plan_pooled, BatchPull, ClusterMetrics, ControlPlan, DevicePool, DropPolicy, Request,
    RequestId, SessionQueue, SimResult, SystemConfig, TrafficClass,
};
use nexus_scheduler::{
    assign_plans, lower_bound_gpus, optimize_hetero_split, optimize_latency_split,
    squishy_bin_packing, GpuPlan, HeteroQueryDag, HeteroQueryStage, QueryDag, QueryStage,
    SessionId, SessionSpec, StageCandidate,
};
use nexus_serve::proto::{self, read_frame, write_frame};
use nexus_serve::{
    spawn_backend, spawn_frontend, AdmissionGate, BackendHandle, BackendRegistry, FrontendConfig,
    FrontendHandle, InstantModel, Msg, ProtoError, RegistryConfig, RouteTable, SessionSlo, Verdict,
};
use nexus_simgpu::EventQueue;
use nexus_workload::{all_apps, rng_for, ArrivalGen, ArrivalKind};

use crate::gen::{PackSession, TenantClass, DOOR_SESSIONS};

/// The JSON value the harness reads and writes its own files with — the
/// same one the trace codec measured below produces and consumes.
pub use nexus_obs::{parse_json, Json};

/// A timed loop: `ops` operations took `elapsed`.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Operations performed inside the timed section.
    pub ops: u64,
    /// Wall time of the timed section.
    pub elapsed: Duration,
}

impl Timed {
    /// Nanoseconds per operation.
    pub fn ns_per_op(self) -> f64 {
        self.elapsed.as_nanos() as f64 / self.ops.max(1) as f64
    }
}

fn timed(ops: u64, start: Instant) -> Timed {
    Timed {
        ops,
        elapsed: start.elapsed(),
    }
}

// ---------------------------------------------------------------- simulator

/// Epoch length of the Fig. 13 deployment, seconds.
pub const SIM_EPOCH_SECS: u64 = 30;

/// One Fig. 13 deployment run: `scale` × the base rates on `gpus` K80s.
#[derive(Debug, Clone, Copy)]
pub struct SimScenario {
    /// Fleet size.
    pub gpus: u32,
    /// Multiplier on every base rate (1.0 = the 100-GPU deployment).
    pub scale: f64,
    /// Simulated seconds measured.
    pub measured_secs: u64,
    /// Simulated seconds of warm-up before them.
    pub warmup_secs: u64,
}

impl SimScenario {
    /// Simulated seconds a run covers.
    pub fn horizon_secs(&self) -> u64 {
        self.measured_secs + self.warmup_secs
    }

    /// Times the control plane plans during a run.
    pub fn epochs(&self) -> u64 {
        self.horizon_secs() / SIM_EPOCH_SECS + 1
    }
}

/// What one simulation produced.
pub struct SimRun {
    /// Discrete events the engine processed.
    pub events: u64,
    /// Query-level bad rate in the measured window.
    pub bad_rate: f64,
    /// Good queries per simulated second.
    pub goodput_qps: f64,
    /// Mean GPUs allocated over the run.
    pub mean_gpus: f64,
    /// Queries that arrived in the measured window and finished.
    pub queries: u64,
    /// Requests that entered a session queue over the whole run.
    pub requests: u64,
    /// Requests the dispatcher dropped.
    pub dropped: u64,
    raw: SimResult,
}

fn sim_system() -> SystemConfig {
    SystemConfig::nexus()
        .with_epoch(Micros::from_secs(SIM_EPOCH_SECS))
        .with_spread_factor(1.4)
}

/// Runs the scenario through the cluster builder, capturing up to
/// `trace_capacity` trace events (0 = tracing off, the end-to-end setting).
pub fn simulate(sc: &SimScenario, seed: u64, trace_capacity: usize) -> SimRun {
    let mut builder = NexusCluster::builder()
        .system(sim_system())
        .device(GPU_K80)
        .gpus(sc.gpus)
        .seed(seed)
        .horizon_secs(sc.horizon_secs())
        .warmup_secs(sc.warmup_secs)
        .trace(trace_capacity);
    for class in fig13(sc).0 {
        builder = builder.traffic_class(class);
    }
    let raw = builder.simulate();
    let (requests, dropped) = raw
        .metrics
        .sessions()
        .fold((0, 0), |(a, d), (_, m)| (a + m.arrived, d + m.dropped));
    SimRun {
        events: raw.events_processed,
        bad_rate: raw.query_bad_rate,
        goodput_qps: raw.query_goodput,
        mean_gpus: raw.mean_gpus,
        queries: raw.queries_finished,
        requests,
        dropped,
        raw,
    }
}

/// Bad rate that marks the saturation knee in [`goodput_at_slo`]. The
/// paper's 1 % cannot be bisected on this deployment: its bad rate sits on
/// a floor set by epoch transitions, not load (1.0–1.1 % at every Fig. 13
/// scale from 0.26 to 2.0 over 300 s, 1.5–2.8 % up to scale 3.5 over
/// 120 s), and only climbs through 5 % where the fleet saturates.
const KNEE_BAD_RATE: f64 = 0.05;

/// The paper's headline, goodput at SLO: the highest offered query rate
/// the scenario's fleet serves before its bad rate passes
/// [`KNEE_BAD_RATE`], found by bisecting the Fig. 13 scale between 1 and 6
/// (`probes` simulations of `sc`).
pub fn goodput_at_slo(sc: &SimScenario, seed: u64, probes: u32) -> f64 {
    let search = ThroughputSearch {
        target_bad_rate: KNEE_BAD_RATE,
        lo: 1.0,
        hi: 6.0,
        iters: probes - 1,
    };
    let scale = max_rate_within(&search, |scale| {
        simulate(&SimScenario { scale, ..*sc }, seed, 0).bad_rate
    });
    let base: f64 = fig13(&SimScenario { scale: 1.0, ..*sc })
        .0
        .iter()
        .map(|c| c.rate)
        .sum();
    scale * base
}

/// Trace-codec timings over one captured run.
pub struct ObsTimes {
    /// Events in the capture.
    pub events: u64,
    /// `encode` + serialisation.
    pub encode: Duration,
    /// Parse + `decode`.
    pub decode: Duration,
    /// `summary::render`.
    pub summary: Duration,
}

/// Encodes, decodes and summarises `run`'s captured trace.
///
/// # Panics
///
/// Panics if `run` was simulated with tracing off or the file does not
/// round-trip: both are bugs in this harness or the codec, not outcomes.
pub fn obs_codec(run: &SimRun) -> ObsTimes {
    let trace = run.raw.trace.as_ref().expect("run captured a trace");
    let t = Instant::now();
    let mut text = String::new();
    nexus_obs::encode(trace.events(), run.raw.trace_truncated, None).write(&mut text);
    let encode = t.elapsed();
    let t = Instant::now();
    let file = nexus_obs::decode(&parse_json(&text).expect("own output parses"))
        .expect("own output decodes");
    let decode = t.elapsed();
    assert_eq!(file.events.len(), trace.events().len(), "lossy round trip");
    let t = Instant::now();
    let summary_len = nexus_obs::summary::render(&run.raw).len();
    let summary = t.elapsed();
    assert!(summary_len > 0, "empty summary");
    ObsTimes {
        events: file.events.len() as u64,
        encode,
        decode,
        summary,
    }
}

// ------------------------------------------------------------ control plane

/// Traffic classes in the system's own type.
pub struct Classes(Vec<TrafficClass>);

impl Classes {
    /// Number of classes.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// The Fig. 13 classes of a simulator scenario.
pub fn fig13(sc: &SimScenario) -> Classes {
    Classes(nexus::workloads::fig13_classes(
        Micros::from_secs(sc.horizon_secs()),
        sc.scale,
    ))
}

/// The 280 tenant classes: each Table 4 app with its tenant's SLO stretch.
pub fn tenant_classes(specs: &[TenantClass]) -> Classes {
    let apps = all_apps();
    Classes(
        specs
            .iter()
            .map(|t| {
                let mut app = apps[t.app].clone();
                app.slo = app.slo.scale(t.slo_mult);
                TrafficClass::new(app, ArrivalKind::Poisson, t.rate)
            })
            .collect(),
    )
}

/// A device class a fleet can hold.
#[derive(Debug, Clone, Copy)]
pub enum Device {
    /// NVIDIA V100.
    V100,
    /// NVIDIA GTX 1080Ti.
    Gtx1080Ti,
    /// NVIDIA K80.
    K80,
}

impl Device {
    fn device_type(self) -> DeviceType {
        match self {
            Device::V100 => GPU_V100,
            Device::Gtx1080Ti => GPU_GTX1080TI,
            Device::K80 => GPU_K80,
        }
    }
}

/// Device pools the planner places stages on.
pub struct Fleet {
    pools: Vec<DevicePool>,
    avail: Vec<u32>,
}

impl Fleet {
    /// A fleet of `(device, gpus)` pools, every slot available.
    pub fn new(pools: &[(Device, u32)]) -> Self {
        Fleet {
            pools: pools
                .iter()
                .map(|&(d, gpus)| DevicePool {
                    device: d.device_type(),
                    gpus,
                })
                .collect(),
            avail: pools.iter().map(|&(_, gpus)| gpus).collect(),
        }
    }
}

/// One epoch's control plan.
pub struct Plan(ControlPlan);

/// How a plan disposed of its sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Sessions in the plan.
    pub sessions: usize,
    /// Sessions hosted by at least one GPU plan.
    pub placed: usize,
    /// Sessions that are both hosted and listed infeasible, or neither —
    /// the silent outcomes the correctness gate counts as failures.
    pub unaccounted: usize,
}

impl Plan {
    /// GPUs the plan uses across all pools.
    pub fn gpus(&self) -> usize {
        self.0.gpu_count()
    }

    /// Checks every session is placed xor listed infeasible.
    pub fn placement(&self) -> Placement {
        let mut hosted = vec![false; self.0.sessions.len()];
        for e in self.0.iter_plans().flat_map(|p| &p.entries) {
            hosted[e.session.0 as usize] = true;
        }
        let mut out = Placement {
            sessions: hosted.len(),
            placed: 0,
            unaccounted: 0,
        };
        for s in &self.0.sessions {
            let placed = hosted[s.id.0 as usize];
            out.placed += usize::from(placed);
            out.unaccounted += usize::from(placed == self.0.is_infeasible(s.id));
        }
        out
    }

    /// The GPU plans in backend order, copied out so `assign` can be
    /// timed without the copy.
    pub fn gpu_plans(&self) -> GpuPlans {
        GpuPlans(self.0.iter_plans().cloned().collect())
    }

    /// The packer's input for this plan: one spec per session.
    pub fn pack_input(&self) -> PackInput {
        PackInput {
            specs: self
                .0
                .sessions
                .iter()
                .map(|s| SessionSpec::new(s.id, s.exec_profile.clone(), s.budget, s.est_rate))
                .collect(),
            memory: self.0.pools[0].device.memory_bytes,
        }
    }
}

/// A plan's GPU plans, flattened across pools.
pub struct GpuPlans(Vec<GpuPlan>);

/// Plans one epoch on `fleet`, told the classes ran at `observed` rates.
pub fn plan(classes: &Classes, fleet: &Fleet, observed: Option<&[f64]>) -> Result<Plan, String> {
    plan_pooled(
        &classes.0,
        &SystemConfig::nexus(),
        &fleet.pools,
        &fleet.avail,
        observed,
    )
    .map(Plan)
    .map_err(|e| e.to_string())
}

/// Maps `next` onto the backends `prev` occupies; returns the share of
/// session placements that need a model load.
pub fn assign(prev: &GpuPlans, next: &GpuPlans) -> f64 {
    let a = assign_plans(&prev.0, &next.0);
    let placements: usize = next.0.iter().map(|p| p.entries.len()).sum();
    a.model_loads as f64 / placements.max(1) as f64
}

/// Sessions for one squishy packing.
pub struct PackInput {
    specs: Vec<SessionSpec>,
    memory: u64,
}

impl PackInput {
    /// Sessions to pack.
    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

/// The synthetic packing set as packer input (K80 memory).
pub fn pack_input(sessions: &[PackSession]) -> PackInput {
    PackInput {
        specs: sessions
            .iter()
            .enumerate()
            .map(|(i, s)| {
                SessionSpec::new(
                    SessionId(i as u32),
                    BatchingProfile::from_linear_ms(s.alpha_ms, s.beta_ms, 64),
                    Micros::from_millis(s.slo_ms),
                    s.rate,
                )
            })
            .collect(),
        memory: GPU_K80.memory_bytes,
    }
}

/// What one packing produced.
#[derive(Debug, Clone, Copy)]
pub struct Packed {
    /// GPUs used.
    pub gpus: usize,
    /// Mean duty-cycle occupancy of those GPUs.
    pub mean_occupancy: f64,
    /// §7.4 lower bound ÷ GPUs used: useful over attempted.
    pub lb_ratio: f64,
}

/// One squishy bin packing.
pub fn pack(input: &PackInput) -> Packed {
    let alloc = squishy_bin_packing(&input.specs, input.memory);
    Packed {
        gpus: alloc.gpu_count(),
        mean_occupancy: alloc.mean_occupancy(),
        lb_ratio: lower_bound_gpus(&input.specs) / alloc.gpu_count().max(1) as f64,
    }
}

/// Segments the planner discretises a latency split into.
const SPLIT_SEGMENTS: u32 = 50;

fn stage_profile(model: &str, device: &DeviceType) -> BatchingProfile {
    let cfg = SystemConfig::nexus();
    nexus_profile::by_name(model)
        .expect("Table 4 apps name catalog models")
        .profile_on(device)
        .effective(cfg.overlap, cfg.cpu_workers)
}

/// The split DPs' inputs for a class list: the §6.2 DAGs on K80 profiles
/// and the device-class DAGs with one candidate per pool of `fleet`.
pub struct SplitInput {
    single: Vec<(QueryDag, Micros, f64)>,
    hetero: Vec<(HeteroQueryDag, Micros, f64)>,
}

/// Builds the DP inputs the way the planner does, minus its private
/// child-stage latency stretch (which changes values, not work).
pub fn split_input(classes: &Classes, fleet: &Fleet) -> SplitInput {
    let mut out = SplitInput {
        single: Vec::new(),
        hetero: Vec::new(),
    };
    for class in &classes.0 {
        let children = |s: &nexus_workload::AppStage| -> Vec<(usize, f64)> {
            s.children.iter().map(|&(c, g)| (c, g.mean())).collect()
        };
        let single = class
            .app
            .stages
            .iter()
            .map(|s| QueryStage {
                name: s.model.clone(),
                profile: stage_profile(&s.model, &GPU_K80),
                children: children(s),
            })
            .collect();
        let hetero = class
            .app
            .stages
            .iter()
            .map(|s| HeteroQueryStage {
                name: s.model.clone(),
                candidates: fleet
                    .pools
                    .iter()
                    .map(|p| StageCandidate {
                        class: p.device.name.to_string(),
                        profile: stage_profile(&s.model, &p.device),
                        price: p.device.hourly_price_usd,
                    })
                    .collect(),
                children: children(s),
            })
            .collect();
        let rate = class.rate.max(1.0);
        out.single
            .push((QueryDag::new(single), class.app.slo, rate));
        out.hetero
            .push((HeteroQueryDag::new(hetero), class.app.slo, rate));
    }
    out
}

/// Runs the §6.2 split DP over every class; returns how many were feasible.
pub fn split_dp(input: &SplitInput) -> usize {
    input
        .single
        .iter()
        .filter(|(dag, slo, rate)| {
            optimize_latency_split(dag, *slo, *rate, SPLIT_SEGMENTS).is_some()
        })
        .count()
}

/// Runs the device-class split DP over every class; returns how many were
/// feasible.
pub fn hetero_dp(input: &SplitInput) -> usize {
    input
        .hetero
        .iter()
        .filter(|(dag, slo, rate)| {
            optimize_hetero_split(dag, *slo, *rate, SPLIT_SEGMENTS).is_some()
        })
        .count()
}

/// Builds a ladder for each stage profile of `classes` (K80), `rounds` times.
pub fn ladder_build(classes: &Classes, rounds: u32) -> Timed {
    let profiles = class_profiles(classes);
    let t = Instant::now();
    let mut rungs = 0usize;
    for _ in 0..rounds {
        for p in &profiles {
            rungs += BatchLadder::from_profile(std::hint::black_box(p))
                .rungs()
                .len();
        }
    }
    std::hint::black_box(rungs);
    timed(u64::from(rounds) * profiles.len() as u64, t)
}

/// A fixed mix of rung lookups over the same ladders: for every batch
/// size `smallest_rung_geq`, and `largest_rung_within` at that rung's
/// latency.
pub fn ladder_lookup(classes: &Classes, rounds: u32) -> Timed {
    let ladders: Vec<BatchLadder> = class_profiles(classes)
        .iter()
        .map(BatchLadder::from_profile)
        .collect();
    let t = Instant::now();
    let (mut ops, mut acc) = (0u64, 0u64);
    for _ in 0..rounds {
        for ladder in &ladders {
            for n in 1..=ladder.max_rung() {
                let (rung, latency) = ladder.smallest_rung_geq(std::hint::black_box(n));
                let within = ladder.largest_rung_within(latency);
                acc += u64::from(rung) + within.map_or(0, |(r, _)| u64::from(r));
                ops += 2;
            }
        }
    }
    std::hint::black_box(acc);
    timed(ops, t)
}

fn class_profiles(classes: &Classes) -> Vec<BatchingProfile> {
    classes
        .0
        .iter()
        .flat_map(|c| &c.app.stages)
        .map(|s| stage_profile(&s.model, &GPU_K80))
        .collect()
}

/// One `find_prefix_groups` call over 32 specialised ResNet-50 variants.
pub fn prefix_groups() -> Timed {
    let base = zoo::resnet50();
    let variants: Vec<_> = (1..=32u64)
        .map(|v| base.specialize(format!("v{v}"), 1 + (v % 3) as usize, v))
        .collect();
    let refs: Vec<_> = variants.iter().collect();
    let t = Instant::now();
    let groups = find_prefix_groups(std::hint::black_box(&refs));
    let out = timed(1, t);
    assert!(!groups.is_empty(), "variants share a prefix");
    out
}

// --------------------------------------------------------------- data plane

/// Pop-then-push churn on an [`EventQueue`] holding `standing` events;
/// with `far`, one push in eight lands ~2³⁵ µs out (calendar overflow).
pub fn event_queue_churn(standing: u64, ops: u64, far: bool) -> Timed {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..standing {
        q.push(Micros::from_micros((i * 7919) % 1_000_000 + 1_000_000), i);
    }
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..ops {
        let (at, v) = q.pop().expect("standing population");
        acc = acc.wrapping_add(v);
        let delta = (i * 104_729) % 500_000 + if far && i % 8 == 0 { 1 << 35 } else { 1 };
        q.push(at + Micros::from_micros(delta), i);
    }
    let out = timed(ops, t);
    std::hint::black_box(acc);
    out
}

/// Which pull the data plane makes.
#[derive(Debug, Clone, Copy)]
pub enum Pull {
    /// `pull_ladder_into` under early drop — the Nexus data plane.
    LadderEarly,
    /// `pull_into` under lazy drop — the Clipper-style use of the queue.
    Lazy,
}

/// Pulls once from each of `queues` fresh queues `depth` deep; ops are
/// requests the pulls disposed of (batched or dropped). Below 1 000 deep
/// nothing has expired; from there the pull lands mid-backlog with half
/// the queue already doomed, the overload regime.
pub fn queue_pull(depth: u64, queues: usize, pull: Pull) -> Timed {
    let profile = BatchingProfile::from_linear_ms(1.0, 10.0, 32);
    let ladder = BatchLadder::from_profile(&profile);
    let mut qs: Vec<SessionQueue> = (0..queues)
        .map(|_| {
            let mut q = SessionQueue::new();
            for i in 0..depth {
                q.push(Request {
                    id: RequestId(i),
                    session: SessionId(0),
                    arrival: Micros::from_micros(i * 500),
                    deadline: Micros::from_micros(i * 500 + 100_000),
                    query: None,
                });
            }
            q
        })
        .collect();
    let now = if depth >= 1_000 {
        Micros::from_micros(depth * 250 + 40_000)
    } else {
        Micros::from_micros(depth * 500)
    };
    let mut out = BatchPull::default();
    let mut minis = Vec::new();
    let mut ops = 0u64;
    let t = Instant::now();
    for q in &mut qs {
        match pull {
            Pull::LadderEarly => q.pull_ladder_into(
                now,
                16,
                Micros::MAX,
                &profile,
                &ladder,
                DropPolicy::Early,
                Micros::ZERO,
                &mut out,
                &mut minis,
            ),
            Pull::Lazy => q.pull_into(now, 16, &profile, DropPolicy::Lazy, Micros::ZERO, &mut out),
        }
        ops += (out.batch.len() + out.dropped.len()) as u64;
    }
    timed(ops, t)
}

/// `record_arrival` + `record_completion` pairs over `sessions` sessions
/// and a 300 s timeline.
pub fn metrics_record(sessions: u32, pairs: u64) -> Timed {
    let mut m = ClusterMetrics::new(Micros::from_secs(1));
    let t = Instant::now();
    for i in 0..pairs {
        let session = SessionId((i % u64::from(sessions)) as u32);
        let arrival = Micros::from_micros(i * 300 % 300_000_000);
        m.record_arrival(session, arrival);
        m.record_completion(
            session,
            arrival,
            arrival + Micros::from_millis(20),
            i % 64 != 0,
        );
    }
    let out = timed(pairs, t);
    std::hint::black_box(m.bad_rate());
    out
}

/// `next_arrival` calls on a Poisson generator under the Fig. 13 ramp.
pub fn arrivals_next(seed: u64, calls: u64) -> Timed {
    let horizon = Micros::from_secs(1 << 30);
    let ramp = [1.0, 1.25, 1.5, 1.25, 1.0]
        .into_iter()
        .enumerate()
        .map(|(i, f)| (Micros::from_secs(60 * i as u64), f))
        .collect();
    let mut gen = ArrivalGen::new(ArrivalKind::Poisson, 1_600.0).with_modulation(ramp);
    let mut rng = rng_for(seed, 0);
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..calls {
        acc ^= gen
            .next_arrival(horizon, &mut rng)
            .expect("horizon not reached")
            .as_micros();
    }
    let out = timed(calls, t);
    std::hint::black_box(acc);
    out
}

// --------------------------------------------------------------- front door

/// Deadline budget every door request carries.
pub const DOOR_BUDGET: Duration = Duration::from_millis(250);

fn door_slo() -> SessionSlo {
    // As soak.rs: generous next to InstantModel, so the gate trips only on
    // real overload.
    SessionSlo {
        slo: Micros::from_micros(DOOR_BUDGET.as_micros() as u64),
        ell_min: Micros::from_micros(200),
        ell_b: Micros::from_micros(400),
        batch: 32,
    }
}

fn submit_msg(request: u64, session: u32) -> Msg {
    Msg::Submit {
        request,
        session,
        budget_us: DOOR_BUDGET.as_micros() as u64,
    }
}

/// Encodes `ops` submits into one reused buffer.
pub fn proto_encode(ops: u64) -> Timed {
    let mut buf = Vec::with_capacity(64);
    let mut acc = 0usize;
    let t = Instant::now();
    for i in 0..ops {
        proto::encode(std::hint::black_box(&submit_msg(i, 0)), &mut buf);
        acc += buf.len();
    }
    let out = timed(ops, t);
    std::hint::black_box(acc);
    out
}

/// Decodes one encoded submit `ops` times.
pub fn proto_decode(ops: u64) -> Timed {
    let mut buf = Vec::new();
    proto::encode(&submit_msg(7, 0), &mut buf);
    let mut ok = 0u64;
    let t = Instant::now();
    for _ in 0..ops {
        ok += u64::from(proto::decode(std::hint::black_box(&buf)).is_ok());
    }
    let out = timed(ops, t);
    assert_eq!(ok, ops, "own encoding decodes");
    out
}

/// `write_frame` into a buffer then `read_frame` back out of it.
pub fn proto_frame_roundtrip(ops: u64) -> Timed {
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    let mut ok = 0u64;
    let t = Instant::now();
    for i in 0..ops {
        buf.clear();
        write_frame(&mut buf, &submit_msg(i, 0)).expect("write to memory");
        ok += u64::from(read_frame(&mut buf.as_slice()).is_ok());
    }
    let out = timed(ops, t);
    assert_eq!(ok, ops, "own frames read back");
    out
}

/// `RouteTable::pick` over 2 sessions × 4 healthy backends.
pub fn route_pick(ops: u64) -> Timed {
    let backends: Vec<u32> = (0..4).collect();
    let table = RouteTable::new(1, vec![backends; DOOR_SESSIONS as usize]);
    let registry = BackendRegistry::new(4, RegistryConfig::default());
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..ops {
        let session = (i % u64::from(DOOR_SESSIONS)) as u32;
        acc += u64::from(
            table
                .pick(session, &registry, None)
                .expect("healthy replica"),
        );
    }
    let out = timed(ops, t);
    std::hint::black_box(acc);
    out
}

/// `AdmissionGate::admit` at a steady 1 000 req/s, far under the gate.
pub fn admission_admit(ops: u64) -> Timed {
    let mut gate = AdmissionGate::new(door_slo());
    let budget = door_slo().slo;
    let t = Instant::now();
    for i in 0..ops {
        let now = Micros::from_micros(i * 1_000);
        std::hint::black_box(gate.admit(now, now + budget));
    }
    let out = timed(ops, t);
    assert_eq!(gate.counters().0, ops, "under-limit arrivals are admitted");
    out
}

/// Backends behind the door.
pub const DOOR_BACKENDS: usize = 4;

/// A running front door with its loopback backends.
pub struct Door {
    frontend: FrontendHandle,
    backends: Vec<BackendHandle>,
}

/// Server-side counters at shutdown.
#[derive(Debug, Clone, Copy)]
pub struct DoorStats {
    /// Submits the frontend read.
    pub submitted: u64,
    /// Submits it answered `Completed`.
    pub completed: u64,
    /// Submits it answered with a drop.
    pub dropped: u64,
    /// Completions that needed a second backend.
    pub retried: u64,
    /// Completions that overran their budget (must be 0).
    pub budget_violations: u64,
    /// `submitted == completed + dropped`.
    pub accounted: bool,
    /// Requests the backends executed.
    pub executed: u64,
    /// Connection-handler threads joined at shutdown, frontend then backends.
    pub joined: (usize, usize),
}

impl Door {
    /// Spawns the frontend and backends and pushes epoch 1 (every session
    /// on every backend) over the wire.
    pub fn start() -> io::Result<Door> {
        let backends: Vec<BackendHandle> = (0..DOOR_BACKENDS)
            .map(|_| spawn_backend(InstantModel))
            .collect::<io::Result<_>>()?;
        let frontend = spawn_frontend(FrontendConfig {
            backends: backends.iter().map(|b| b.addr).collect(),
            registry: RegistryConfig::default(),
            sunset_grace: Micros::from_secs(1),
            slos: vec![door_slo(); DOOR_SESSIONS as usize],
        })?;
        let door = Door { frontend, backends };
        let proto_err = |e: ProtoError| io::Error::other(e.to_string());
        let mut conn = TcpStream::connect(door.addr())?;
        conn.set_read_timeout(Some(Duration::from_secs(10)))?;
        write_frame(&mut conn, &Msg::EpochBegin { epoch: 1 }).map_err(proto_err)?;
        for session in 0..DOOR_SESSIONS {
            let route = Msg::EpochRoute {
                session,
                backends: (0..DOOR_BACKENDS as u32).collect(),
            };
            write_frame(&mut conn, &route).map_err(proto_err)?;
        }
        write_frame(&mut conn, &Msg::EpochCommit { epoch: 1 }).map_err(proto_err)?;
        match read_frame(&mut conn).map_err(proto_err)? {
            Msg::EpochAck { epoch: 1 } => Ok(door),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected the epoch-1 ack, got {other:?}"),
            )),
        }
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.frontend.addr
    }

    /// Where backend `i` listens.
    pub fn backend_addr(&self, i: usize) -> SocketAddr {
        self.backends[i].addr
    }

    /// Stops everything, joins every thread, returns the final counters.
    pub fn shutdown(self) -> DoorStats {
        let s = self.frontend.stats();
        let executed = self.backends.iter().map(BackendHandle::executed).sum();
        let joined = (
            self.frontend.shutdown(),
            self.backends.into_iter().map(BackendHandle::shutdown).sum(),
        );
        DoorStats {
            submitted: s.submitted,
            completed: s.completed,
            dropped: s.dropped(),
            retried: s.retried,
            budget_violations: s.budget_violations,
            accounted: s.accounted(),
            executed,
            joined,
        }
    }
}

/// A reply to one submit.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// The echoed request id.
    pub request: u64,
    /// Whether the verdict was `Completed`.
    pub completed: bool,
}

/// One persistent client connection to the door. The socket sets
/// `TCP_NODELAY` (the client's side only); frames go through
/// `write_frame`/`read_frame` unbatched, as any client's would.
pub struct DoorConn(TcpStream);

impl DoorConn {
    /// Connects to the door.
    pub fn connect(addr: SocketAddr) -> io::Result<DoorConn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(DoorConn(s))
    }

    /// Sends one submit for `session`.
    pub fn submit(&mut self, request: u64, session: u32) -> bool {
        write_frame(&mut self.0, &submit_msg(request, session)).is_ok()
    }

    /// Blocks until a reply's first byte is readable or `timeout` passes;
    /// `true` if a reply is waiting.
    pub fn wait_readable(&mut self, timeout: Duration) -> bool {
        self.0
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .is_ok()
            && matches!(self.0.peek(&mut [0u8; 1]), Ok(1))
    }

    /// Reads one reply, waiting at most `timeout` for it to start.
    /// `Ok(None)` = nothing arrived in time; `Err` = the connection is
    /// broken or spoke out of turn.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<Reply>, String> {
        self.0
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| e.to_string())?;
        match read_frame(&mut self.0) {
            Ok(Msg::Done {
                request, verdict, ..
            }) => Ok(Some(Reply {
                request,
                completed: verdict == Verdict::Completed,
            })),
            Err(ProtoError::Io(io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)) => Ok(None),
            Ok(other) => Err(format!("unexpected frame {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// [`DoorConn::recv`] for an open-loop sender: waits at most `timeout`
    /// and never blocks on a half-arrived frame. The door writes a frame's
    /// length prefix and payload separately, ~40 ms apart when Nagle holds
    /// the payload back; `read_frame` would sit out that gap and make the
    /// next scheduled send late. This polls (every 200 µs — socket
    /// timeouts tick in milliseconds) until the whole frame is buffered
    /// and only then reads it.
    pub fn recv_whole(&mut self, timeout: Duration) -> Result<Option<Reply>, String> {
        /// Length prefix plus more payload than any reply carries.
        const PEEK: usize = 4 + 60;
        const POLL: Duration = Duration::from_micros(200);
        let until = Instant::now() + timeout;
        let mut buf = [0u8; PEEK];
        self.0.set_nonblocking(true).map_err(|e| e.to_string())?;
        let whole = loop {
            match self.0.peek(&mut buf) {
                Ok(0) => break Err("the door closed the connection".to_string()),
                // Whole, or too long to be a reply: `read_frame` settles it.
                Ok(n)
                    if n >= 4 && {
                        let len = 4 + u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                        n >= len || len > PEEK
                    } =>
                {
                    break Ok(true)
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => break Err(e.to_string()),
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Ok(false);
            }
            std::thread::sleep(left.min(POLL));
        };
        self.0.set_nonblocking(false).map_err(|e| e.to_string())?;
        if whole? {
            self.recv(DOOR_BUDGET)
        } else {
            Ok(None)
        }
    }
}

/// One request straight to a backend the way the door dispatches it: a
/// fresh connection, `Exec` out, `ExecDone` back, close.
pub fn direct_exec(addr: SocketAddr, request: u64) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, DOOR_BUDGET) else {
        return false;
    };
    if stream.set_read_timeout(Some(DOOR_BUDGET)).is_err() {
        return false;
    }
    let exec = Msg::Exec {
        request,
        session: 0,
        cost_us: door_slo().ell_min.as_micros(),
    };
    write_frame(&mut stream, &exec).is_ok()
        && matches!(
            read_frame(&mut stream),
            Ok(Msg::ExecDone { request: r, ok: true }) if r == request
        )
}
