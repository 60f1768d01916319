//! The control plane: turns application traffic classes into schedulable
//! sessions and a routed deployment (§5, "epoch scheduling").
//!
//! Per epoch the global scheduler (1) splits each query's latency SLO
//! across its stages (§6.2), (2) merges specialized variants that share a
//! prefix and SLO into prefix-batched sessions (§6.3), and (3) runs squishy
//! bin packing (§6.1) to allocate GPUs. The output is a [`ControlPlan`]:
//! the session table, the GPU plans, and the routing table the frontends
//! consult.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use nexus_model::{zoo, PrefixPlan};
use nexus_profile::{BatchingProfile, DeviceType, Micros, SharedProfile};
use nexus_scheduler::{
    even_latency_split, optimize_hetero_split, optimize_latency_split, squishy_bin_packing,
    Allocation, GpuPlan, HeteroQueryDag, HeteroQueryStage, QueryDag, QueryStage, SessionId,
    SessionSpec, StageCandidate,
};

use nexus_workload::{AppSpec, ArrivalKind};

use crate::config::{SchedulerPolicy, SystemConfig};

/// Segments used to discretize latency-split DPs.
const SPLIT_SEGMENTS: u32 = 50;

/// Why the control plane could not produce a plan. These are user-input
/// errors (workload specs, fault schedules) — they must surface as typed
/// errors, not panics, so a typo in a workload JSON cannot abort the
/// process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A stage references a model absent from the profile catalog.
    UnknownModel {
        /// The unresolvable model name.
        model: String,
    },
    /// Prefix batching needs the model's layer schema, which the zoo does
    /// not have.
    UnknownSchema {
        /// The model whose schema is missing.
        model: String,
    },
    /// A fault spec targets a GPU slot outside the deployment.
    FaultSlot {
        /// The out-of-range slot.
        slot: usize,
        /// Fleet size the deployment was configured with.
        max_gpus: u32,
    },
    /// An operator-given plan is never re-planned, but the configuration
    /// asks for what would re-plan it.
    FixedPlan {
        /// The re-planning setting: `"system.epoch"` or `"faults"`.
        setting: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownModel { model } => {
                write!(f, "unknown model '{model}': not in the profile catalog")
            }
            PlanError::UnknownSchema { model } => write!(
                f,
                "model '{model}' has no layer schema in the zoo; prefix batching \
                 needs one"
            ),
            PlanError::FaultSlot { slot, max_gpus } => write!(
                f,
                "fault targets GPU slot {slot}, but the deployment has only \
                 {max_gpus} slots"
            ),
            PlanError::FixedPlan { setting } => write!(
                f,
                "an operator-given plan is never re-planned, but `{setting}` is set"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One stream of application queries offered to the cluster.
#[derive(Debug, Clone)]
pub struct TrafficClass {
    /// Display name.
    pub name: String,
    /// The application template (stages, γ, variants, SLO).
    pub app: AppSpec,
    /// Arrival process of root frames.
    pub arrival: ArrivalKind,
    /// Mean root request rate, req/s.
    pub rate: f64,
    /// Piecewise-constant rate modulation (`(from, factor)`).
    pub modulation: Vec<(Micros, f64)>,
}

impl TrafficClass {
    /// Wraps an application at a given offered rate.
    pub fn new(app: AppSpec, arrival: ArrivalKind, rate: f64) -> Self {
        TrafficClass {
            name: app.name.to_string(),
            app,
            arrival,
            rate,
            modulation: Vec::new(),
        }
    }

    /// Adds rate modulation.
    pub fn with_modulation(mut self, modulation: Vec<(Micros, f64)>) -> Self {
        self.modulation = modulation;
        self
    }
}

/// A session as the runtime executes it.
#[derive(Debug, Clone)]
pub struct RuntimeSession {
    /// Scheduler identity.
    pub id: SessionId,
    /// Owning traffic class (index into the class list).
    pub class: usize,
    /// Stage within the class's app.
    pub stage: usize,
    /// Variant index (0-based; always 0 for prefix-merged sessions).
    pub variant: u32,
    /// Number of variant-split siblings of this stage (1 if merged/single).
    pub variant_count: u32,
    /// Effective execution profile (CPU folded in; prefix-merged for PB),
    /// shared with the slots and session specs that execute it.
    pub exec_profile: SharedProfile,
    /// Per-invocation latency budget (the stage's SLO split).
    pub budget: Micros,
    /// Deadline offset from query arrival (prefix sum of budgets).
    pub deadline_offset: Micros,
    /// Estimated request rate used at the last scheduling round.
    pub est_rate: f64,
    /// Device pool this session is planned on (0 for homogeneous fleets).
    pub pool: usize,
}

/// Routing target: a backend hosting the session, with its planned share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteTarget {
    /// Backend (plan) index.
    pub backend: usize,
    /// Planned service rate on that backend (req/s), used as routing
    /// weight.
    pub weight: f64,
}

/// One device pool's slice of a deployment: the squishy allocation packed
/// against that pool's device class, plus where its backends sit in the
/// cluster-wide backend numbering.
#[derive(Debug, Clone)]
pub struct PoolPlan {
    /// Pool index (position in the planner's `DevicePool` list).
    pub pool: usize,
    /// Device class every GPU in this pool belongs to.
    pub device: DeviceType,
    /// Physical pool size in GPU slots (not the possibly-smaller replan
    /// cap when slots are dead).
    pub gpus: u32,
    /// Global backend index of this pool's first plan; pool `p`'s plans
    /// occupy backends `first_backend .. first_backend + plans.len()`.
    pub first_backend: usize,
    /// GPU plans from the per-pool squishy packing.
    pub allocation: Allocation,
}

/// Everything the data plane needs for one epoch.
#[derive(Debug, Clone)]
pub struct ControlPlan {
    /// Session table; `sessions[i].id == SessionId(i)`.
    pub sessions: Vec<RuntimeSession>,
    /// Per-pool GPU plans; homogeneous deployments have exactly one pool.
    pub pools: Vec<PoolPlan>,
    /// Routing table per session id (backend indices are cluster-global).
    pub routes: Vec<Vec<RouteTarget>>,
    /// Latency budgets per (class, stage) for inspection.
    pub budgets: Vec<Vec<Micros>>,
}

impl ControlPlan {
    /// Total GPUs allocated across every pool.
    pub fn gpu_count(&self) -> usize {
        self.pools.iter().map(|p| p.allocation.gpu_count()).sum()
    }

    /// All GPU plans in global backend order.
    pub fn iter_plans(&self) -> impl Iterator<Item = &GpuPlan> + '_ {
        self.pools.iter().flat_map(|p| p.allocation.plans.iter())
    }

    /// The plan deployed on a global backend index.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is out of range.
    pub(crate) fn plan_of(&self, backend: usize) -> &GpuPlan {
        let p = &self.pools[self.pool_of(backend)];
        &p.allocation.plans[backend - p.first_backend]
    }

    /// The pool a global backend index belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is out of range.
    pub(crate) fn pool_of(&self, backend: usize) -> usize {
        self.pools
            .iter()
            .position(|p| {
                backend >= p.first_backend && backend < p.first_backend + p.allocation.plans.len()
            })
            .expect("backend index within deployment")
    }

    /// Whether the scheduler declared a session infeasible in its pool.
    pub fn is_infeasible(&self, id: SessionId) -> bool {
        self.pools
            .iter()
            .any(|p| p.allocation.infeasible.contains(&id))
    }
}

/// Builds the session table for `classes` (static part: profiles, splits,
/// variants). `rates` overrides per-class root rates (e.g. observed rates
/// at an epoch boundary); pass `None` to use the spec rates.
///
/// # Errors
///
/// Returns [`PlanError`] if a stage names a model missing from the profile
/// catalog or (under prefix batching) the model zoo.
pub fn build_sessions(
    classes: &[TrafficClass],
    cfg: &SystemConfig,
    device: &DeviceType,
    rates: Option<&[f64]>,
) -> Result<(Vec<RuntimeSession>, Vec<Vec<Micros>>), PlanError> {
    let mut sessions = Vec::new();
    let mut all_budgets = Vec::new();
    let devices = [*device];
    let mut profiles = ProfileMemo::new(cfg, &devices);
    for (ci, class) in classes.iter().enumerate() {
        let root_rate = rates.map_or(class.rate, |r| r[ci]);
        let budgets = stage_budgets(class, &mut profiles, root_rate)?;
        let stage_pools = vec![0usize; class.app.stages.len()];
        build_class_sessions(
            &mut sessions,
            ci,
            class,
            &mut profiles,
            root_rate,
            &budgets,
            &stage_pools,
        )?;
        all_budgets.push(budgets);
    }
    Ok((sessions, all_budgets))
}

/// The profiles one planning call derives from the catalog, each built
/// once: classes share their apps' models (the benchmark's 280 tenant
/// classes name eight), and deriving a table — catalog → CPU folded in →
/// stretched or prefix-merged — costs more than one stage's share of the
/// split DP that reads it. Lives for one `plan` / `plan_pooled` call.
struct ProfileMemo<'a> {
    cfg: &'a SystemConfig,
    /// Device of each pool, indexed like the planner's pool list.
    devices: &'a [DeviceType],
    /// `(model, pool, non-root stage)` → the profile the split DPs plan on.
    split: HashMap<(&'a str, usize, bool), BatchingProfile>,
    /// `(model, pool, variants merged into the session)` → the profile the
    /// session executes; 1 for a session that serves a single variant.
    exec: HashMap<(&'a str, usize, u32), SharedProfile>,
}

impl<'a> ProfileMemo<'a> {
    fn new(cfg: &'a SystemConfig, devices: &'a [DeviceType]) -> Self {
        ProfileMemo {
            cfg,
            devices,
            split: HashMap::new(),
            exec: HashMap::new(),
        }
    }

    /// The effective profile of `model` on `pool`'s device as the split DPs
    /// see it: non-root stages are planned at [`CHILD_BURST_MARGIN`].
    fn split(
        &mut self,
        model: &'a str,
        pool: usize,
        child: bool,
    ) -> Result<&BatchingProfile, PlanError> {
        match self.split.entry((model, pool, child)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let mut profile = catalog_spec(model)?
                    .profile_on(&self.devices[pool])
                    .effective(self.cfg.overlap, self.cfg.cpu_workers);
                if child {
                    profile = stretch_profile(&profile, CHILD_BURST_MARGIN);
                }
                Ok(e.insert(profile))
            }
        }
    }

    /// The effective profile a session of `model` executes on `pool`'s
    /// device: prefix-merged over `merged` variants when that is above 1.
    fn exec(
        &mut self,
        model: &'a str,
        pool: usize,
        merged: u32,
    ) -> Result<SharedProfile, PlanError> {
        match self.exec.entry((model, pool, merged)) {
            Entry::Occupied(e) => Ok(e.get().clone()),
            Entry::Vacant(e) => {
                let mut profile = catalog_spec(model)?.profile_on(&self.devices[pool]);
                if merged > 1 {
                    let schema = zoo::by_name(model).ok_or_else(|| PlanError::UnknownSchema {
                        model: model.to_string(),
                    })?;
                    let plan = PrefixPlan::new(&schema, &profile, schema.num_layers() - 1);
                    profile = plan
                        .merged_profile(merged, profile.max_batch())
                        .with_preprocess(profile.preprocess_per_item())
                        .with_postprocess(profile.postprocess_per_item())
                        .with_load_time(profile.load_time());
                }
                let effective = profile.effective(self.cfg.overlap, self.cfg.cpu_workers);
                Ok(e.insert(effective.into()).clone())
            }
        }
    }
}

fn catalog_spec(model: &str) -> Result<&'static nexus_profile::ModelSpec, PlanError> {
    nexus_profile::by_name(model).ok_or_else(|| PlanError::UnknownModel {
        model: model.to_string(),
    })
}

/// Appends one class's sessions: each stage lands on `stage_pools[si]` and
/// its profile comes from that pool's device. The homogeneous path passes a
/// single device with every stage on pool 0.
fn build_class_sessions<'a>(
    sessions: &mut Vec<RuntimeSession>,
    ci: usize,
    class: &'a TrafficClass,
    profiles: &mut ProfileMemo<'a>,
    root_rate: f64,
    budgets: &[Micros],
    stage_pools: &[usize],
) -> Result<(), PlanError> {
    let offsets = deadline_offsets(&class.app, budgets);
    let stage_rates = class.app.stage_rates(root_rate);
    for (si, stage) in class.app.stages.iter().enumerate() {
        let pool = stage_pools[si];
        // A prefix-merged stage is one session over all its variants; an
        // unmerged one is a session per variant, each a share of the rate.
        let (variant_count, merged) = if profiles.cfg.prefix_batching && stage.variants > 1 {
            (1, stage.variants)
        } else {
            (stage.variants.max(1), 1)
        };
        let exec_profile = profiles.exec(&stage.model, pool, merged)?;
        for variant in 0..variant_count {
            sessions.push(RuntimeSession {
                id: SessionId(sessions.len() as u32),
                class: ci,
                stage: si,
                variant,
                variant_count,
                exec_profile: exec_profile.clone(),
                budget: budgets[si],
                deadline_offset: offsets[si],
                est_rate: stage_rates[si] / f64::from(variant_count),
                pool,
            });
        }
    }
    Ok(())
}

/// Splits a class's SLO across its stages (§6.2), falling back to an even
/// split when the optimizer finds no feasible plan or QA is ablated.
fn stage_budgets<'a>(
    class: &'a TrafficClass,
    profiles: &mut ProfileMemo<'a>,
    root_rate: f64,
) -> Result<Vec<Micros>, PlanError> {
    let dag = class_dag(class, profiles)?;
    if profiles.cfg.query_analysis {
        if let Some(split) =
            optimize_latency_split(&dag, class.app.slo, root_rate.max(1.0), SPLIT_SEGMENTS)
        {
            return Ok(split.budgets);
        }
    }
    Ok(even_latency_split(&dag, class.app.slo).budgets)
}

/// Latency stretch the split DP applies to non-root stages: their arrivals
/// come in parent-batch-sized clumps, so their queueing tail is roughly
/// twice the smooth-arrival worst case the DP would otherwise assume.
/// Planning them at 2× latency buys the burst margin.
const CHILD_BURST_MARGIN: f64 = 2.0;

/// The scheduler-facing DAG of a class (effective profiles, mean γ).
fn class_dag<'a>(
    class: &'a TrafficClass,
    profiles: &mut ProfileMemo<'a>,
) -> Result<QueryDag, PlanError> {
    let stages = class
        .app
        .stages
        .iter()
        .enumerate()
        .map(|(si, stage)| {
            Ok(QueryStage {
                name: stage.model.clone(),
                profile: profiles.split(&stage.model, 0, si > 0)?.clone(),
                children: stage.children.iter().map(|&(c, g)| (c, g.mean())).collect(),
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    Ok(QueryDag::new(stages))
}

/// Jointly splits a class's SLO and places each stage on a device pool.
/// Pools with estimated headroom get first refusal; if the DP cannot place
/// the class within them it widens to every non-empty pool, and if no
/// (pool, split) assignment is feasible it falls back to an even split with
/// each stage on the cheapest pool that can meet its share.
///
/// Per-stage outcome of the pooled split: latency budgets, pool indices,
/// and fractional-GPU demands, one entry per stage.
type StagePlacement = (Vec<Micros>, Vec<usize>, Vec<f64>);

/// Returns `(budgets, stage_pools, stage_gpus)`.
fn pooled_stage_plan<'a>(
    class: &'a TrafficClass,
    profiles: &mut ProfileMemo<'a>,
    pools: &[DevicePool],
    avail: &[u32],
    pool_load: &[f64],
    root_rate: f64,
) -> Result<StagePlacement, PlanError> {
    let all: Vec<usize> = (0..pools.len()).collect();
    if profiles.cfg.query_analysis {
        let open: Vec<usize> = (0..pools.len())
            .filter(|&pi| avail[pi] > 0 && pool_load[pi] < f64::from(avail[pi]))
            .collect();
        let usable: Vec<usize> = (0..pools.len()).filter(|&pi| avail[pi] > 0).collect();
        let mut tiers = vec![open, usable, all.clone()];
        tiers.dedup();
        for allowed in &tiers {
            if allowed.is_empty() {
                continue;
            }
            let dag = hetero_class_dag(class, profiles, pools, allowed)?;
            if let Some(split) =
                optimize_hetero_split(&dag, class.app.slo, root_rate.max(1.0), SPLIT_SEGMENTS)
            {
                let stage_pools: Vec<usize> = split.classes.iter().map(|&c| allowed[c]).collect();
                return Ok((split.budgets, stage_pools, split.stage_gpus));
            }
        }
    }
    // Fallback: even split; each stage goes to the cheapest pool that can
    // meet its share (else the highest-FLOPs pool, which misses by least).
    let budgets = even_budgets(&class.app);
    let mut by_price = all.clone();
    by_price.sort_by(|&a, &b| {
        pools[a]
            .device
            .hourly_price_usd
            .total_cmp(&pools[b].device.hourly_price_usd)
            .then(a.cmp(&b))
    });
    let fastest = all.iter().copied().fold(0usize, |best, pi| {
        if pools[pi].device.effective_tflops > pools[best].device.effective_tflops {
            pi
        } else {
            best
        }
    });
    let mut stage_pools = Vec::with_capacity(class.app.stages.len());
    for (si, stage) in class.app.stages.iter().enumerate() {
        let mut feasible = None;
        for &pi in &by_price {
            let profile = profiles.split(&stage.model, pi, si > 0)?;
            if profile.max_throughput_for_slo(budgets[si]).is_some() {
                feasible = Some(pi);
                break;
            }
        }
        stage_pools.push(feasible.unwrap_or(fastest));
    }
    let stage_gpus = vec![0.0; class.app.stages.len()];
    Ok((budgets, stage_pools, stage_gpus))
}

/// The even-split budgets of [`even_latency_split`] computed directly on an
/// app spec: every stage on the deepest path gets an equal share.
fn even_budgets(app: &AppSpec) -> Vec<Micros> {
    let n = app.stages.len();
    let mut below = vec![1usize; n];
    for u in (0..n).rev() {
        for (c, _) in &app.stages[u].children {
            below[u] = below[u].max(1 + below[*c]);
        }
    }
    let share = Micros::from_micros(app.slo.as_micros() / below[0] as u64);
    vec![share; n]
}

/// The heterogeneous scheduler-facing DAG of a class: one profile candidate
/// per allowed pool, priced at that pool's device hourly cost.
fn hetero_class_dag<'a>(
    class: &'a TrafficClass,
    profiles: &mut ProfileMemo<'a>,
    pools: &[DevicePool],
    allowed: &[usize],
) -> Result<HeteroQueryDag, PlanError> {
    let stages = class
        .app
        .stages
        .iter()
        .enumerate()
        .map(|(si, stage)| {
            let candidates = allowed
                .iter()
                .map(|&pi| {
                    Ok(StageCandidate {
                        class: pools[pi].device.name.to_string(),
                        profile: profiles.split(&stage.model, pi, si > 0)?.clone(),
                        price: pools[pi].device.hourly_price_usd,
                    })
                })
                .collect::<Result<Vec<_>, PlanError>>()?;
            Ok(HeteroQueryStage {
                name: stage.model.clone(),
                candidates,
                children: stage.children.iter().map(|&(c, g)| (c, g.mean())).collect(),
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    Ok(HeteroQueryDag::new(stages))
}

/// Scales every entry of a latency table by `factor`.
fn stretch_profile(p: &BatchingProfile, factor: f64) -> BatchingProfile {
    let mut lat: Vec<Micros> = (1..=p.max_batch())
        .map(|b| p.latency(b).scale(factor))
        .collect();
    nexus_profile::repair_table(&mut lat);
    BatchingProfile::new(lat).expect("scaled table stays valid")
}

/// Squishy packing spread over the available cluster: if the demand-sized
/// allocation leaves GPUs idle, the most-loaded plans are *replicated*
/// onto the spare GPUs (capped at 4× the demand-sized count). Replication
/// keeps every duty-cycle/SLO guarantee intact while splitting each
/// session's arrivals over more queues — burst headroom for free. At the
/// saturation point no GPUs are spare and this is plain squishy packing.
fn squishy_spread(
    specs: &[SessionSpec],
    gpu_memory: u64,
    max_gpus: u32,
    spread_factor: f64,
) -> Allocation {
    let mut alloc = squishy_bin_packing(specs, gpu_memory);
    let cap = (max_gpus as usize).min((alloc.gpu_count() as f64 * spread_factor).floor() as usize);
    if alloc.gpu_count() >= cap || alloc.plans.is_empty() {
        return alloc;
    }
    // Dense session numbering (the first spec wins a duplicated id), so
    // rates and replica counts are array reads instead of a scan over
    // `specs` per plan entry per replica added.
    let mut index: HashMap<SessionId, usize> = HashMap::with_capacity(specs.len());
    let mut rates: Vec<f64> = Vec::with_capacity(specs.len());
    for s in specs {
        index.entry(s.id).or_insert_with(|| {
            rates.push(s.rate);
            rates.len() - 1
        });
    }
    // Per plan, its entries' sessions in entry order; per session, the
    // replicas hosting it across all plans and which plans those are.
    let mut members: Vec<Vec<usize>> = alloc
        .plans
        .iter()
        .map(|p| p.entries.iter().map(|e| index[&e.session]).collect())
        .collect();
    let mut hosts = vec![0u32; rates.len()];
    let mut hosted_by: Vec<Vec<usize>> = vec![Vec::new(); rates.len()];
    for (i, sessions) in members.iter().enumerate() {
        for &s in sessions {
            hosts[s] += 1;
            hosted_by[s].push(i);
        }
    }
    // Offered load per replica of a plan, summed in entry order.
    let load = |sessions: &[usize], hosts: &[u32]| -> f64 {
        sessions
            .iter()
            .map(|&s| rates[s] / f64::from(hosts[s]))
            .sum()
    };
    let mut loads: Vec<f64> = members.iter().map(|m| load(m, &hosts)).collect();
    while alloc.plans.len() < cap {
        // Replicate the hottest plan (first of equals).
        let (mut best, mut best_load) = (0usize, -1.0f64);
        for (i, &l) in loads.iter().enumerate() {
            if l > best_load {
                best_load = l;
                best = i;
            }
        }
        let replica = alloc.plans.len();
        alloc.plans.push(alloc.plans[best].clone());
        members.push(members[best].clone());
        loads.push(0.0);
        for &s in &members[replica] {
            hosts[s] += 1;
            hosted_by[s].push(replica);
        }
        // Only plans sharing a session with the replica changed load; each
        // is re-summed from scratch so it is the f64 a full pass computes.
        for &s in &members[replica] {
            for &i in &hosted_by[s] {
                loads[i] = load(&members[i], &hosts);
            }
        }
    }
    alloc
}

/// Deadline offsets: the longest budget path from the root to each stage.
/// A multi-parent stage (diamond DAG) cannot start before its *slowest*
/// parent finishes, so its offset takes the max over parents — letting the
/// last-visited parent win would give the stage an impossibly early
/// deadline whenever parents have uneven budgets. Stages are visited in
/// index order, which the app specs keep topological.
fn deadline_offsets(app: &AppSpec, budgets: &[Micros]) -> Vec<Micros> {
    let mut offsets = vec![Micros::ZERO; app.stages.len()];
    offsets[0] = budgets[0];
    for (i, stage) in app.stages.iter().enumerate() {
        for &(c, _) in &stage.children {
            offsets[c] = offsets[c].max(offsets[i] + budgets[c]);
        }
    }
    offsets
}

/// Runs the configured scheduler and assembles the full [`ControlPlan`],
/// capping the allocation at `max_gpus` (highest-occupancy plans win; the
/// data plane drops traffic that lost its replicas — admission control).
///
/// # Errors
///
/// Returns [`PlanError`] when the traffic classes reference unknown models
/// (see [`build_sessions`]).
pub fn plan(
    classes: &[TrafficClass],
    cfg: &SystemConfig,
    device: &DeviceType,
    max_gpus: u32,
    rates: Option<&[f64]>,
) -> Result<ControlPlan, PlanError> {
    let (sessions, budgets) = build_sessions(classes, cfg, device, rates)?;
    let mut allocation = schedule_pool(&sessions, cfg, device, max_gpus, 0);
    cap_allocation(&mut allocation, max_gpus);
    let pools = vec![PoolPlan {
        pool: 0,
        device: *device,
        gpus: max_gpus,
        first_backend: 0,
        allocation,
    }];
    let routes = build_route_table(sessions.len(), &pools);
    Ok(ControlPlan {
        sessions,
        pools,
        routes,
        budgets,
    })
}

/// One homogeneous slice of a mixed fleet (DESIGN.md §17): a first-class
/// planner input, packed on its own device profiles.
#[derive(Debug, Clone, Copy)]
pub struct DevicePool {
    /// Device type of every GPU in the pool.
    pub device: DeviceType,
    /// Pool size.
    pub gpus: u32,
}

/// Plans a heterogeneous deployment: one squishy packing per device pool,
/// with every class's stages placed on pools by the joint class/split DP
/// ([`optimize_hetero_split`]). `avail` caps each pool's usable slots (the
/// replan path shrinks it below `pools[p].gpus` when slots are dead).
///
/// # Errors
///
/// Returns [`PlanError`] when the traffic classes reference unknown models.
///
/// # Panics
///
/// Panics if `pools` is empty or `avail.len() != pools.len()`.
pub fn plan_pooled(
    classes: &[TrafficClass],
    cfg: &SystemConfig,
    pools: &[DevicePool],
    avail: &[u32],
    rates: Option<&[f64]>,
) -> Result<ControlPlan, PlanError> {
    assert!(!pools.is_empty(), "need at least one device pool");
    assert_eq!(avail.len(), pools.len(), "one avail cap per pool");
    let devices: Vec<DeviceType> = pools.iter().map(|p| p.device).collect();
    let mut profiles = ProfileMemo::new(cfg, &devices);
    let mut sessions = Vec::new();
    let mut all_budgets = Vec::new();
    // Fractional GPUs already committed per pool; steers later classes away
    // from pools whose demand estimate has reached the slot cap.
    let mut pool_load = vec![0.0f64; pools.len()];
    for (ci, class) in classes.iter().enumerate() {
        let root_rate = rates.map_or(class.rate, |r| r[ci]);
        let (budgets, stage_pools, stage_gpus) =
            pooled_stage_plan(class, &mut profiles, pools, avail, &pool_load, root_rate)?;
        for (si, &pi) in stage_pools.iter().enumerate() {
            pool_load[pi] += stage_gpus[si];
        }
        build_class_sessions(
            &mut sessions,
            ci,
            class,
            &mut profiles,
            root_rate,
            &budgets,
            &stage_pools,
        )?;
        all_budgets.push(budgets);
    }

    let mut pool_plans = Vec::with_capacity(pools.len());
    let mut first_backend = 0usize;
    for (pi, pool) in pools.iter().enumerate() {
        let mut allocation = schedule_pool(&sessions, cfg, &pool.device, avail[pi], pi);
        cap_allocation(&mut allocation, avail[pi]);
        let plans = allocation.plans.len();
        pool_plans.push(PoolPlan {
            pool: pi,
            device: pool.device,
            gpus: pool.gpus,
            first_backend,
            allocation,
        });
        first_backend += plans;
    }
    let routes = build_route_table(sessions.len(), &pool_plans);
    Ok(ControlPlan {
        sessions,
        pools: pool_plans,
        routes,
        budgets: all_budgets,
    })
}

/// Runs the configured scheduler over the sessions planned on `pool`.
fn schedule_pool(
    sessions: &[RuntimeSession],
    cfg: &SystemConfig,
    device: &DeviceType,
    max_gpus: u32,
    pool: usize,
) -> Allocation {
    let specs: Vec<SessionSpec> = sessions
        .iter()
        .filter(|s| s.pool == pool)
        .map(|s| SessionSpec::new(s.id, s.exec_profile.clone(), s.budget, s.est_rate))
        .collect();
    match cfg.scheduler {
        SchedulerPolicy::Squishy => {
            squishy_spread(&specs, device.memory_bytes, max_gpus, cfg.spread_factor)
        }
        SchedulerPolicy::BatchOblivious => {
            nexus_baseline::batch_oblivious(&specs, device.memory_bytes, max_gpus)
        }
    }
}

/// Truncates an allocation to `max_gpus` plans, keeping the most productive
/// ones but covering every session with at least one replica first —
/// dropping a session's only plan rejects 100% of its traffic and dooms
/// every query through that stage.
fn cap_allocation(allocation: &mut Allocation, max_gpus: u32) {
    if allocation.plans.len() <= max_gpus as usize {
        return;
    }
    let mut order: Vec<usize> = (0..allocation.plans.len()).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (&allocation.plans[a], &allocation.plans[b]);
        pb.occupancy.total_cmp(&pa.occupancy).then(a.cmp(&b))
    });
    let mut covered: HashSet<SessionId> = HashSet::new();
    let mut keep: Vec<usize> = Vec::with_capacity(max_gpus as usize);
    let mut rest: Vec<usize> = Vec::new();
    for i in order {
        let plan = &allocation.plans[i];
        let covers_new = plan.entries.iter().any(|e| !covered.contains(&e.session));
        if covers_new && keep.len() < max_gpus as usize {
            for e in &plan.entries {
                covered.insert(e.session);
            }
            keep.push(i);
        } else {
            rest.push(i);
        }
    }
    for i in rest {
        if keep.len() >= max_gpus as usize {
            break;
        }
        keep.push(i);
    }
    keep.sort_unstable();
    allocation.plans = keep
        .into_iter()
        .map(|i| allocation.plans[i].clone())
        .collect();
}

/// Builds the per-session routing table over cluster-global backend
/// indices from the per-pool plans.
pub(crate) fn build_route_table(nsessions: usize, pools: &[PoolPlan]) -> Vec<Vec<RouteTarget>> {
    let mut routes: Vec<Vec<RouteTarget>> = vec![Vec::new(); nsessions];
    for pp in pools {
        for (li, p) in pp.allocation.plans.iter().enumerate() {
            for e in &p.entries {
                routes[e.session.0 as usize].push(RouteTarget {
                    backend: pp.first_backend + li,
                    weight: f64::from(e.batch) / p.duty_cycle.as_secs_f64(),
                });
            }
        }
    }
    routes
}

/// The replication loop as it was before loads were kept incrementally,
/// verbatim: every plan's load re-derived for every replica added, each
/// rate found by a scan over `specs`. The differential test asserts the
/// incremental loop clones the same plans in the same order.
#[cfg(test)]
mod reference {
    use super::*;

    /// The original `squishy_spread`.
    pub fn squishy_spread(
        specs: &[SessionSpec],
        gpu_memory: u64,
        max_gpus: u32,
        spread_factor: f64,
    ) -> Allocation {
        let mut alloc = squishy_bin_packing(specs, gpu_memory);
        let cap =
            (max_gpus as usize).min((alloc.gpu_count() as f64 * spread_factor).floor() as usize);
        if alloc.gpu_count() >= cap || alloc.plans.is_empty() {
            return alloc;
        }
        let rate_of =
            |id: SessionId| -> f64 { specs.iter().find(|s| s.id == id).map_or(0.0, |s| s.rate) };
        // Replicas hosting each session, across all plans — maintained
        // incrementally as replicas are added (rebuilding it every iteration
        // made the loop O(plans² · entries)).
        let mut hosts: HashMap<SessionId, u32> = HashMap::new();
        for p in &alloc.plans {
            for e in &p.entries {
                *hosts.entry(e.session).or_insert(0) += 1;
            }
        }
        while alloc.plans.len() < cap {
            // Offered load per replica of each plan; replicate the hottest.
            let (mut best, mut best_load) = (0usize, -1.0f64);
            for (i, p) in alloc.plans.iter().enumerate() {
                let load: f64 = p
                    .entries
                    .iter()
                    .map(|e| rate_of(e.session) / f64::from(hosts[&e.session]))
                    .sum();
                if load > best_load {
                    best_load = load;
                    best = i;
                }
            }
            let clone = alloc.plans[best].clone();
            for e in &clone.entries {
                *hosts.entry(e.session).or_insert(0) += 1;
            }
            alloc.plans.push(clone);
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::GPU_GTX1080TI;
    use nexus_workload::apps;
    use proptest::prelude::*;

    fn class(rate: f64) -> TrafficClass {
        TrafficClass::new(apps::traffic(), ArrivalKind::Uniform, rate)
    }

    #[test]
    fn budgets_fit_slo_along_paths() {
        let cfg = SystemConfig::nexus();
        let classes = vec![class(200.0)];
        let (sessions, budgets) =
            build_sessions(&classes, &cfg, &GPU_GTX1080TI, None).expect("known models");
        assert_eq!(budgets[0].len(), 3);
        // Both paths (ssd→car, ssd→face) fit 400 ms.
        assert!(budgets[0][0] + budgets[0][1] <= Micros::from_millis(400));
        assert!(budgets[0][0] + budgets[0][2] <= Micros::from_millis(400));
        // Deadline offsets are cumulative.
        let root = sessions.iter().find(|s| s.stage == 0).unwrap();
        let leaf = sessions.iter().find(|s| s.stage == 1).unwrap();
        assert_eq!(root.deadline_offset, budgets[0][0]);
        assert_eq!(leaf.deadline_offset, budgets[0][0] + budgets[0][1]);
    }

    #[test]
    fn qa_gives_detector_more_budget_than_even_split() {
        // §7.3.2: QA allocates 345 of 400 ms to SSD; even split gives 200.
        let classes = vec![class(200.0)];
        let with_qa = build_sessions(&classes, &SystemConfig::nexus(), &GPU_GTX1080TI, None)
            .expect("known models")
            .1;
        let without = build_sessions(&classes, &SystemConfig::nexus_no_qa(), &GPU_GTX1080TI, None)
            .expect("known models")
            .1;
        assert!(
            with_qa[0][0] > without[0][0],
            "QA budget {} should exceed even {}",
            with_qa[0][0],
            without[0][0]
        );
        assert_eq!(without[0][0], Micros::from_millis(200));
    }

    #[test]
    fn prefix_batching_merges_variants() {
        let cfg = SystemConfig::nexus();
        let classes = vec![TrafficClass::new(apps::game(), ArrivalKind::Uniform, 100.0)];
        let (merged, _) =
            build_sessions(&classes, &cfg, &GPU_GTX1080TI, None).expect("known models");
        // game: resnet50 ×20 variants + lenet ×20, merged to 2 sessions.
        assert_eq!(merged.len(), 2);
        let (split, _) =
            build_sessions(&classes, &SystemConfig::nexus_no_pb(), &GPU_GTX1080TI, None)
                .expect("known models");
        assert_eq!(split.len(), 40);
        // Split variants share the stage rate.
        let split_rate: f64 = split
            .iter()
            .filter(|s| s.stage == 0)
            .map(|s| s.est_rate)
            .sum();
        let merged_rate = merged.iter().find(|s| s.stage == 0).unwrap().est_rate;
        assert!((split_rate - merged_rate).abs() < 1e-9);
    }

    #[test]
    fn plan_produces_routes_for_scheduled_sessions() {
        let cfg = SystemConfig::nexus();
        let classes = vec![class(100.0)];
        let plan = plan(&classes, &cfg, &GPU_GTX1080TI, 16, None).expect("known models");
        assert!(plan.gpu_count() > 0);
        assert!(plan.gpu_count() <= 16);
        for s in &plan.sessions {
            if s.est_rate > 0.0 && !plan.is_infeasible(s.id) {
                assert!(
                    !plan.routes[s.id.0 as usize].is_empty(),
                    "session {} unrouted",
                    s.id
                );
            }
        }
        // Route weights approximately cover the session rate.
        for s in &plan.sessions {
            let w: f64 = plan.routes[s.id.0 as usize].iter().map(|r| r.weight).sum();
            assert!(
                w + 1e-6 >= s.est_rate,
                "{}: weight {w} < rate {}",
                s.id,
                s.est_rate
            );
        }
    }

    /// The Fig. 13 deployment's classes as the planner sees them
    /// (`nexus::workloads::fig13_classes` sits above this crate): the seven
    /// apps in `all_apps` order at their base rates, SLOs doubled for the
    /// K80 class. The diurnal ramp is left out — planning reads `rate` only.
    fn fig13_classes(scale: f64) -> Vec<TrafficClass> {
        let base_rates = [1_600.0, 150.0, 100.0, 90.0, 80.0, 70.0, 55.0];
        nexus_workload::all_apps()
            .into_iter()
            .zip(base_rates)
            .map(|(mut app, rate)| {
                app.slo = app.slo * 2;
                TrafficClass::new(app, ArrivalKind::Poisson, rate * scale)
            })
            .collect()
    }

    /// With query analysis off both planners take the even split, and the
    /// one-pool `plan_pooled` reproduces `plan` exactly. So the split DP —
    /// `optimize_latency_split` costs a stage at any batch,
    /// `optimize_hetero_split` at ladder rungs only — is the planners' only
    /// divergence: the precondition for folding `plan` into `plan_pooled`
    /// (DESIGN.md §17).
    #[test]
    fn plan_matches_one_pool_plan_pooled_when_query_analysis_is_off() {
        let cfg = SystemConfig::nexus_no_qa();
        for (device, gpus, scale) in [
            (nexus_profile::GPU_K80, 100, 1.0),
            (GPU_GTX1080TI, 16, 1.0),
            (nexus_profile::GPU_K80, 1_000, 10.0),
        ] {
            let classes = fig13_classes(scale);
            let one = plan(&classes, &cfg, &device, gpus, None).expect("known models");
            let pooled = plan_pooled(
                &classes,
                &cfg,
                &[DevicePool { device, gpus }],
                &[gpus],
                None,
            )
            .expect("known models");
            let at = format!("{} x{gpus}", device.name);
            assert_eq!(
                format!("{:?}", one.sessions),
                format!("{:?}", pooled.sessions),
                "sessions, {at}"
            );
            assert_eq!(one.budgets, pooled.budgets, "budgets, {at}");
            assert_eq!(
                format!("{:?}", one.pools),
                format!("{:?}", pooled.pools),
                "per-pool allocations, {at}"
            );
            assert_eq!(one.routes, pooled.routes, "routes, {at}");
        }
    }

    #[test]
    fn gpu_cap_truncates_allocation() {
        let cfg = SystemConfig::nexus();
        let classes = vec![class(5_000.0)];
        let capped = plan(&classes, &cfg, &GPU_GTX1080TI, 4, None).expect("known models");
        assert_eq!(capped.gpu_count(), 4);
        let free = plan(&classes, &cfg, &GPU_GTX1080TI, 1_000, None).expect("known models");
        assert!(free.gpu_count() > 4);
    }

    /// A plan whose occupancy is NaN (a degenerate profile dividing zero
    /// latency by a zero duty cycle) orders like any other value instead of
    /// panicking the control plane, and every session keeps a replica.
    #[test]
    fn nan_occupancy_plan_is_capped_without_panicking() {
        let node = |session: u32, occupancy: f64| GpuPlan {
            duty_cycle: Micros::from_millis(10),
            entries: vec![nexus_scheduler::PlanEntry {
                session: SessionId(session),
                batch: 1,
                exec_latency: Micros::from_millis(5),
            }],
            saturated: false,
            occupancy,
            memory_bytes: 0,
        };
        let mut allocation = Allocation {
            plans: vec![node(0, 0.9), node(0, 0.5), node(1, f64::NAN), node(2, 0.2)],
            infeasible: Vec::new(),
        };
        cap_allocation(&mut allocation, 3);
        assert_eq!(allocation.plans.len(), 3);
        for session in 0..3 {
            assert!(allocation.plans.iter().any(|p| p.hosts(SessionId(session))));
        }
    }

    #[test]
    fn rate_override_rescales_sessions() {
        let cfg = SystemConfig::nexus();
        let classes = vec![class(100.0)];
        let (low, _) =
            build_sessions(&classes, &cfg, &GPU_GTX1080TI, Some(&[50.0])).expect("known models");
        let (high, _) =
            build_sessions(&classes, &cfg, &GPU_GTX1080TI, Some(&[500.0])).expect("known models");
        assert!(high[0].est_rate > low[0].est_rate * 9.0);
    }

    #[test]
    fn unknown_model_is_a_typed_error_not_a_panic() {
        use nexus_workload::{AppSpec, AppStage};
        let app = AppSpec {
            name: "typo-app".into(),
            slo: Micros::from_millis(100),
            stages: vec![AppStage {
                model: "resnet5O".into(), // typo: letter O, not zero
                variants: 1,
                children: vec![],
            }],
            streams: 1,
        };
        let classes = vec![TrafficClass::new(app, ArrivalKind::Uniform, 50.0)];
        let err = plan(&classes, &SystemConfig::nexus(), &GPU_GTX1080TI, 4, None)
            .expect_err("typo must not plan");
        assert_eq!(
            err,
            PlanError::UnknownModel {
                model: "resnet5O".into()
            }
        );
        assert!(err.to_string().contains("resnet5O"));
    }

    #[test]
    fn diamond_dag_deadline_takes_slowest_parent() {
        use nexus_workload::{AppSpec, AppStage, GammaSpec};
        // 0 → {1, 2} → 3: the sink has two parents with uneven path
        // budgets; its offset must follow the slower one.
        let stage = |children: Vec<(usize, GammaSpec)>| AppStage {
            model: "resnet50".into(),
            variants: 1,
            children,
        };
        let app = AppSpec {
            name: "diamond".into(),
            slo: Micros::from_millis(400),
            stages: vec![
                stage(vec![(1, GammaSpec::Fixed(1.0)), (2, GammaSpec::Fixed(1.0))]),
                stage(vec![(3, GammaSpec::Fixed(1.0))]),
                stage(vec![(3, GammaSpec::Fixed(1.0))]),
                stage(vec![]),
            ],
            streams: 1,
        };
        let budgets = [
            Micros::from_millis(100),
            Micros::from_millis(30), // fast branch
            Micros::from_millis(90), // slow branch
            Micros::from_millis(50),
        ];
        let offsets = deadline_offsets(&app, &budgets);
        assert_eq!(offsets[1], Micros::from_millis(130));
        assert_eq!(offsets[2], Micros::from_millis(190));
        // Sink: max(130, 190) + 50, not last-visited 190 + 50 by luck of
        // ordering — flip the branches to prove order independence.
        assert_eq!(offsets[3], Micros::from_millis(240));
        let flipped_budgets = [
            Micros::from_millis(100),
            Micros::from_millis(90),
            Micros::from_millis(30),
            Micros::from_millis(50),
        ];
        let flipped = deadline_offsets(&app, &flipped_budgets);
        assert_eq!(flipped[3], Micros::from_millis(240));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The incremental replication loop returns the `Allocation` the
        /// re-derive-everything loop returned. Sessions are drawn from a
        /// few shapes (so equal-load ties are common), hot ones saturate
        /// several GPUs (a session hosted by many plans) and light ones
        /// share residual nodes.
        #[test]
        fn incremental_spread_matches_rederiving_every_load(
            picks in prop::collection::vec((0usize..4, 0usize..6), 1..24),
            max_gpus in 0u32..90,
            spread_idx in 0usize..3,
        ) {
            let shapes = [
                (BatchingProfile::from_linear_ms(1.0, 8.0, 32), 150),
                (BatchingProfile::from_linear_ms(2.5, 20.0, 64), 400),
                (BatchingProfile::from_linear_ms(0.2, 1.0, 16), 60),
                (BatchingProfile::from_linear_ms(1.0, 30.0, 8), 40), // infeasible
            ];
            let rates = [0.0, 3.0, 3.0, 40.0, 700.0, 2_500.0];
            let specs: Vec<SessionSpec> = picks
                .iter()
                .enumerate()
                .map(|(i, &(shape, rate))| {
                    let (profile, slo_ms) = &shapes[shape];
                    SessionSpec::new(
                        SessionId(i as u32 * 3),
                        profile.clone(),
                        Micros::from_millis(*slo_ms),
                        rates[rate],
                    )
                })
                .collect();
            let spread = [1.0, 1.4, 4.0][spread_idx];
            let memory = GPU_GTX1080TI.memory_bytes;
            prop_assert_eq!(
                squishy_spread(&specs, memory, max_gpus, spread),
                reference::squishy_spread(&specs, memory, max_gpus, spread)
            );
        }
    }
}
