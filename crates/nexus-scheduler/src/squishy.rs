//! Squishy bin packing (§6.1, Algorithm 1).
//!
//! Packs sessions onto GPUs when task cost is "squishy" — it shrinks as
//! tasks of the same type are batched together — under per-session latency
//! SLOs. Two phases:
//!
//! 1. **ScheduleSaturate**: sessions with enough load get whole GPUs running
//!    back-to-back batches at the largest SLO-feasible batch size
//!    (`2·ℓ(B) ≤ L`), leaving a residual rate.
//! 2. **ScheduleResidue**: residual loads get a per-session maximal duty
//!    cycle (`ℓ(b) + b/r ≤ L`), are sorted by occupancy, and merged
//!    best-fit-decreasing into shared duty cycles (Fig. 7): the smaller duty
//!    cycle wins, batch sizes shrink proportionally, and a merge is legal if
//!    the summed batch latencies still fit in the new duty cycle and every
//!    session's worst-case latency `d + ℓ(b)` stays within its SLO.

use serde::{Deserialize, Serialize};

use nexus_profile::{BatchLadder, Micros};

use crate::session::{SessionId, SessionSpec};

/// One session's slot within a GPU's duty cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// The session.
    pub session: SessionId,
    /// Target batch size for each duty-cycle round.
    pub batch: u32,
    /// Batch execution latency at that size (cached for executors).
    pub exec_latency: Micros,
}

/// Execution plan for one GPU: the sessions it hosts and the duty cycle it
/// round-robins through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuPlan {
    /// Round-robin period. For saturated nodes this equals the batch
    /// execution latency (back-to-back batches).
    pub duty_cycle: Micros,
    /// Sessions hosted by this GPU.
    pub entries: Vec<PlanEntry>,
    /// Whether this node serves a single saturated session back-to-back.
    pub saturated: bool,
    /// Fraction of the duty cycle occupied by batch executions.
    pub occupancy: f64,
    /// Total model memory resident on this GPU.
    pub memory_bytes: u64,
}

impl GpuPlan {
    /// Whether this plan hosts `session`.
    pub fn hosts(&self, session: SessionId) -> bool {
        self.entries.iter().any(|e| e.session == session)
    }
}

/// Result of a packing run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Allocation {
    /// One plan per allocated GPU.
    pub plans: Vec<GpuPlan>,
    /// Sessions whose SLO cannot be met at any batch size (or whose model
    /// does not fit in GPU memory) — the control plane must reject these.
    pub infeasible: Vec<SessionId>,
}

impl Allocation {
    /// Number of GPUs used.
    pub fn gpu_count(&self) -> usize {
        self.plans.len()
    }

    /// Mean occupancy across allocated GPUs.
    pub fn mean_occupancy(&self) -> f64 {
        if self.plans.is_empty() {
            return 0.0;
        }
        self.plans.iter().map(|p| p.occupancy).sum::<f64>() / self.plans.len() as f64
    }
}

/// Internal: a residual load awaiting merge.
struct Residual {
    session: SessionId,
    spec_index: usize,
    rate: f64,
    batch: u32,
    duty: Micros,
    occ: f64,
}

/// Internal: a node being assembled from residual loads.
struct Node {
    duty: Micros,
    members: Vec<Member>,
    occ: f64,
    memory: u64,
}

/// Internal: what merging a residual into a node would make of it, short
/// of the re-batched member list.
#[derive(Debug, PartialEq)]
struct Merge {
    duty: Micros,
    occ: f64,
    /// Summed rung latency of every member at `duty`.
    exec: Micros,
    memory: u64,
}

impl Merge {
    /// The merge whose members' rungs total `exec`, if they fit in `duty`.
    fn within(duty: Micros, exec: Micros, memory: u64) -> Option<Merge> {
        (exec <= duty).then(|| Merge {
            duty,
            occ: exec.as_micros() as f64 / duty.as_micros() as f64,
            exec,
            memory,
        })
    }
}

/// Internal: what a node's merge probe can know without its member list.
struct Probe {
    /// Σ bottom-rung latency over the members. Every rung a member can run
    /// costs at least that, so no duty cycle shorter than this holds them.
    floor: Micros,
    /// Σ rung latency over the members at the node's own duty cycle, or
    /// `None` if some member has no rung or misses its SLO there. This is
    /// `try_merge`'s member loop for every residual whose duty cycle is no
    /// shorter than the node's, since the merged cycle is then the node's.
    exec: Option<Micros>,
}

/// Internal: one session packed into a shared node.
struct Member {
    spec_index: usize,
    batch: u32,
    rate: f64,
}

/// How residual loads pick a node to merge into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOrder {
    /// Best-fit decreasing: merge into the node whose occupancy ends up
    /// highest (the paper's choice, mirroring classic BFD bin packing).
    BestFit,
    /// First-fit decreasing: merge into the first node that fits — the
    /// ablation baseline for the merge-order design choice.
    FirstFit,
}

/// Runs squishy bin packing over `sessions` for GPUs with `gpu_memory`
/// bytes of device memory.
///
/// Sessions with zero rate are ignored. The returned plans list saturated
/// nodes first, then merged residual nodes.
///
/// # Examples
///
/// ```
/// use nexus_profile::{BatchingProfile, Micros};
/// use nexus_scheduler::{squishy_bin_packing, SessionId, SessionSpec};
///
/// // Two residual sessions that fit one shared duty cycle.
/// let profile = BatchingProfile::from_linear_ms(1.0, 8.0, 32);
/// let sessions = vec![
///     SessionSpec::new(SessionId(0), profile.clone(), Micros::from_millis(150), 40.0),
///     SessionSpec::new(SessionId(1), profile, Micros::from_millis(200), 25.0),
/// ];
/// let alloc = squishy_bin_packing(&sessions, 11 << 30);
/// assert_eq!(alloc.gpu_count(), 1);
/// assert!(alloc.infeasible.is_empty());
/// ```
pub fn squishy_bin_packing(sessions: &[SessionSpec], gpu_memory: u64) -> Allocation {
    squishy_bin_packing_with(sessions, gpu_memory, MergeOrder::BestFit)
}

/// [`squishy_bin_packing`] with an explicit residual merge order.
pub fn squishy_bin_packing_with(
    sessions: &[SessionSpec],
    gpu_memory: u64,
    order: MergeOrder,
) -> Allocation {
    // Precomputed rung tables: every batch the packer hands out is a ladder
    // rung, so a plan entry is always a shape the dispatcher can execute
    // and duty-cycle accounting matches ladder execution exactly.
    let ladders: Vec<BatchLadder> = sessions.iter().map(|s| s.profile.ladder()).collect();
    let (mut alloc, residuals) = schedule_saturate(sessions, &ladders, gpu_memory);

    // Phase 2: ScheduleResidue — best-fit decreasing by occupancy.
    let mut residue = Residue::new(sessions, &ladders, gpu_memory);
    for r in &residuals {
        residue.place(r, order);
    }

    for node in residue.nodes {
        let entries = node
            .members
            .iter()
            .map(|m| PlanEntry {
                session: sessions[m.spec_index].id,
                batch: m.batch,
                exec_latency: sessions[m.spec_index].profile.latency(m.batch),
            })
            .collect();
        alloc.plans.push(GpuPlan {
            duty_cycle: node.duty,
            entries,
            saturated: false,
            occupancy: node.occ,
            memory_bytes: node.memory,
        });
    }
    alloc
}

/// Phase 1, ScheduleSaturate: the saturated nodes and infeasible sessions,
/// plus every residual load in the order ScheduleResidue places them
/// (occupancy decreasing).
fn schedule_saturate(
    sessions: &[SessionSpec],
    ladders: &[BatchLadder],
    gpu_memory: u64,
) -> (Allocation, Vec<Residual>) {
    let mut alloc = Allocation::default();
    let mut residuals: Vec<Residual> = Vec::new();
    for (idx, s) in sessions.iter().enumerate() {
        if s.rate <= 0.0 {
            continue;
        }
        if s.profile.memory_bytes() > gpu_memory {
            alloc.infeasible.push(s.id);
            continue;
        }
        let Some((big_b, exec)) = saturated_rung(&ladders[idx], s.slo) else {
            alloc.infeasible.push(s.id);
            continue;
        };
        let peak = f64::from(big_b) / exec.as_secs_f64();
        let full_nodes = (s.rate / peak).floor() as u32;
        for _ in 0..full_nodes {
            alloc.plans.push(GpuPlan {
                duty_cycle: exec,
                entries: vec![PlanEntry {
                    session: s.id,
                    batch: big_b,
                    exec_latency: exec,
                }],
                saturated: true,
                occupancy: 1.0,
                memory_bytes: s.profile.memory_bytes(),
            });
        }
        let residual_rate = s.rate - f64::from(full_nodes) * peak;
        if residual_rate > 1e-9 {
            if let Some((batch, duty)) = residual_params(s, &ladders[idx], residual_rate) {
                let occ = s.profile.latency(batch).as_micros() as f64 / duty.as_micros() as f64;
                residuals.push(Residual {
                    session: s.id,
                    spec_index: idx,
                    rate: residual_rate,
                    batch,
                    duty,
                    occ,
                });
            } else {
                // 2·ℓ(1) ≤ L held (big_b ≥ 1) so a duty cycle always
                // exists; this branch is unreachable but kept defensive.
                alloc.infeasible.push(s.id);
            }
        }
    }
    residuals.sort_by(|a, b| b.occ.total_cmp(&a.occ).then(a.session.cmp(&b.session)));
    (alloc, residuals)
}

/// The saturated batch for a session: the largest ladder rung `B` with
/// `2·ℓ(B) ≤ slo` (§4.1/§6.1 — a request that just misses one batch waits
/// for the whole next batch). Rung-restricted so saturated nodes execute a
/// shape the ladder dispatcher has; `None` when even the bottom rung is
/// infeasible.
fn saturated_rung(ladder: &BatchLadder, slo: Micros) -> Option<(u32, Micros)> {
    ladder.largest_rung_within(Micros::from_micros(slo.as_micros() / 2))
}

/// Whether batch `b` at `rate` fits the session's SLO, returning the duty
/// cycle `d = max(b/rate, ℓ(b))` when `ℓ(b) + d ≤ L` (Algorithm 1, lines
/// 12–15 — the `ℓ(b)` floor covers fast-arriving residuals whose batch
/// executes longer than it gathers, where the duty cycle is
/// execution-bound rather than gather-bound).
fn residual_duty(s: &SessionSpec, b: u32, rate: f64) -> Option<Micros> {
    let exec = s.profile.latency(b);
    let duty = Micros::from_secs_f64(f64::from(b) / rate).max(exec);
    (exec + duty <= s.slo).then_some(duty)
}

/// Chooses the residual batch size and duty cycle for a session at `rate`:
/// the largest ladder *rung* `b` with `ℓ(b) + d ≤ L` where
/// `d = max(b/rate, ℓ(b))`. The feasibility predicate is monotone in `b`
/// (`ℓ` is non-decreasing and `b/rate` increasing), so the old linear
/// `1..=max_batch` scan is replaced by a binary search over the
/// precomputed rung table — `partition_point` finds the boundary exactly
/// (differential-tested against the scan in `reference`). Low-rate
/// sessions for which even `b = 1` violates the inequality run at `b = 1`
/// with the duty cycle capped at `L − ℓ(1)`, which preserves the
/// worst-case bound `d + ℓ(1) ≤ L`.
fn residual_params(s: &SessionSpec, ladder: &BatchLadder, rate: f64) -> Option<(u32, Micros)> {
    debug_assert!(rate > 0.0);
    let rungs = ladder.rungs();
    let cut = rungs.partition_point(|&b| residual_duty(s, b, rate).is_some());
    if cut > 0 {
        let b = rungs[cut - 1];
        let duty = residual_duty(s, b, rate).expect("rung below the partition point is feasible");
        // An execution-bound duty cycle serves b/ℓ(b), which can fall short
        // of the rate when the feasible batch is small. Such a session
        // needs a dedicated node running back-to-back at its saturated rung
        // (throughput T ≥ rate holds because saturation already peeled off
        // whole multiples of T).
        if f64::from(b) / duty.as_secs_f64() + 1e-9 < rate {
            return saturated_rung(ladder, s.slo);
        }
        return Some((b, duty));
    }
    // Low-rate fallback: batch of at most 1 per cycle, maximal cycle.
    let exec = ladder.min_latency();
    if exec * 2 <= s.slo {
        return Some((1, s.slo - exec));
    }
    None
}

/// The rung a member at `rate` runs under duty cycle `duty`, with its
/// latency: the batch that sustains the rate, `ceil(d·r)`, rounded up to the
/// covering ladder rung the dispatcher will actually run. `None` when even
/// the profile's largest batch cannot sustain the rate.
fn member_rung(
    s: &SessionSpec,
    ladder: &BatchLadder,
    duty: Micros,
    rate: f64,
) -> Option<(u32, Micros)> {
    let needed = ((duty.as_secs_f64() * rate).ceil() as u32).max(1);
    (needed <= s.profile.max_batch()).then(|| ladder.smallest_rung_geq(needed))
}

/// Attempts to merge residual `r` into `node` (Fig. 7): the new duty cycle
/// is the smaller of the two, member batches shrink to `ceil(d·rate)`
/// rounded up to the covering ladder rung (`b' ≤ b`), and the merge is legal
/// iff the batch executions fit in the duty cycle, every member still meets
/// its SLO, and the models fit in memory together. Rounding up to a rung
/// preserves capacity (`b/d` only grows) but charges the rung's latency,
/// so the legality checks see exactly what ladder execution will cost.
///
/// Allocates nothing: the packer probes every open node per residual and
/// keeps one, so only the winner's member list is rebuilt
/// ([`Node::apply`]). [`Residue::probe`] calls it only where its cheaper
/// tests cannot decide.
fn try_merge(
    node: &Node,
    r: &Residual,
    sessions: &[SessionSpec],
    ladders: &[BatchLadder],
    gpu_memory: u64,
) -> Option<Merge> {
    let memory = node.memory + sessions[r.spec_index].profile.memory_bytes();
    if memory > gpu_memory {
        return None;
    }
    let duty = node.duty.min(r.duty);
    let mut exec = Micros::ZERO;
    let candidates = node
        .members
        .iter()
        .map(|m| (m.spec_index, m.rate))
        .chain([(r.spec_index, r.rate)]);
    for (idx, rate) in candidates {
        exec += rung_exec(&sessions[idx], &ladders[idx], duty, rate)?;
    }
    Merge::within(duty, exec, memory)
}

/// The latency of the rung a member at `rate` runs under `duty`, if it has
/// one and its worst case `duty + ℓ` meets its SLO.
fn rung_exec(s: &SessionSpec, ladder: &BatchLadder, duty: Micros, rate: f64) -> Option<Micros> {
    let (_, exec) = member_rung(s, ladder, duty, rate)?;
    (duty + exec <= s.slo).then_some(exec)
}

/// Internal: ScheduleResidue's open nodes, each with its [`Probe`].
struct Residue<'a> {
    sessions: &'a [SessionSpec],
    ladders: &'a [BatchLadder],
    gpu_memory: u64,
    nodes: Vec<Node>,
    /// `probes[i]` describes `nodes[i]`. A vector beside `nodes` rather than
    /// fields of `Node`, which `reference` shares.
    probes: Vec<Probe>,
}

impl<'a> Residue<'a> {
    fn new(sessions: &'a [SessionSpec], ladders: &'a [BatchLadder], gpu_memory: u64) -> Self {
        Residue {
            sessions,
            ladders,
            gpu_memory,
            nodes: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Merges `r` into the open node it fills best, or the first it fits
    /// under [`MergeOrder::FirstFit`]; opens a node for it if none fits.
    /// Nodes are scanned in index order and an equal occupancy never
    /// displaces an earlier node.
    fn place(&mut self, r: &Residual, order: MergeOrder) {
        let mut best: Option<(usize, Merge)> = None;
        for ni in 0..self.nodes.len() {
            if let Some(merge) = self.probe(ni, r) {
                let better = match &best {
                    Some((_, b)) => merge.occ > b.occ,
                    None => true,
                };
                if better {
                    best = Some((ni, merge));
                }
                if order == MergeOrder::FirstFit {
                    break;
                }
            }
        }
        let (s, ladder) = (&self.sessions[r.spec_index], &self.ladders[r.spec_index]);
        match best {
            Some((ni, merge)) => {
                let probe = &mut self.probes[ni];
                probe.floor += ladder.min_latency();
                probe.exec = Some(merge.exec);
                self.nodes[ni].apply(merge, r, self.sessions, self.ladders);
            }
            None => {
                self.probes.push(Probe {
                    floor: ladder.min_latency(),
                    // From the rung the member runs at this cycle, not from
                    // `r.batch`: `residual_params` may have chosen another.
                    exec: rung_exec(s, ladder, r.duty, r.rate),
                });
                self.nodes.push(Node {
                    duty: r.duty,
                    members: vec![Member {
                        spec_index: r.spec_index,
                        batch: r.batch,
                        rate: r.rate,
                    }],
                    occ: r.occ,
                    memory: s.profile.memory_bytes(),
                });
            }
        }
    }

    /// Exactly `try_merge(&self.nodes[ni], r, ..)`, mostly without walking
    /// the member list. Two necessary conditions are tested first: the
    /// memory test `try_merge` opens with, and the floor — the merged cycle
    /// must hold every member's bottom rung. When `r`'s duty cycle is no
    /// shorter than the node's, the cycle stays the node's, so do the
    /// members' rungs, and the probe's cached sum stands in for the loop.
    fn probe(&self, ni: usize, r: &Residual) -> Option<Merge> {
        let (node, probe) = (&self.nodes[ni], &self.probes[ni]);
        let (s, ladder) = (&self.sessions[r.spec_index], &self.ladders[r.spec_index]);
        let memory = node.memory + s.profile.memory_bytes();
        let duty = node.duty.min(r.duty);
        if memory > self.gpu_memory || probe.floor + ladder.min_latency() > duty {
            return None;
        }
        if r.duty < node.duty {
            return try_merge(node, r, self.sessions, self.ladders, self.gpu_memory);
        }
        let exec = probe.exec? + rung_exec(s, ladder, duty, r.rate)?;
        Merge::within(duty, exec, memory)
    }
}

impl Node {
    /// Carries out a merge [`Residue::probe`] found legal: members re-batch at
    /// the new duty cycle and `r` joins them.
    fn apply(
        &mut self,
        merge: Merge,
        r: &Residual,
        sessions: &[SessionSpec],
        ladders: &[BatchLadder],
    ) {
        self.members.push(Member {
            spec_index: r.spec_index,
            batch: r.batch,
            rate: r.rate,
        });
        for m in &mut self.members {
            let idx = m.spec_index;
            (m.batch, _) = member_rung(&sessions[idx], &ladders[idx], merge.duty, m.rate)
                .expect("try_merge found every member's rung");
        }
        self.duty = merge.duty;
        self.occ = merge.occ;
        self.memory = merge.memory;
    }
}

/// The aggressive theoretical lower bound of §7.4: GPUs needed if every
/// session ran at its profile's peak throughput (optimal batch, fully
/// batchable, back-to-back execution), ignoring SLOs and packing losses.
pub fn lower_bound_gpus(sessions: &[SessionSpec]) -> f64 {
    sessions
        .iter()
        .filter(|s| s.rate > 0.0)
        .map(|s| s.rate / s.profile.peak_throughput())
        .sum()
}

/// The pre-ladder linear scans, kept verbatim as oracles: the differential
/// tests assert the `partition_point` binary searches find exactly the
/// boundary the old `for b in 1..=max_batch` loops found. Likewise the
/// packer as it was when every merge probe allocated the merged node.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The original `residual_params` scan over every batch size.
    pub fn residual_scan(s: &SessionSpec, rate: f64) -> Option<(u32, Micros)> {
        let mut best: Option<(u32, Micros)> = None;
        for b in 1..=s.profile.max_batch() {
            let exec = s.profile.latency(b);
            let duty = Micros::from_secs_f64(f64::from(b) / rate).max(exec);
            if exec + duty <= s.slo {
                best = Some((b, duty));
            } else {
                break;
            }
        }
        best
    }

    /// The same break-on-first-failure scan restricted to ladder rungs —
    /// what the rung table's binary search must reproduce.
    pub fn residual_rung_scan(
        s: &SessionSpec,
        ladder: &BatchLadder,
        rate: f64,
    ) -> Option<(u32, Micros)> {
        let mut best = None;
        for &b in ladder.rungs() {
            match residual_duty(s, b, rate) {
                Some(duty) => best = Some((b, duty)),
                None => break,
            }
        }
        best
    }

    /// The original `squishy_bin_packing_with`: every probe builds the merged
    /// node, member list included.
    pub fn squishy_bin_packing_with(
        sessions: &[SessionSpec],
        gpu_memory: u64,
        order: MergeOrder,
    ) -> Allocation {
        let mut alloc = Allocation::default();
        let mut residuals: Vec<Residual> = Vec::new();

        // Precomputed rung tables: every batch the packer hands out is a ladder
        // rung, so a plan entry is always a shape the dispatcher can execute
        // and duty-cycle accounting matches ladder execution exactly.
        let ladders: Vec<BatchLadder> = sessions.iter().map(|s| s.profile.ladder()).collect();

        // Phase 1: ScheduleSaturate.
        for (idx, s) in sessions.iter().enumerate() {
            if s.rate <= 0.0 {
                continue;
            }
            if s.profile.memory_bytes() > gpu_memory {
                alloc.infeasible.push(s.id);
                continue;
            }
            let Some((big_b, exec)) = saturated_rung(&ladders[idx], s.slo) else {
                alloc.infeasible.push(s.id);
                continue;
            };
            let peak = f64::from(big_b) / exec.as_secs_f64();
            let full_nodes = (s.rate / peak).floor() as u32;
            for _ in 0..full_nodes {
                alloc.plans.push(GpuPlan {
                    duty_cycle: exec,
                    entries: vec![PlanEntry {
                        session: s.id,
                        batch: big_b,
                        exec_latency: exec,
                    }],
                    saturated: true,
                    occupancy: 1.0,
                    memory_bytes: s.profile.memory_bytes(),
                });
            }
            let residual_rate = s.rate - f64::from(full_nodes) * peak;
            if residual_rate > 1e-9 {
                if let Some((batch, duty)) = residual_params(s, &ladders[idx], residual_rate) {
                    let occ = s.profile.latency(batch).as_micros() as f64 / duty.as_micros() as f64;
                    residuals.push(Residual {
                        session: s.id,
                        spec_index: idx,
                        rate: residual_rate,
                        batch,
                        duty,
                        occ,
                    });
                } else {
                    // 2·ℓ(1) ≤ L held (big_b ≥ 1) so a duty cycle always
                    // exists; this branch is unreachable but kept defensive.
                    alloc.infeasible.push(s.id);
                }
            }
        }

        // Phase 2: ScheduleResidue — best-fit decreasing by occupancy.
        residuals.sort_by(|a, b| {
            b.occ
                .partial_cmp(&a.occ)
                .expect("occupancies are finite")
                .then(a.session.cmp(&b.session))
        });

        let mut nodes: Vec<Node> = Vec::new();
        for r in &residuals {
            let mut best: Option<(usize, Node)> = None;
            for (ni, node) in nodes.iter().enumerate() {
                if let Some(merged) = try_merge(node, r, sessions, &ladders, gpu_memory) {
                    let better = match &best {
                        Some((_, b)) => merged.occ > b.occ,
                        None => true,
                    };
                    if better {
                        best = Some((ni, merged));
                    }
                    if order == MergeOrder::FirstFit {
                        break;
                    }
                }
            }
            match best {
                Some((ni, merged)) => nodes[ni] = merged,
                None => nodes.push(Node {
                    duty: r.duty,
                    members: vec![Member {
                        spec_index: r.spec_index,
                        batch: r.batch,
                        rate: r.rate,
                    }],
                    occ: r.occ,
                    memory: sessions[r.spec_index].profile.memory_bytes(),
                }),
            }
        }

        for node in nodes {
            let entries = node
                .members
                .iter()
                .map(|m| PlanEntry {
                    session: sessions[m.spec_index].id,
                    batch: m.batch,
                    exec_latency: sessions[m.spec_index].profile.latency(m.batch),
                })
                .collect();
            alloc.plans.push(GpuPlan {
                duty_cycle: node.duty,
                entries,
                saturated: false,
                occupancy: node.occ,
                memory_bytes: node.memory,
            });
        }
        alloc
    }

    /// The original `try_merge`: returns the merged node whole.
    fn try_merge(
        node: &Node,
        r: &Residual,
        sessions: &[SessionSpec],
        ladders: &[BatchLadder],
        gpu_memory: u64,
    ) -> Option<Node> {
        let memory = node.memory + sessions[r.spec_index].profile.memory_bytes();
        if memory > gpu_memory {
            return None;
        }
        let duty = node.duty.min(r.duty);
        let mut members = Vec::with_capacity(node.members.len() + 1);
        let mut exec_total = Micros::ZERO;
        let candidates = node
            .members
            .iter()
            .map(|m| (m.spec_index, m.rate))
            .chain([(r.spec_index, r.rate)]);
        for (idx, rate) in candidates {
            let s = &sessions[idx];
            // Shrinking the duty cycle shrinks the batch needed to sustain the
            // member's rate: b' = ceil(d·r) ≤ b (Fig. 7), rounded up to the
            // rung the dispatcher will actually run.
            let needed = ((duty.as_secs_f64() * rate).ceil() as u32).max(1);
            if needed > s.profile.max_batch() {
                return None;
            }
            let (batch, exec) = ladders[idx].smallest_rung_geq(needed);
            if duty + exec > s.slo {
                return None;
            }
            exec_total += exec;
            members.push(Member {
                spec_index: idx,
                batch,
                rate,
            });
        }
        if exec_total > duty {
            return None;
        }
        Some(Node {
            duty,
            members,
            occ: exec_total.as_micros() as f64 / duty.as_micros() as f64,
            memory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::BatchingProfile;
    use proptest::prelude::*;

    /// Models A, B, C of Table 2 with the §4.1 SLOs.
    fn table2_sessions(rates: [f64; 3]) -> Vec<SessionSpec> {
        let model_a = BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(50)),
            (8, Micros::from_millis(75)),
            (16, Micros::from_millis(100)),
        ]);
        let model_b = BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(50)),
            (8, Micros::from_millis(90)),
            (16, Micros::from_millis(125)),
        ]);
        let model_c = BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(60)),
            (8, Micros::from_millis(95)),
            (16, Micros::from_millis(125)),
        ]);
        vec![
            SessionSpec::new(SessionId(0), model_a, Micros::from_millis(200), rates[0]),
            SessionSpec::new(SessionId(1), model_b, Micros::from_millis(250), rates[1]),
            SessionSpec::new(SessionId(2), model_c, Micros::from_millis(250), rates[2]),
        ]
    }

    const GPU_MEM: u64 = 11 << 30;

    #[test]
    fn saturated_workload_matches_section_4_1() {
        // §4.1: at high rates, A runs at batch 16 (160 req/s/GPU), B and C
        // at batch 16 (128 req/s/GPU).
        let sessions = table2_sessions([320.0, 256.0, 128.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert!(alloc.infeasible.is_empty());
        let saturated: Vec<_> = alloc.plans.iter().filter(|p| p.saturated).collect();
        // 320/160 = 2 GPUs for A, 256/128 = 2 for B, 128/128 = 1 for C.
        assert_eq!(saturated.len(), 5);
        for p in &saturated {
            assert_eq!(p.entries[0].batch, 16);
        }
        // No residual nodes: rates divide evenly.
        assert_eq!(alloc.gpu_count(), 5);
    }

    #[test]
    fn residual_workload_matches_section_4_1() {
        // §4.1: A at 64 req/s (batch 8, duty 125 ms), B and C at 32 req/s.
        // A and B share one GPU; C cannot fit (ℓ_C(4) = 60 ms exceeds the
        // 50 ms slack) and gets its own.
        let sessions = table2_sessions([64.0, 32.0, 32.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert!(alloc.infeasible.is_empty());
        assert_eq!(alloc.gpu_count(), 2);
        let ab = alloc
            .plans
            .iter()
            .find(|p| p.hosts(SessionId(0)))
            .expect("A is scheduled");
        assert!(ab.hosts(SessionId(1)), "B co-locates with A");
        assert!(!ab.hosts(SessionId(2)), "C cannot co-locate with A");
        assert_eq!(ab.duty_cycle, Micros::from_millis(125));
        let a_entry = ab
            .entries
            .iter()
            .find(|e| e.session == SessionId(0))
            .unwrap();
        assert_eq!(a_entry.batch, 8);
        let b_entry = ab
            .entries
            .iter()
            .find(|e| e.session == SessionId(1))
            .unwrap();
        assert_eq!(b_entry.batch, 4);
    }

    #[test]
    fn all_plans_respect_slo_and_duty_cycle_invariants() {
        let sessions = table2_sessions([100.0, 75.0, 50.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        for plan in &alloc.plans {
            let exec_total: Micros = plan.entries.iter().map(|e| e.exec_latency).sum();
            if plan.saturated {
                assert_eq!(plan.duty_cycle, exec_total);
            } else {
                assert!(exec_total <= plan.duty_cycle, "cycle overflows");
            }
            for e in &plan.entries {
                let spec = sessions.iter().find(|s| s.id == e.session).unwrap();
                let worst = if plan.saturated {
                    e.exec_latency * 2
                } else {
                    plan.duty_cycle + e.exec_latency
                };
                assert!(worst <= spec.slo, "{}: SLO violated", e.session);
            }
        }
    }

    #[test]
    fn allocation_serves_all_rate() {
        // Summed planned service rate ≥ offered rate per session.
        let sessions = table2_sessions([150.0, 90.0, 60.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        for s in &sessions {
            let served: f64 = alloc
                .plans
                .iter()
                .flat_map(|p| {
                    p.entries
                        .iter()
                        .filter(|e| e.session == s.id)
                        .map(|e| f64::from(e.batch) / p.duty_cycle.as_secs_f64())
                })
                .sum();
            assert!(
                served + 1e-6 >= s.rate,
                "{}: served {served:.1} < rate {}",
                s.id,
                s.rate
            );
        }
    }

    #[test]
    fn infeasible_slo_reported() {
        let profile = BatchingProfile::from_linear_ms(1.0, 30.0, 16);
        let sessions = vec![SessionSpec::new(
            SessionId(7),
            profile,
            Micros::from_millis(40), // 2·ℓ(1) = 62 ms > 40 ms
            10.0,
        )];
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert_eq!(alloc.infeasible, vec![SessionId(7)]);
        assert_eq!(alloc.gpu_count(), 0);
    }

    #[test]
    fn oversized_model_reported_infeasible() {
        let profile = BatchingProfile::from_linear_ms(1.0, 5.0, 16).with_memory_bytes(2 * GPU_MEM);
        let sessions = vec![SessionSpec::new(
            SessionId(3),
            profile,
            Micros::from_millis(200),
            10.0,
        )];
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert_eq!(alloc.infeasible, vec![SessionId(3)]);
    }

    #[test]
    fn zero_rate_sessions_use_no_gpus() {
        let sessions = table2_sessions([0.0, 0.0, 0.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert_eq!(alloc.gpu_count(), 0);
        assert!(alloc.infeasible.is_empty());
    }

    #[test]
    fn low_rate_sessions_share_one_gpu() {
        // Ten sessions at 1 req/s each must not occupy ten GPUs.
        let mut sessions = Vec::new();
        for i in 0..10 {
            let profile = BatchingProfile::from_linear_ms(1.0, 5.0, 32);
            sessions.push(SessionSpec::new(
                SessionId(i),
                profile,
                Micros::from_millis(100),
                1.0,
            ));
        }
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        assert!(alloc.infeasible.is_empty());
        assert_eq!(alloc.gpu_count(), 1, "ten tiny sessions fit one GPU");
    }

    #[test]
    fn memory_limits_colocation() {
        // Two sessions that fit a duty cycle together but not in memory.
        let mem = 6u64 << 30;
        let profile = BatchingProfile::from_linear_ms(1.0, 5.0, 32).with_memory_bytes(4 << 30);
        let sessions = vec![
            SessionSpec::new(
                SessionId(0),
                profile.clone(),
                Micros::from_millis(200),
                20.0,
            ),
            SessionSpec::new(SessionId(1), profile, Micros::from_millis(200), 20.0),
        ];
        let alloc = squishy_bin_packing(&sessions, mem);
        assert!(alloc.infeasible.is_empty());
        assert_eq!(alloc.gpu_count(), 2, "memory forces separate GPUs");
    }

    #[test]
    fn lower_bound_is_below_allocation() {
        let sessions = table2_sessions([150.0, 90.0, 60.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        let lb = lower_bound_gpus(&sessions);
        assert!(lb <= alloc.gpu_count() as f64 + 1e-9);
        assert!(lb > 0.0);
    }

    proptest! {
        /// The rung table's `partition_point` finds exactly the boundary the
        /// old break-on-first-failure scan found, for any profile shape the
        /// repair invariants allow.
        #[test]
        fn residual_binary_search_matches_linear_scan(
            base_ms in 1u64..40,
            slope_tenths in 1u64..30,
            max_batch in 1u32..64,
            slo_ms in 10u64..600,
            rate in 0.5f64..2_000.0,
        ) {
            let profile = BatchingProfile::from_linear_ms(
                slope_tenths as f64 / 10.0,
                base_ms as f64,
                max_batch,
            );
            let s = SessionSpec::new(
                SessionId(0),
                profile,
                Micros::from_millis(slo_ms),
                rate,
            );
            let ladder = s.profile.ladder();
            // The feasibility boundary over the rung table.
            let rungs = ladder.rungs();
            let cut = rungs.partition_point(|&b| residual_duty(&s, b, rate).is_some());
            let searched = (cut > 0).then(|| {
                let b = rungs[cut - 1];
                (b, residual_duty(&s, b, rate).unwrap())
            });
            prop_assert_eq!(searched, reference::residual_rung_scan(&s, &ladder, rate));
            // And the scan restricted to rungs agrees with the full linear
            // scan whenever the full scan's answer is itself a rung.
            if let Some((b, duty)) = reference::residual_scan(&s, rate) {
                if rungs.contains(&b) {
                    prop_assert_eq!(reference::residual_rung_scan(&s, &ladder, rate), Some((b, duty)));
                }
            }
        }

        /// Probing merges without building them changes no plan: the
        /// packer returns the `Allocation` it returned when every probe
        /// allocated the merged node, under both merge orders. Sessions
        /// draw from a few shapes so equal-occupancy ties are common, and
        /// the memory cap sometimes binds.
        #[test]
        fn allocation_free_probes_match_allocating_ones(
            picks in prop::collection::vec((0usize..4, 0usize..8), 1..40),
            tight_memory in 0u32..3,
        ) {
            let shapes = [
                (BatchingProfile::from_linear_ms(1.0, 8.0, 32), 150),
                (BatchingProfile::from_linear_ms(2.5, 20.0, 64), 400),
                (BatchingProfile::from_linear_ms(0.2, 1.0, 16), 60),
                (BatchingProfile::from_linear_ms(1.0, 30.0, 8), 40), // infeasible
            ];
            let rates = [0.0, 0.7, 3.0, 3.0, 11.0, 40.0, 90.0, 700.0];
            let sessions: Vec<SessionSpec> = picks
                .iter()
                .enumerate()
                .map(|(i, &(shape, rate))| {
                    let (profile, slo_ms) = &shapes[shape];
                    SessionSpec::new(
                        SessionId(i as u32),
                        profile.clone().with_memory_bytes(1 << 30),
                        Micros::from_millis(*slo_ms),
                        rates[rate],
                    )
                })
                .collect();
            let memory = if tight_memory == 0 { 3 << 30 } else { GPU_MEM };
            for order in [MergeOrder::BestFit, MergeOrder::FirstFit] {
                prop_assert_eq!(
                    squishy_bin_packing_with(&sessions, memory, order),
                    reference::squishy_bin_packing_with(&sessions, memory, order)
                );
            }
        }

        /// Every plan the rung-restricted packer emits uses ladder rungs
        /// only, and the duty-cycle + SLO invariants hold as before.
        #[test]
        fn plans_use_ladder_rungs_exclusively(
            rates in prop::collection::vec(0.0f64..400.0, 1..6),
            slo_ms in 40u64..400,
        ) {
            let sessions: Vec<SessionSpec> = rates
                .iter()
                .enumerate()
                .map(|(i, &r)| {
                    SessionSpec::new(
                        SessionId(i as u32),
                        BatchingProfile::from_linear_ms(1.5, 6.0, 32),
                        Micros::from_millis(slo_ms),
                        r,
                    )
                })
                .collect();
            let alloc = squishy_bin_packing(&sessions, GPU_MEM);
            for plan in &alloc.plans {
                let exec_total: Micros = plan.entries.iter().map(|e| e.exec_latency).sum();
                prop_assert!(exec_total <= plan.duty_cycle);
                for e in &plan.entries {
                    let spec = sessions.iter().find(|s| s.id == e.session).unwrap();
                    let ladder = spec.profile.ladder();
                    prop_assert!(
                        ladder.rungs().contains(&e.batch),
                        "batch {} is not a rung of {:?}",
                        e.batch,
                        ladder.rungs()
                    );
                    let worst = if plan.saturated {
                        e.exec_latency * 2
                    } else {
                        plan.duty_cycle + e.exec_latency
                    };
                    prop_assert!(worst <= spec.slo);
                }
            }
        }
    }

    #[test]
    fn mean_occupancy_reported() {
        let sessions = table2_sessions([64.0, 32.0, 32.0]);
        let alloc = squishy_bin_packing(&sessions, GPU_MEM);
        let occ = alloc.mean_occupancy();
        assert!(occ > 0.3 && occ <= 1.0, "occ={occ}");
        assert_eq!(Allocation::default().mean_occupancy(), 0.0);
    }

    /// One session per `(shape, rate, large model)` pick. Few shapes and
    /// rates, so equal duty cycles and occupancies are common. The fourth
    /// shape's bottom rung is a third of its SLO: two of its sessions below
    /// 10 req/s fill a 100 ms cycle exactly, where the floor test is at its
    /// boundary. The fifth shape is infeasible.
    fn oracle_population(picks: &[(usize, usize, bool)]) -> Vec<SessionSpec> {
        let shapes = [
            (BatchingProfile::from_linear_ms(1.0, 8.0, 32), 150),
            (BatchingProfile::from_linear_ms(2.5, 20.0, 64), 400),
            (BatchingProfile::from_linear_ms(0.2, 1.0, 16), 60),
            (BatchingProfile::from_linear_ms(1.0, 49.0, 16), 150),
            (BatchingProfile::from_linear_ms(1.0, 30.0, 8), 40),
        ];
        let rates = [0.0, 0.7, 3.0, 3.0, 6.0, 9.5, 11.0, 40.0, 90.0, 700.0];
        picks
            .iter()
            .enumerate()
            .map(|(i, &(shape, rate, large))| {
                let (profile, slo_ms) = &shapes[shape];
                let memory = if large { 2 << 30 } else { 1 << 30 };
                SessionSpec::new(
                    SessionId(i as u32),
                    profile.clone().with_memory_bytes(memory),
                    Micros::from_millis(*slo_ms),
                    rates[rate],
                )
            })
            .collect()
    }

    fn oracle_picks() -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
        prop::collection::vec((0usize..5, 0usize..10, prop::bool::ANY), 50..400)
    }

    /// GPU memory for a case: roomy, or tight enough to bind often
    /// (models take 1 or 2 GiB).
    fn oracle_memory(pick: usize) -> u64 {
        [GPU_MEM, 3 << 30, 4 << 30][pick]
    }

    /// Drives ScheduleResidue by hand and checks, before every placement,
    /// that each open node's probe is `try_merge` on it. Stricter than
    /// comparing allocations: a wrong skip may not change the winner.
    fn probes_match_try_merge(sessions: &[SessionSpec], memory: u64) -> Result<(), TestCaseError> {
        let ladders: Vec<BatchLadder> = sessions.iter().map(|s| s.profile.ladder()).collect();
        let (_, residuals) = schedule_saturate(sessions, &ladders, memory);
        for order in [MergeOrder::BestFit, MergeOrder::FirstFit] {
            let mut residue = Residue::new(sessions, &ladders, memory);
            for r in &residuals {
                for (ni, node) in residue.nodes.iter().enumerate() {
                    prop_assert_eq!(
                        residue.probe(ni, r),
                        try_merge(node, r, sessions, &ladders, memory)
                    );
                }
                residue.place(r, order);
            }
        }
        Ok(())
    }

    fn packs_match_reference(sessions: &[SessionSpec], memory: u64) -> Result<(), TestCaseError> {
        for order in [MergeOrder::BestFit, MergeOrder::FirstFit] {
            prop_assert_eq!(
                squishy_bin_packing_with(sessions, memory, order),
                reference::squishy_bin_packing_with(sessions, memory, order)
            );
        }
        Ok(())
    }

    proptest! {
        // Few cases here, many in the ignored copies below: a longer CPU
        // burst in this binary stalls the real-socket tests that
        // `cargo test` runs right after it on a 2-vCPU machine.
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The memory and floor filters skip only nodes `try_merge`
        /// rejects, and the cached member sum is what its loop would add.
        #[test]
        fn residue_probes_equal_try_merge(picks in oracle_picks(), memory in 0usize..3) {
            probes_match_try_merge(&oracle_population(&picks), oracle_memory(memory))?;
        }

        /// The filtered packer returns the reference's `Allocation` at the
        /// benchmark's scale, under both merge orders.
        #[test]
        fn filtered_packer_matches_reference_at_scale(picks in oracle_picks(), memory in 0usize..3) {
            packs_match_reference(&oracle_population(&picks), oracle_memory(memory))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `residue_probes_equal_try_merge` at 2048 cases (CI's
        /// `planner-oracles` step runs it in release).
        #[test]
        #[ignore = "2048 cases; run with --release -- --ignored"]
        fn residue_probes_equal_try_merge_2048(picks in oracle_picks(), memory in 0usize..3) {
            probes_match_try_merge(&oracle_population(&picks), oracle_memory(memory))?;
        }

        /// `filtered_packer_matches_reference_at_scale` at 2048 cases.
        #[test]
        #[ignore = "2048 cases; run with --release -- --ignored"]
        fn filtered_packer_matches_reference_at_scale_2048(
            picks in oracle_picks(),
            memory in 0usize..3,
        ) {
            packs_match_reference(&oracle_population(&picks), oracle_memory(memory))?;
        }
    }
}
