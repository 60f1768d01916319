//! Single-GPU micro-simulation used by the dispatch and multiplexing
//! studies (Fig. 5, Fig. 9, Fig. 14, Fig. 15).
//!
//! Unlike the full [`cluster`](crate::cluster) simulation, this fixes one
//! GPU and a handful of sessions with explicit profiles, which is exactly
//! the shape of the paper's micro-benchmarks: lazy-vs-early drop on a
//! synthetic profile, k copies of Inception multiplexed on one GPU, and
//! prefix-batched variant serving.

use nexus_profile::{BatchLadder, BatchingProfile, Micros};
use nexus_simgpu::{EventQueue, InterferenceModel};
use nexus_workload::{rng_for, ArrivalGen, ArrivalKind};

use crate::dispatch::{classify_drop, BatchPull, DropPolicy, MiniBatch, SessionQueue};
use crate::request::{Request, RequestId};
use crate::trace::{DropCause, Trace, TraceEvent};
use nexus_scheduler::SessionId;

/// One session offered to the node.
#[derive(Debug, Clone)]
pub struct NodeSession {
    /// Effective batching profile (CPU folded in).
    pub profile: BatchingProfile,
    /// Latency SLO per request.
    pub slo: Micros,
    /// Offered rate, req/s.
    pub rate: f64,
    /// Arrival process.
    pub arrival: ArrivalKind,
}

/// Node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Round-robin exclusive execution (Nexus/TF) vs parallel containers
    /// (Clipper, Nexus-parallel).
    pub coordinated: bool,
    /// Dispatch policy.
    pub drop_policy: DropPolicy,
    /// Interference model for uncoordinated execution.
    pub interference: InterferenceModel,
    /// Device memory; sessions that do not fit are rejected wholesale.
    pub gpu_memory: u64,
    /// RNG seed.
    pub seed: u64,
    /// Arrivals generated in `[0, horizon)`.
    pub horizon: Micros,
    /// Measurement window starts here.
    pub warmup: Micros,
    /// Execute exactly the planned batch sizes (the strict §6.3 GPU
    /// scheduler) instead of letting the dispatcher grow windows into
    /// deadline slack. The Fig. 15 sub-batch comparison needs this.
    pub strict_batches: bool,
    /// Batch-plan ladders (DESIGN.md §16): plan batch sizes on the
    /// profile's rung table and execute each slot as a greedy sequence of
    /// rung-shaped minibatches, recursing on the leftover instead of
    /// waiting a full duty cycle. Off reproduces the classic
    /// one-variable-batch-per-slot execution.
    pub ladder: bool,
    /// Maximum trace events to capture (0 disables tracing).
    pub trace_capacity: usize,
}

/// Per-session counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSessionStats {
    /// Arrivals in the measurement window.
    pub arrived: u64,
    /// Completed within SLO.
    pub good: u64,
    /// Completed late.
    pub late: u64,
    /// Dropped.
    pub dropped: u64,
}

/// Outcome of a node simulation.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Per-session stats (window arrivals only).
    pub sessions: Vec<NodeSessionStats>,
    /// Whether each session's model fit in memory.
    pub loaded: Vec<bool>,
    /// Fraction of window arrivals that were late or dropped.
    pub bad_rate: f64,
    /// Good completions per second over the window.
    pub goodput: f64,
    /// GPU busy fraction over the window.
    pub utilization: f64,
    /// Captured execution trace, when enabled.
    pub trace: Option<Trace>,
}

enum Ev {
    Arrival(usize),
    Wake(usize),
    Done {
        slot: usize,
        batch: Vec<Request>,
        /// Execution start (trace phase boundary; dead data when off).
        started: Micros,
        /// Trace batch id (0 when tracing is off).
        seq: u64,
        /// Whether this completion releases the slot (and, coordinated,
        /// the node). Ladder execution emits one `Done` per minibatch at
        /// its cumulative finish; only the final one frees the GPU.
        last: bool,
    },
}

struct NodeSlot {
    queue: SessionQueue,
    target: u32,
    /// Cyclic batch-assignment ladder; pull `c` serves `plan[c % len]`.
    /// A single-element plan is the classic static fit.
    plan: Vec<u32>,
    /// Completed pulls, indexing the assignment rotation.
    serves: u32,
    gather: Micros,
    reserve: Micros,
    timing: nexus_profile::BatchingProfile,
    busy: bool,
    loaded: bool,
}

/// Whether `t` falls in the measurement window.
fn in_window(cfg: &NodeConfig, t: Micros) -> bool {
    t >= cfg.warmup && t < cfg.horizon
}

/// The event loop's working state.
struct Node<'a> {
    cfg: &'a NodeConfig,
    sessions: &'a [NodeSession],
    ladders: Vec<BatchLadder>,
    slots: Vec<NodeSlot>,
    events: EventQueue<Ev>,
    stats: Vec<NodeSessionStats>,
    trace: Option<Trace>,
    scratch: BatchPull,
    mb_scratch: Vec<MiniBatch>,
    pool: Vec<Vec<Request>>,
    /// Coordinated: whole-GPU mutex.
    node_busy: bool,
    cursor: usize,
    busy_us: u64,
}

impl Node<'_> {
    /// The service scan: a free coordinated node serves the first ready
    /// slot round-robin from the cursor; a container serves slot `i` alone.
    fn serve(&mut self, now: Micros, i: usize) {
        let cfg = self.cfg;
        let n_slots = self.slots.len();
        let (base, count) = if !cfg.coordinated {
            (i, 1)
        } else if self.node_busy {
            return;
        } else {
            (self.cursor, n_slots)
        };
        for k in 0..count {
            let si = if count == 1 {
                base
            } else {
                (base + k) % n_slots
            };
            let slot = &mut self.slots[si];
            if slot.busy || slot.queue.is_empty() || !slot.loaded {
                continue;
            }
            // This pull's batch assignment: the next step of the slot's
            // cyclic assignment ladder (static plans have one step).
            let assigned = if cfg.ladder {
                slot.plan[(slot.serves as usize) % slot.plan.len()]
            } else {
                slot.target
            };
            let queued = slot.queue.len() as u32;
            if queued < assigned {
                let oldest_arr = slot.queue.oldest_arrival().expect("non-empty");
                let oldest_dl = slot.queue.oldest_deadline().expect("non-empty");
                let n = queued.max(1);
                // The latest safe start tracks the shape execution will
                // pay: the covering rung in ladder mode, ℓ(n) otherwise.
                let exec_est = if cfg.ladder {
                    self.ladders[si].smallest_rung_geq(n).1
                } else {
                    slot.timing.latency_clamped(n)
                };
                let forced = oldest_dl
                    .saturating_sub(exec_est)
                    .saturating_sub(slot.reserve)
                    .min(oldest_arr + slot.gather);
                if now < forced {
                    self.events.push(forced.max(now), Ev::Wake(si));
                    continue;
                }
            }
            // Under strict batching an infinite reserve pins the early-drop
            // window to the planned batch size. Rotating plans re-split the
            // worst case per pull: the reserve is the duty minus this
            // pull's own execution share.
            let reserve = if cfg.strict_batches {
                Micros::MAX
            } else if cfg.ladder && cfg.coordinated {
                slot.gather
                    .saturating_sub(self.ladders[si].rung_latency(assigned))
            } else {
                slot.reserve
            };
            if cfg.ladder {
                // Coordinated slots are capped at the assigned slot length
                // so the rung sequence never runs past what the shared plan
                // promised co-located sessions; uncoordinated dispatch owns
                // its container and recurses to the request budgets.
                let allowance = if cfg.coordinated {
                    self.ladders[si].rung_latency(assigned)
                } else {
                    Micros::MAX
                };
                slot.queue.pull_ladder_into(
                    now,
                    assigned,
                    allowance,
                    &self.sessions[si].profile,
                    &self.ladders[si],
                    cfg.drop_policy,
                    reserve,
                    &mut self.scratch,
                    &mut self.mb_scratch,
                );
            } else {
                slot.queue.pull_into(
                    now,
                    slot.target,
                    &self.sessions[si].profile,
                    cfg.drop_policy,
                    reserve,
                    &mut self.scratch,
                );
            }
            let min_start = self
                .trace
                .is_some()
                .then(|| now + slot.timing.latency_clamped(1));
            for r in self.scratch.dropped.drain(..) {
                if in_window(cfg, r.arrival) {
                    self.stats[si].dropped += 1;
                }
                if let Some(tr) = &mut self.trace {
                    tr.push(TraceEvent::Drop {
                        t: now,
                        request: r.id.0,
                        session: r.session,
                        cause: classify_drop(r.deadline, min_start.expect("set when tracing")),
                    });
                }
            }
            if self.scratch.batch.is_empty() {
                if let Some(expiry) = slot.queue.oldest_deadline() {
                    self.events.push(expiry.max(now + Micros(1)), Ev::Wake(si));
                }
                continue;
            }
            let concurrent = if cfg.coordinated {
                self.node_busy = true;
                self.cursor = (si + 1) % n_slots;
                1
            } else {
                1 + self.slots.iter().filter(|s| s.busy).count()
            };
            let factor = cfg.interference.slowdown(concurrent);
            self.slots[si].busy = true;
            self.slots[si].serves = self.slots[si].serves.wrapping_add(1);
            if cfg.ladder {
                // Execute the rung sequence back-to-back in this slot: one
                // `Done` per minibatch at its cumulative finish; only the
                // last releases the GPU. A padded tail (len < rung) still
                // pays — and is billed — the full rung latency.
                let mb_count = self.mb_scratch.len();
                let mut start = now;
                for j in 0..mb_count {
                    let mb = self.mb_scratch[j];
                    let duration = self.ladders[si].rung_latency(mb.rung).scale(factor);
                    let mut part = self.pool.pop().unwrap_or_default();
                    part.extend(self.scratch.batch.drain(..mb.len as usize));
                    let last = j + 1 == mb_count;
                    self.launch(si, part, start, duration, concurrent, mb.rung, j > 0, last);
                    start += duration;
                }
                debug_assert!(self.scratch.batch.is_empty());
                return;
            }
            // Hand the batch out and leave a recycled buffer in the scratch.
            let batch =
                std::mem::replace(&mut self.scratch.batch, self.pool.pop().unwrap_or_default());
            let b = batch.len() as u32;
            let duration = self.sessions[si].profile.latency_clamped(b).scale(factor);
            self.launch(si, batch, now, duration, concurrent, b, false, true);
            return;
        }
    }

    /// Launches `batch` on slot `si` over `[start, start + duration)`:
    /// bills the fair-share device time, traces the batch and schedules its
    /// completion. `last` marks the execution that releases the slot.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        si: usize,
        batch: Vec<Request>,
        start: Micros,
        duration: Micros,
        concurrent: usize,
        rung: u32,
        leftover: bool,
        last: bool,
    ) {
        self.busy_us += duration.as_micros() / concurrent as u64;
        let seq = match &mut self.trace {
            Some(tr) => {
                let seq = tr.alloc_batch_seq();
                tr.push(TraceEvent::Batch {
                    t: start,
                    backend: 0,
                    session: SessionId(si as u32),
                    size: batch.len() as u32,
                    duration,
                    rung,
                    leftover,
                    seq,
                });
                seq
            }
            None => 0,
        };
        self.events.push(
            start + duration,
            Ev::Done {
                slot: si,
                batch,
                started: start,
                seq,
                last,
            },
        );
    }
}

/// Fits shared round-robin batch sizes: start each session at its
/// standalone SLO-max batch, then shrink the largest contributor until
/// every session's worst-case latency `Σℓ(b_j) + ℓ(b_i) ≤ L_i` (or all
/// batches hit 1 — an overloaded node that will shed).
pub fn fit_shared_batches(sessions: &[NodeSession]) -> Vec<u32> {
    let mut b: Vec<u32> = sessions
        .iter()
        .map(|s| s.profile.max_batch_for_slo(s.slo).max(1))
        .collect();
    loop {
        let cycle: Micros = sessions
            .iter()
            .zip(&b)
            .map(|(s, &bi)| s.profile.latency(bi))
            .sum();
        let violated = sessions
            .iter()
            .zip(&b)
            .any(|(s, &bi)| cycle + s.profile.latency(bi) > s.slo);
        if !violated {
            return b;
        }
        // Shrink the largest batch-latency contributor that can shrink.
        let worst = (0..sessions.len())
            .filter(|&i| b[i] > 1)
            .max_by_key(|&i| sessions[i].profile.latency(b[i]));
        match worst {
            Some(i) => b[i] -= 1,
            None => return b, // everything at 1; overloaded
        }
    }
}

/// Ladder-mode shared planning: a cyclic ladder of batch assignments per
/// slot instead of one static size.
///
/// Starts from [`fit_shared_batches`], then groups interchangeable sessions
/// (identical profile, SLO, and rate) and rotates each group's assignment
/// multiset across its members, staggered so every cycle executes the same
/// multiset. Rotation fixes the static fit's asymmetry — under a plan like
/// `[10,10,9,9,9]` with equal offered load the 9-slots shed while the
/// 10-slots idle; rotated, every member gets the same long-run capacity.
///
/// Because a slot's inter-pull gap is one full duty cycle no matter which
/// assignment it serves, rotation also admits a mild upgrade: the group's
/// largest assignment may overhang the worst-case bound `D + ℓ(b) ≤ L` by
/// up to an eighth of the mean inter-arrival. The overhang only threatens
/// the single oldest request in the upgraded pull, and only in the sliver
/// of arrival phases where its age exceeds `L − ℓ(b)`; the early-drop
/// host-window sacrifices exactly that request rather than serving it
/// late, so the upgrade buys capacity at a vanishing shed rate.
///
/// Returns one assignment vector per slot; slot `i` serves
/// `plan[i][serves % plan[i].len()]`. Singleton groups get their static
/// fit back unchanged (no rotation partner, no upgrade slack).
pub fn plan_shared_ladder(sessions: &[NodeSession]) -> Vec<Vec<u32>> {
    let base = fit_shared_batches(sessions);
    // Group interchangeable sessions, preserving first-seen order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..sessions.len() {
        let found = groups.iter_mut().find(|g| {
            let s = &sessions[g[0]];
            s.profile == sessions[i].profile
                && s.slo == sessions[i].slo
                && s.rate == sessions[i].rate
        });
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    // Assignment multiset per group, largest first.
    let mut assign: Vec<Vec<u32>> = groups
        .iter()
        .map(|g| {
            let mut v: Vec<u32> = g.iter().map(|&i| base[i]).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v
        })
        .collect();
    let duty_of = |assign: &[Vec<u32>]| -> Micros {
        groups
            .iter()
            .zip(assign)
            .flat_map(|(g, a)| {
                let p = &sessions[g[0]].profile;
                a.iter().map(move |&b| p.latency(b))
            })
            .sum()
    };
    let feasible = |assign: &[Vec<u32>]| -> bool {
        let duty = duty_of(assign);
        groups.iter().zip(assign).all(|(g, a)| {
            let s = &sessions[g[0]];
            let top = a[0];
            let slack = if g.len() >= 2 && s.rate > 0.0 {
                Micros::from_secs_f64(1.0 / (8.0 * s.rate))
            } else {
                Micros::ZERO
            };
            a.iter().all(|&b| {
                let allow = if b == top { slack } else { Micros::ZERO };
                duty + s.profile.latency(b) <= s.slo + allow
            })
        })
    };
    // Greedy upgrade: bump the smallest assignment of some rotating group
    // by one while the plan stays feasible and capacity strictly rises —
    // but only for groups whose offered rate exceeds their rotated
    // capacity. Below that the static fit already clears the load, and a
    // bigger gather target would only add latency for nothing.
    loop {
        let duty = duty_of(&assign);
        let total: u32 = assign.iter().flatten().sum();
        let capacity = f64::from(total) / duty.as_micros().max(1) as f64;
        let mut upgraded = false;
        for (gi, g) in groups.iter().enumerate() {
            if g.len() < 2 {
                continue;
            }
            // Per-session capacity of the rotated multiset: each member
            // serves the whole multiset once every `len` duty cycles.
            let served: u32 = assign[gi].iter().sum();
            let per_session =
                f64::from(served) / (g.len() as f64 * duty.as_micros().max(1) as f64 / 1e6);
            if sessions[g[0]].rate <= per_session {
                continue;
            }
            let max_b = sessions[g[0]].profile.max_batch();
            let last = assign[gi].len() - 1;
            if assign[gi][last] >= max_b {
                continue;
            }
            let mut cand = assign.to_vec();
            cand[gi][last] += 1;
            cand[gi].sort_unstable_by(|a, b| b.cmp(a));
            let cand_total: u32 = cand.iter().flatten().sum();
            let cand_cap = f64::from(cand_total) / duty_of(&cand).as_micros().max(1) as f64;
            if cand_cap > capacity && feasible(&cand) {
                assign = cand;
                upgraded = true;
                break;
            }
        }
        if !upgraded {
            break;
        }
    }
    // Stagger: member j of a group starts at offset j in the multiset, so
    // each cycle executes exactly the multiset and the duty stays `D`.
    let mut plan = vec![Vec::new(); sessions.len()];
    for (gi, g) in groups.iter().enumerate() {
        for (j, &si) in g.iter().enumerate() {
            let a = &assign[gi];
            plan[si] = (0..a.len()).map(|c| a[(j + c) % a.len()]).collect();
        }
    }
    plan
}

/// Runs the node simulation.
///
/// # Examples
///
/// ```
/// use nexus_profile::{BatchingProfile, Micros};
/// use nexus_runtime::{simulate_node, DropPolicy, NodeConfig, NodeSession};
/// use nexus_workload::ArrivalKind;
///
/// let outcome = simulate_node(
///     &NodeConfig {
///         coordinated: true,
///         drop_policy: DropPolicy::Early,
///         interference: Default::default(),
///         gpu_memory: 11 << 30,
///         seed: 1,
///         horizon: Micros::from_secs(10),
///         warmup: Micros::from_secs(2),
///         strict_batches: false,
///         ladder: false,
///         trace_capacity: 0,
///     },
///     &[NodeSession {
///         profile: BatchingProfile::from_linear_ms(1.0, 8.0, 32),
///         slo: Micros::from_millis(100),
///         rate: 200.0,
///         arrival: ArrivalKind::Uniform,
///     }],
/// );
/// assert!(outcome.bad_rate < 0.01);
/// ```
pub fn simulate_node(cfg: &NodeConfig, sessions: &[NodeSession]) -> NodeOutcome {
    let n = sessions.len();
    // The batch plan: a cyclic assignment ladder per slot under coordinated
    // ladder mode, a single static size otherwise.
    let plans: Vec<Vec<u32>> = if cfg.coordinated && cfg.ladder {
        plan_shared_ladder(sessions)
    } else if cfg.coordinated {
        fit_shared_batches(sessions)
            .into_iter()
            .map(|b| vec![b])
            .collect()
    } else {
        sessions
            .iter()
            .map(|s| vec![s.profile.max_batch_for_slo(s.slo).max(1)])
            .collect()
    };
    // Every planned assignment is materialised as a rung, so dispatch only
    // ever executes compiled shapes.
    let ladders: Vec<BatchLadder> = sessions
        .iter()
        .zip(&plans)
        .map(|(s, plan)| {
            let mut l = BatchLadder::from_profile(&s.profile);
            for &b in plan {
                l = l.with_rung(b, &s.profile);
            }
            l
        })
        .collect();
    // Static target per slot (the largest assignment) for sizing and the
    // classic path; staggered rotation executes exactly one multiset per
    // cycle, so the duty is the sum over one cycle's assignments.
    let batches: Vec<u32> = plans
        .iter()
        .map(|p| p.iter().copied().max().unwrap_or(1))
        .collect();
    let duty: Micros = if cfg.coordinated {
        sessions
            .iter()
            .zip(&plans)
            .map(|(s, p)| s.profile.latency(p[0]))
            .sum()
    } else {
        Micros::ZERO
    };

    // Memory admission: load in order until full.
    let mut mem = 0u64;
    let k = sessions.len().max(1);
    let slots: Vec<NodeSlot> = sessions
        .iter()
        .zip(batches.iter().zip(&plans))
        .map(|(s, (&target, plan))| {
            let fits = mem + s.profile.memory_bytes() <= cfg.gpu_memory;
            if fits {
                mem += s.profile.memory_bytes();
            }
            let (gather, reserve, timing) = if cfg.coordinated {
                (
                    duty,
                    duty.saturating_sub(s.profile.latency_clamped(target)),
                    s.profile.clone(),
                )
            } else {
                (
                    Micros::from_secs_f64(f64::from(target) / s.rate)
                        .min(Micros::from_micros(s.slo.as_micros() / 2)),
                    Micros::ZERO,
                    cfg.interference.stretched_profile(&s.profile, k),
                )
            };
            NodeSlot {
                queue: SessionQueue::new(),
                target,
                plan: plan.clone(),
                serves: 0,
                gather,
                reserve,
                timing,
                busy: false,
                loaded: fits,
            }
        })
        .collect();

    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut gens: Vec<ArrivalGen> = Vec::with_capacity(n);
    let mut rngs = Vec::with_capacity(n);
    for (i, s) in sessions.iter().enumerate() {
        let mut gen = ArrivalGen::new(s.arrival, s.rate);
        let mut rng = rng_for(cfg.seed, i as u64);
        if let Some(t) = gen.next_arrival(cfg.horizon, &mut rng) {
            events.push(t, Ev::Arrival(i));
        }
        gens.push(gen);
        rngs.push(rng);
    }

    let mut node = Node {
        cfg,
        sessions,
        ladders,
        slots,
        events,
        stats: vec![NodeSessionStats::default(); n],
        trace: (cfg.trace_capacity > 0).then(|| Trace::new(cfg.trace_capacity)),
        scratch: BatchPull::default(),
        mb_scratch: Vec::new(),
        pool: Vec::new(),
        node_busy: false,
        cursor: 0,
        busy_us: 0,
    };
    let mut next_req = 0u64;

    // Terminal accounting for a request.
    macro_rules! account {
        ($req:expr, $kind:ident) => {
            if in_window(cfg, $req.arrival) {
                node.stats[$req.session.0 as usize].$kind += 1;
            }
        };
    }

    while let Some((now, ev)) = node.events.pop() {
        match ev {
            Ev::Arrival(i) => {
                if let Some(t) = gens[i].next_arrival(cfg.horizon, &mut rngs[i]) {
                    node.events.push(t.max(now), Ev::Arrival(i));
                }
                if in_window(cfg, now) {
                    node.stats[i].arrived += 1;
                }
                // Ids advance even for rejected arrivals so traced and
                // untraced runs label requests identically.
                let rid = next_req;
                next_req += 1;
                if let Some(tr) = &mut node.trace {
                    tr.push(TraceEvent::Arrival {
                        t: now,
                        request: rid,
                        session: SessionId(i as u32),
                    });
                }
                if !node.slots[i].loaded {
                    if in_window(cfg, now) {
                        node.stats[i].dropped += 1;
                    }
                    if let Some(tr) = &mut node.trace {
                        tr.push(TraceEvent::Drop {
                            t: now,
                            request: rid,
                            session: SessionId(i as u32),
                            cause: DropCause::NoRoute,
                        });
                    }
                    continue;
                }
                node.slots[i].queue.push(Request {
                    id: RequestId(rid),
                    session: SessionId(i as u32),
                    arrival: now,
                    deadline: now + sessions[i].slo,
                    query: None,
                });
                node.serve(now, i);
            }
            Ev::Wake(i) => node.serve(now, i),
            Ev::Done {
                slot,
                mut batch,
                started,
                seq,
                last,
            } => {
                for req in &batch {
                    if now <= req.deadline {
                        account!(req, good);
                    } else {
                        account!(req, late);
                    }
                    if let Some(tr) = &mut node.trace {
                        tr.push(TraceEvent::Completion {
                            t: now,
                            request: req.id.0,
                            session: req.session,
                            latency: now - req.arrival,
                            exec_start: started,
                            batch_seq: seq,
                            good: now <= req.deadline,
                        });
                    }
                }
                batch.clear();
                node.pool.push(batch);
                if !last {
                    // A ladder minibatch finished but the slot's rung
                    // sequence is still executing; the GPU stays held.
                    continue;
                }
                node.slots[slot].busy = false;
                node.node_busy = false;
                node.serve(now, slot);
            }
        }
    }
    let Node {
        mut slots,
        mut stats,
        mut trace,
        busy_us,
        ..
    } = node;

    // Requests still queued never completed.
    for (i, slot) in slots.iter_mut().enumerate() {
        for r in slot.queue.drain() {
            if in_window(cfg, r.arrival) {
                stats[i].dropped += 1;
            }
            if let Some(tr) = &mut trace {
                tr.push(TraceEvent::Drop {
                    t: cfg.horizon,
                    request: r.id.0,
                    session: SessionId(i as u32),
                    cause: DropCause::RunEnd,
                });
            }
        }
    }

    let window = (cfg.horizon - cfg.warmup).as_secs_f64().max(1e-9);
    let (mut good, mut bad) = (0u64, 0u64);
    for s in &stats {
        good += s.good;
        bad += s.late + s.dropped;
    }
    let total = good + bad;
    NodeOutcome {
        loaded: slots.iter().map(|s| s.loaded).collect(),
        sessions: stats,
        bad_rate: if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        },
        goodput: good as f64 / window,
        utilization: (busy_us as f64 / 1e6 / (cfg.horizon.as_secs_f64())).min(1.0),
        // NOTE: utilization is over the whole run, a close proxy for the
        // window at steady state.
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::catalog::INCEPTION3;

    fn cfg(coordinated: bool, policy: DropPolicy, seed: u64) -> NodeConfig {
        NodeConfig {
            coordinated,
            drop_policy: policy,
            interference: InterferenceModel::default(),
            gpu_memory: 11 << 30,
            seed,
            horizon: Micros::from_secs(20),
            warmup: Micros::from_secs(5),
            strict_batches: false,
            ladder: false,
            trace_capacity: 0,
        }
    }

    fn inception_session(rate: f64, slo_ms: u64) -> NodeSession {
        NodeSession {
            profile: INCEPTION3.profile_1080ti().effective(true, 4),
            slo: Micros::from_millis(slo_ms),
            rate,
            arrival: ArrivalKind::Uniform,
        }
    }

    #[test]
    fn single_session_under_capacity_is_clean() {
        let s = inception_session(300.0, 100);
        let out = simulate_node(&cfg(true, DropPolicy::Early, 1), &[s]);
        assert!(out.bad_rate < 0.01, "bad={}", out.bad_rate);
        assert!(
            (out.goodput - 300.0).abs() < 10.0,
            "goodput={}",
            out.goodput
        );
    }

    #[test]
    fn overload_sheds_with_early_drop() {
        // Far beyond one GPU's capacity.
        let s = inception_session(5_000.0, 100);
        let out = simulate_node(&cfg(true, DropPolicy::Early, 2), &[s]);
        assert!(out.bad_rate > 0.3);
        // But the GPU stays productive: goodput near its capacity.
        assert!(out.goodput > 500.0, "goodput={}", out.goodput);
        assert!(out.utilization > 0.7, "util={}", out.utilization);
    }

    #[test]
    fn coordinated_beats_uncoordinated_on_shared_node() {
        // Fig. 14's core claim: 3 Inception copies on one GPU at 100 ms SLO.
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(250.0, 100)).collect();
        let coord = simulate_node(&cfg(true, DropPolicy::Early, 3), &sessions);
        let uncoord = simulate_node(&cfg(false, DropPolicy::Early, 3), &sessions);
        assert!(
            coord.goodput > uncoord.goodput,
            "coordinated {} vs uncoordinated {}",
            coord.goodput,
            uncoord.goodput
        );
    }

    #[test]
    fn oversized_models_are_rejected_not_crashed() {
        let mut s = inception_session(10.0, 200);
        s.profile = s.profile.with_memory_bytes(64 << 30);
        let out = simulate_node(&cfg(true, DropPolicy::Early, 4), &[s]);
        assert_eq!(out.loaded, vec![false]);
        assert!(out.bad_rate > 0.99);
    }

    #[test]
    fn shared_batches_respect_slos() {
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(100.0, 100)).collect();
        let b = fit_shared_batches(&sessions);
        let cycle: Micros = sessions
            .iter()
            .zip(&b)
            .map(|(s, &bi)| s.profile.latency(bi))
            .sum();
        for (s, &bi) in sessions.iter().zip(&b) {
            assert!(cycle + s.profile.latency(bi) <= s.slo);
        }
    }

    #[test]
    fn shared_ladder_plan_rotates_and_respects_slos() {
        let sessions: Vec<NodeSession> = (0..5).map(|_| inception_session(115.0, 100)).collect();
        let plan = plan_shared_ladder(&sessions);
        // Interchangeable sessions rotate one shared multiset, staggered:
        // every slot's ladder is a rotation of slot 0's, and each cycle
        // (column) executes exactly the multiset.
        let mut multiset = plan[0].clone();
        multiset.sort_unstable();
        for p in &plan {
            assert_eq!(p.len(), sessions.len());
            let mut m = p.clone();
            m.sort_unstable();
            assert_eq!(m, multiset, "same multiset on every slot");
        }
        for c in 0..plan[0].len() {
            let mut col: Vec<u32> = plan.iter().map(|p| p[c]).collect();
            col.sort_unstable();
            assert_eq!(col, multiset, "every cycle serves the full multiset");
        }
        // Duty-cycle accounting: the worst case `D + ℓ(b)` holds strictly
        // for all but the top assignment, which may use the phase slack of
        // an eighth of the mean inter-arrival.
        let duty: Micros = sessions
            .iter()
            .zip(&plan)
            .map(|(s, p)| s.profile.latency(p[0]))
            .sum();
        let top = *multiset.last().expect("non-empty");
        for (s, p) in sessions.iter().zip(&plan) {
            for &b in p {
                let slack = if b == top {
                    Micros::from_secs_f64(1.0 / (8.0 * s.rate))
                } else {
                    Micros::ZERO
                };
                assert!(duty + s.profile.latency(b) <= s.slo + slack);
            }
        }
        // Rotation never plans below the static fit's aggregate.
        let static_sum: u32 = fit_shared_batches(&sessions).iter().sum();
        let rotated_sum: u32 = multiset.iter().sum();
        assert!(rotated_sum >= static_sum);
        // Heterogeneous sessions fall back to their static fit (no
        // rotation partner, no upgrade slack).
        let mixed = vec![inception_session(100.0, 100), inception_session(100.0, 150)];
        let mixed_plan = plan_shared_ladder(&mixed);
        let static_fit = fit_shared_batches(&mixed);
        assert_eq!(mixed_plan[0], vec![static_fit[0]]);
        assert_eq!(mixed_plan[1], vec![static_fit[1]]);
    }

    #[test]
    fn ladder_node_is_deterministic_and_competitive() {
        let sessions: Vec<NodeSession> = (0..4).map(|_| inception_session(220.0, 100)).collect();
        let mut lc = cfg(true, DropPolicy::Early, 11);
        lc.ladder = true;
        let a = simulate_node(&lc, &sessions);
        let b = simulate_node(&lc, &sessions);
        assert_eq!(a.sessions, b.sessions, "ladder runs replay identically");
        let classic = simulate_node(&cfg(true, DropPolicy::Early, 11), &sessions);
        // The ladder serves tight-budget fronts in smaller rungs instead of
        // sacrificing them; goodput must not collapse relative to classic.
        assert!(
            a.goodput >= classic.goodput * 0.9,
            "ladder {} vs classic {}",
            a.goodput,
            classic.goodput
        );
    }

    #[test]
    fn ladder_traces_rungs_and_leftovers() {
        let sessions: Vec<NodeSession> = (0..3).map(|_| inception_session(400.0, 100)).collect();
        let mut lc = cfg(true, DropPolicy::Early, 13);
        lc.ladder = true;
        lc.trace_capacity = 1 << 20;
        let out = simulate_node(&lc, &sessions);
        let plan = plan_shared_ladder(&sessions);
        let ladders: Vec<BatchLadder> = sessions
            .iter()
            .zip(&plan)
            .map(|(s, p)| {
                let mut l = BatchLadder::from_profile(&s.profile);
                for &b in p {
                    l = l.with_rung(b, &s.profile);
                }
                l
            })
            .collect();
        let tr = out.trace.expect("enabled");
        let mut batches = 0u64;
        for e in tr.events() {
            if let TraceEvent::Batch {
                session,
                size,
                rung,
                ..
            } = e
            {
                let l = &ladders[session.0 as usize];
                assert!(l.rungs().contains(rung), "executed rung {rung} is a rung");
                assert!(size <= rung, "slot never overfilled: {size} > {rung}");
                batches += 1;
            }
        }
        assert!(batches > 0);
    }

    #[test]
    fn tracing_is_off_path_and_partitions_lifetimes() {
        let sessions: Vec<NodeSession> = (0..2).map(|_| inception_session(400.0, 100)).collect();
        let plain = simulate_node(&cfg(true, DropPolicy::Early, 7), &sessions);
        assert!(plain.trace.is_none());
        let mut traced_cfg = cfg(true, DropPolicy::Early, 7);
        traced_cfg.trace_capacity = 1 << 20;
        let traced = simulate_node(&traced_cfg, &sessions);
        // Same counters with and without the recorder.
        assert_eq!(plain.sessions, traced.sessions);
        let tr = traced.trace.expect("enabled");
        assert_eq!(tr.truncated, 0);
        let mut completions = 0u64;
        for e in tr.events() {
            if let TraceEvent::Completion {
                t,
                latency,
                exec_start,
                batch_seq,
                ..
            } = e
            {
                let arrival = *t - *latency;
                assert!(arrival <= *exec_start && *exec_start <= *t);
                assert!(*batch_seq > 0);
                completions += 1;
            }
        }
        let good: u64 = traced.sessions.iter().map(|s| s.good + s.late).sum();
        // Every window completion is traced (warmup ones too, hence >=).
        assert!(completions >= good);
    }

    #[test]
    fn deterministic_across_runs() {
        let sessions: Vec<NodeSession> = (0..2).map(|_| inception_session(200.0, 120)).collect();
        let a = simulate_node(&cfg(true, DropPolicy::Early, 9), &sessions);
        let b = simulate_node(&cfg(true, DropPolicy::Early, 9), &sessions);
        assert_eq!(a.sessions, b.sessions);
    }
}
