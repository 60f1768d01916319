//! Complex query scheduling (§4.2, §6.2): splitting a whole-query latency
//! SLO across the stages of a dataflow graph of model invocations.
//!
//! Applications submit queries like "detect objects with SSD, then recognize
//! each detected car and face" (Fig. 8) with one end-to-end SLO. The global
//! scheduler must derive per-model SLOs that (a) sum to at most the query
//! SLO along every root-to-leaf path and (b) minimize the total number of
//! GPUs, accounting for each stage's request rate — which is the root rate
//! multiplied by the fan-out factor γ along the path (§4.2).
//!
//! A dynamic program over a discretized time budget solves tree-shaped
//! dataflow graphs: `f(u, t)` = minimum GPUs to run `u`'s subtree within
//! budget `t`, splitting `t` between `u`'s own execution window and the
//! children's remaining budget.

use serde::{Deserialize, Serialize};

use nexus_profile::{BatchLadder, BatchingProfile, Micros};

/// One stage (model invocation) of a query dataflow graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryStage {
    /// Stage name (model name, for reporting).
    pub name: String,
    /// Batching profile of the stage's model.
    pub profile: BatchingProfile,
    /// Children: `(stage index, γ)` — each invocation of this stage yields
    /// γ invocations of the child on average (γ<1 filters, γ>1 fans out).
    pub children: Vec<(usize, f64)>,
}

/// A tree-shaped query dataflow graph. Stage 0 is the root.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryDag {
    /// The stages; parents precede children.
    pub stages: Vec<QueryStage>,
}

impl QueryDag {
    /// Creates a DAG, validating tree shape (each stage except the root has
    /// exactly one parent, children indices point forward).
    ///
    /// # Panics
    ///
    /// Panics if the stage list is empty or not a forward-pointing tree.
    pub fn new(stages: Vec<QueryStage>) -> Self {
        assert!(!stages.is_empty(), "query needs at least one stage");
        let mut indegree = vec![0usize; stages.len()];
        for (i, stage) in stages.iter().enumerate() {
            for &(c, gamma) in &stage.children {
                assert!(c > i && c < stages.len(), "child index {c} invalid");
                assert!(gamma.is_finite() && gamma >= 0.0, "invalid gamma");
                indegree[c] += 1;
            }
        }
        assert_eq!(indegree[0], 0, "root must have no parent");
        for (i, &d) in indegree.iter().enumerate().skip(1) {
            assert_eq!(d, 1, "stage {i} must have exactly one parent");
        }
        QueryDag { stages }
    }

    /// A linear pipeline `stages[0] → stages[1] → …` with the given γ per
    /// edge.
    pub fn pipeline(stages: Vec<(String, BatchingProfile)>, gammas: &[f64]) -> Self {
        assert_eq!(
            gammas.len() + 1,
            stages.len(),
            "need one γ per pipeline edge"
        );
        let n = stages.len();
        let stages = stages
            .into_iter()
            .enumerate()
            .map(|(i, (name, profile))| QueryStage {
                name,
                profile,
                children: if i + 1 < n {
                    vec![(i + 1, gammas[i])]
                } else {
                    vec![]
                },
            })
            .collect();
        QueryDag::new(stages)
    }

    /// Per-stage request rates when the root receives `root_rate` req/s:
    /// rate(child) = rate(parent) · γ(edge).
    pub fn stage_rates(&self, root_rate: f64) -> Vec<f64> {
        let mut rates = vec![0.0; self.stages.len()];
        rates[0] = root_rate;
        for (i, stage) in self.stages.iter().enumerate() {
            for &(c, gamma) in &stage.children {
                rates[c] = rates[i] * gamma;
            }
        }
        rates
    }
}

/// Result of the latency-split optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySplit {
    /// Per-stage latency budgets; they sum to ≤ the query SLO along every
    /// root-to-leaf path.
    pub budgets: Vec<Micros>,
    /// Estimated total GPUs (fractional) at the optimum.
    pub gpus: f64,
}

/// Per-stage GPU demand within latency budget `k`: the stage is scheduled
/// as a session with SLO `k`, so it runs at batch `B = argmax 2ℓ(b) ≤ k`
/// and needs `rate / (B/ℓ(B))` GPUs. `None` if `k` is infeasible.
fn stage_cost(profile: &BatchingProfile, rate: f64, k: Micros) -> Option<f64> {
    if rate <= 0.0 {
        return Some(0.0);
    }
    profile.max_throughput_for_slo(k).map(|t| rate / t)
}

/// Splits `slo` across the stages of `dag` to minimize estimated GPUs for
/// a query stream of `root_rate` req/s, using a DP over budgets discretized
/// into `segments` pieces (§6.2: "we approximate the state space of time
/// budget with L/ε segments").
///
/// Returns `None` if no split can satisfy the SLO.
///
/// # Examples
///
/// ```
/// use nexus_profile::{BatchingProfile, Micros};
/// use nexus_scheduler::{optimize_latency_split, QueryDag};
///
/// let dag = QueryDag::pipeline(
///     vec![
///         ("detector".into(), BatchingProfile::from_linear_ms(9.0, 38.0, 32)),
///         ("recognizer".into(), BatchingProfile::from_linear_ms(1.2, 5.3, 64)),
///     ],
///     &[1.5], // each detection yields 1.5 recognitions on average
/// );
/// let split = optimize_latency_split(&dag, Micros::from_millis(400), 200.0, 50)
///     .expect("feasible");
/// assert!(split.budgets[0] + split.budgets[1] <= Micros::from_millis(400));
/// // The compute-heavy detector gets the lion's share of the budget.
/// assert!(split.budgets[0] > split.budgets[1]);
/// ```
///
/// # Panics
///
/// Panics if `segments` is zero.
pub fn optimize_latency_split(
    dag: &QueryDag,
    slo: Micros,
    root_rate: f64,
    segments: u32,
) -> Option<LatencySplit> {
    assert!(segments >= 1, "need at least one budget segment");
    let eps = (slo.as_micros() / u64::from(segments)).max(1);
    let steps = (slo.as_micros() / eps) as usize;
    let rates = dag.stage_rates(root_rate);
    let n = dag.stages.len();

    // f[u][t] = min GPUs for u's subtree within budget t·eps; u processed in
    // reverse index order (children have larger indices than parents).
    const INF: f64 = f64::INFINITY;
    let mut f = vec![vec![INF; steps + 1]; n];
    // choice[u][t] = segments assigned to u's own window at the optimum.
    let mut choice = vec![vec![0usize; steps + 1]; n];

    for u in (0..n).rev() {
        let stage = &dag.stages[u];
        // The stage's own demand depends on its window `k`, not on the
        // subtree budget `t`: tabulate it once instead of per (t, k).
        let own: Vec<f64> = (0..=steps)
            .map(|k| {
                stage_cost(
                    &stage.profile,
                    rates[u],
                    Micros::from_micros(k as u64 * eps),
                )
                .unwrap_or(INF)
            })
            .collect();
        let lows = record_lows(&own);
        let Some(&first_k) = lows.first() else {
            continue;
        };
        for &(c, _) in &stage.children {
            debug_assert!(non_increasing(&f[c]), "child row {c} rises with budget");
        }
        // Nothing reads the root's row below the full budget. A leaf's cost
        // ignores the budget left over, so budget t's scan is budget t−1's
        // followed by window t alone: it carries the running minimum
        // forward instead of rescanning — the same comparisons in the same
        // order, so the same first-of-equals winner — and only a window
        // that is a new low can move it. Every other row scans the new lows
        // up to t (`record_lows` says why no other window can win).
        let root = u == 0;
        let leaf = !root && stage.children.is_empty();
        let first_t = if root { steps } else { first_k };
        let (mut best, mut best_k) = (INF, 0usize);
        let mut live = 0;
        for t in first_t..=steps {
            let fresh = live;
            while lows.get(live).is_some_and(|&k| k <= t) {
                live += 1;
            }
            let scan = if leaf {
                &lows[fresh..live]
            } else {
                (best, best_k) = (INF, 0);
                &lows[..live]
            };
            for &k in scan {
                let remaining = t - k;
                let mut total = own[k];
                for &(c, _) in &stage.children {
                    total += f[c][remaining];
                    if total.is_infinite() {
                        break;
                    }
                }
                if total < best {
                    best = total;
                    best_k = k;
                }
            }
            f[u][t] = best;
            choice[u][t] = best_k;
        }
    }

    if f[0][steps].is_infinite() {
        return None;
    }

    // Reconstruct budgets: walk the tree handing each child the remaining
    // budget after the parent's window.
    let mut budgets = vec![Micros::ZERO; n];
    let mut stack = vec![(0usize, steps)];
    while let Some((u, t)) = stack.pop() {
        let k = choice[u][t];
        budgets[u] = Micros::from_micros(k as u64 * eps);
        for &(c, _) in &dag.stages[u].children {
            stack.push((c, t - k));
        }
    }
    Some(LatencySplit {
        budgets,
        gpus: f[0][steps],
    })
}

/// The even-split baseline used by the Fig. 11/17 comparisons: every stage
/// on a root-to-leaf path gets an equal share of the SLO (stages at depth d
/// of a path with D stages get `slo / D` where D is the maximum depth below
/// them plus their own).
pub fn even_latency_split(dag: &QueryDag, slo: Micros) -> LatencySplit {
    // Depth of the deepest path through each stage.
    let n = dag.stages.len();
    let mut below = vec![1usize; n]; // path length from u to deepest leaf
    for u in (0..n).rev() {
        for &(c, _) in &dag.stages[u].children {
            below[u] = below[u].max(1 + below[c]);
        }
    }
    let total_depth = below[0];
    let share = Micros::from_micros(slo.as_micros() / total_depth as u64);
    LatencySplit {
        budgets: vec![share; n],
        gpus: f64::NAN,
    }
}

/// One device-class candidate for a heterogeneous query stage: the stage's
/// batching profile measured on that class, plus the class's dollar proxy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageCandidate {
    /// Device-class name (for reporting).
    pub class: String,
    /// The stage's batching profile on this device class (`profile_on`).
    pub profile: BatchingProfile,
    /// Dollar-proxy price of one GPU of this class (e.g. hourly price).
    pub price: f64,
}

/// One stage of a heterogeneous query DAG: like [`QueryStage`] but with one
/// profile candidate per device class the pool planner may place it on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroQueryStage {
    /// Stage name (model name, for reporting).
    pub name: String,
    /// Candidate device classes; indices are the planner's pool indices.
    pub candidates: Vec<StageCandidate>,
    /// Children: `(stage index, γ)`, as in [`QueryStage`].
    pub children: Vec<(usize, f64)>,
}

/// A tree-shaped heterogeneous query DAG. Stage 0 is the root.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroQueryDag {
    /// The stages; parents precede children.
    pub stages: Vec<HeteroQueryStage>,
}

impl HeteroQueryDag {
    /// Creates a DAG, validating tree shape and non-empty candidate lists.
    ///
    /// # Panics
    ///
    /// Panics if the stage list is empty, any stage has no candidates, or
    /// the children are not a forward-pointing tree.
    pub fn new(stages: Vec<HeteroQueryStage>) -> Self {
        assert!(!stages.is_empty(), "query needs at least one stage");
        let mut indegree = vec![0usize; stages.len()];
        for (i, stage) in stages.iter().enumerate() {
            assert!(
                !stage.candidates.is_empty(),
                "stage {i} needs at least one device-class candidate"
            );
            for &(c, gamma) in &stage.children {
                assert!(c > i && c < stages.len(), "child index {c} invalid");
                assert!(gamma.is_finite() && gamma >= 0.0, "invalid gamma");
                indegree[c] += 1;
            }
        }
        assert_eq!(indegree[0], 0, "root must have no parent");
        for (i, &d) in indegree.iter().enumerate().skip(1) {
            assert_eq!(d, 1, "stage {i} must have exactly one parent");
        }
        HeteroQueryDag { stages }
    }

    /// Per-stage request rates when the root receives `root_rate` req/s.
    pub fn stage_rates(&self, root_rate: f64) -> Vec<f64> {
        let mut rates = vec![0.0; self.stages.len()];
        rates[0] = root_rate;
        for (i, stage) in self.stages.iter().enumerate() {
            for &(c, gamma) in &stage.children {
                rates[c] = rates[i] * gamma;
            }
        }
        rates
    }
}

/// Result of the joint device-class + latency-split optimization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroSplit {
    /// Per-stage latency budgets; they sum to ≤ the query SLO along every
    /// root-to-leaf path.
    pub budgets: Vec<Micros>,
    /// Per-stage chosen candidate index (the pool the stage lands on).
    pub classes: Vec<usize>,
    /// Per-stage estimated (fractional) GPUs of the chosen class.
    pub stage_gpus: Vec<f64>,
    /// Total dollar-proxy cost `Σ stage_gpus[u] · price(classes[u])`.
    pub cost: f64,
}

/// The windows `k ≥ 1` whose cost is a strict new minimum over every
/// earlier window, ascending. These are the only windows a split DP's
/// `(t, k)` scan can pick, so it scans no other. A child's row `f[c][·]`
/// never rises with its budget: a leaf's is a running minimum, and an inner
/// row at budget `t` is a minimum over the windows up to `t` of sums whose
/// child terms fall as the budget grows (IEEE addition rounds
/// monotonically). So for a window `k` not listed here, the last listed
/// window `j < k` has `cost[j] ≤ cost[k]` and leaves the children a larger
/// budget, hence `total(j) ≤ total(k)`. The scan meets `j` first, and its
/// strict `<` never moves its first minimum to `k`: `(best, best_k)` and the
/// class recovered at `best_k` are unchanged. Infeasible windows (`INF`)
/// are never listed.
fn record_lows(cost: &[f64]) -> Vec<usize> {
    let mut low = f64::INFINITY;
    let mut lows = Vec::new();
    for (k, &c) in cost.iter().enumerate().skip(1) {
        if c < low {
            low = c;
            lows.push(k);
        }
    }
    lows
}

/// Whether a DP row never rises with its budget, which [`record_lows`]
/// relies on for every child row it reads.
fn non_increasing(row: &[f64]) -> bool {
    row.windows(2).all(|w| w[1] <= w[0])
}

/// A candidate's stage demand at every window `k·eps`, `k = 0..=steps`,
/// handed to `put(k, cost)`: `rate / (b/ℓ(b))` GPUs for the best throughput
/// over the rungs `b` with `2ℓ(b) ≤ window` (the same feasibility rule the
/// runtime's duty-cycle execution uses), `None` if even the bottom rung
/// misses the window. Rung latencies are non-decreasing (the profile
/// invariant [`BatchLadder::largest_rung_within`] also leans on), so a
/// window's feasible rungs are the previous window's plus any that just
/// fit: one forward walk over rungs and windows together prices them all,
/// with the same strict `>` a per-window rung scan makes.
fn price_windows(
    profile: &BatchingProfile,
    rate: f64,
    eps: u64,
    steps: usize,
    mut put: impl FnMut(usize, Option<f64>),
) {
    if rate <= 0.0 {
        (0..=steps).for_each(|k| put(k, Some(0.0)));
        return;
    }
    let mut rungs = BatchLadder::profile_rungs(profile).peekable();
    let mut best: Option<f64> = None;
    for k in 0..=steps {
        let window = k as u64 * eps;
        while let Some((b, lat)) =
            rungs.next_if(|&(_, lat)| lat.as_micros().saturating_mul(2) <= window)
        {
            let throughput = f64::from(b) / lat.as_secs_f64();
            if best.is_none_or(|t| throughput > t) {
                best = Some(throughput);
            }
        }
        put(k, best.map(|t| rate / t));
    }
}

/// Jointly chooses a device class per stage and a latency split minimizing
/// total dollar-proxy cost (`Σ gpus·price`) for a query stream of
/// `root_rate` req/s — the §6.2 DP extended per PPipe so slow/cheap classes
/// absorb stages with slack while tight stages land on fast silicon.
///
/// Each stage's feasible windows come from the [`BatchLadder`] rungs of
/// that class's profile, so the plan bills exact per-rung `ℓ(b)` on the
/// class the stage lands on.
///
/// Returns `None` if no (class, split) assignment satisfies the SLO.
///
/// # Panics
///
/// Panics if `segments` is zero.
pub fn optimize_hetero_split(
    dag: &HeteroQueryDag,
    slo: Micros,
    root_rate: f64,
    segments: u32,
) -> Option<HeteroSplit> {
    assert!(segments >= 1, "need at least one budget segment");
    let eps = (slo.as_micros() / u64::from(segments)).max(1);
    let steps = (slo.as_micros() / eps) as usize;
    let rates = dag.stage_rates(root_rate);
    let n = dag.stages.len();

    // own[u][k · |candidates| + ci]: stage u's demand on candidate ci within
    // a window of k segments. It depends on the window and not on the
    // subtree budget t, so it is tabulated once instead of per (t, k).
    let own: Vec<Vec<Option<f64>>> = dag
        .stages
        .iter()
        .zip(&rates)
        .map(|(s, &rate)| {
            let width = s.candidates.len();
            let mut own = vec![None; (steps + 1) * width];
            for (ci, c) in s.candidates.iter().enumerate() {
                price_windows(&c.profile, rate, eps, steps, |k, cost| {
                    own[k * width + ci] = cost;
                });
            }
            own
        })
        .collect();

    // f[u][t] = min dollar cost for u's subtree within budget t·eps.
    const INF: f64 = f64::INFINITY;
    let mut f = vec![vec![INF; steps + 1]; n];
    // choice[u][t] = (own window segments, candidate index) at the optimum.
    let mut choice = vec![vec![(0usize, 0usize); steps + 1]; n];

    for u in (0..n).rev() {
        let stage = &dag.stages[u];
        let own_at = |k: usize| &own[u][k * stage.candidates.len()..][..stage.candidates.len()];
        // A window's dollar cost on candidate ci, and per window the first
        // minimum over the candidates (INF if none fits): one multiply per
        // (k, ci) here instead of per (t, k, ci) below.
        let priced =
            |k: usize, ci: usize| own_at(k)[ci].map(|own| own * stage.candidates[ci].price);
        let cheapest: Vec<f64> = (0..=steps)
            .map(|k| {
                (0..stage.candidates.len())
                    .filter_map(|ci| priced(k, ci))
                    .fold(INF, |min, cost| if cost < min { cost } else { min })
            })
            .collect();
        let lows = record_lows(&cheapest);
        let Some(&first_k) = lows.first() else {
            continue;
        };
        // The children's cost depends on the budget left to them alone.
        for &(c, _) in &stage.children {
            debug_assert!(non_increasing(&f[c]), "child row {c} rises with budget");
        }
        let kids: Vec<f64> = (0..=steps)
            .map(|remaining| {
                let mut kids = 0.0;
                for &(c, _) in &stage.children {
                    kids += f[c][remaining];
                }
                kids
            })
            .collect();
        // The root is solved at the full budget only and a leaf carries its
        // running minimum across budgets, as in `optimize_latency_split`.
        let root = u == 0;
        let leaf = !root && stage.children.is_empty();
        let first_t = if root { steps } else { first_k };
        let (mut best, mut best_k) = (INF, 0usize);
        let mut live = 0;
        for t in first_t..=steps {
            let fresh = live;
            while lows.get(live).is_some_and(|&k| k <= t) {
                live += 1;
            }
            let scan = if leaf {
                &lows[fresh..live]
            } else {
                (best, best_k) = (INF, 0);
                &lows[..live]
            };
            for &k in scan {
                let kids = kids[t - k];
                if kids.is_infinite() {
                    continue;
                }
                let total = cheapest[k] + kids;
                if total < best {
                    best = total;
                    best_k = k;
                }
            }
            f[u][t] = best;
            // f64 addition rounds monotonically, so the least of a window's
            // `cost + kids` is `cheapest + kids`: `best` is the minimum a scan
            // over every (k, ci) finds, first reached at window `best_k`.
            // Rounding can tie a dearer candidate with the cheapest, so the
            // class that scan keeps is the first at `best_k` whose total
            // equals `best`. (A leaf's `kids` are all 0, so a carried
            // `best_k` recovers the class it was found with.)
            if best < INF {
                let kids = kids[t - best_k];
                let ci = (0..stage.candidates.len())
                    .find(|&ci| priced(best_k, ci).is_some_and(|cost| cost + kids == best))
                    .expect("the cheapest candidate reaches the minimum");
                choice[u][t] = (best_k, ci);
            }
        }
    }

    if f[0][steps].is_infinite() {
        return None;
    }

    // Reconstruct: walk the tree handing each child the remaining budget.
    let mut budgets = vec![Micros::ZERO; n];
    let mut classes = vec![0usize; n];
    let mut stage_gpus = vec![0.0; n];
    let mut stack = vec![(0usize, steps)];
    while let Some((u, t)) = stack.pop() {
        let (k, ci) = choice[u][t];
        budgets[u] = Micros::from_micros(k as u64 * eps);
        classes[u] = ci;
        stage_gpus[u] =
            own[u][k * dag.stages[u].candidates.len() + ci].expect("chosen window is feasible");
        for &(c, _) in &dag.stages[u].children {
            stack.push((c, t - k));
        }
    }
    Some(HeteroSplit {
        budgets,
        classes,
        stage_gpus,
        cost: f[0][steps],
    })
}

/// Average pipeline throughput per GPU for a two-stage pipeline X→Y with
/// fan-out γ, given per-GPU stage throughputs `tx`, `ty` (§4.2:
/// `p·TX/(p+q)` with `γ·p·TX = q·TY`).
pub fn pipeline_avg_throughput(tx: f64, ty: f64, gamma: f64) -> f64 {
    // p·TX/(p + q) with q = γ·p·TX/TY  ⇒  TX·TY / (TY + γ·TX).
    tx * ty / (ty + gamma * tx)
}

/// The split DPs as they were before the per-window costs were hoisted out
/// of the `t × k` loops, kept verbatim as oracles: the differential tests
/// assert the tabulated DPs return the same budgets, classes and `f64`s.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Per-rung stage demand: the best throughput over the candidate's batch
    /// ladder rungs `b` with `2ℓ(b) ≤ window` (the same feasibility rule the
    /// runtime's duty-cycle execution uses), as `rate / (b/ℓ(b))` GPUs.
    /// `None` if even the bottom rung misses the window.
    pub fn ladder_stage_cost(ladder: &BatchLadder, rate: f64, window: Micros) -> Option<f64> {
        if rate <= 0.0 {
            return Some(0.0);
        }
        let mut best: Option<f64> = None;
        for (i, &b) in ladder.rungs().iter().enumerate() {
            let lat = ladder.latency_at(i);
            if lat.as_micros().saturating_mul(2) <= window.as_micros() {
                let throughput = f64::from(b) / lat.as_secs_f64();
                if best.is_none_or(|t| throughput > t) {
                    best = Some(throughput);
                }
            }
        }
        best.map(|t| rate / t)
    }

    /// The original `optimize_latency_split`: `stage_cost` inside `t × k`.
    pub fn optimize_latency_split(
        dag: &QueryDag,
        slo: Micros,
        root_rate: f64,
        segments: u32,
    ) -> Option<LatencySplit> {
        assert!(segments >= 1, "need at least one budget segment");
        let eps = (slo.as_micros() / u64::from(segments)).max(1);
        let steps = (slo.as_micros() / eps) as usize;
        let rates = dag.stage_rates(root_rate);
        let n = dag.stages.len();

        // f[u][t] = min GPUs for u's subtree within budget t·eps; u processed in
        // reverse index order (children have larger indices than parents).
        const INF: f64 = f64::INFINITY;
        let mut f = vec![vec![INF; steps + 1]; n];
        // choice[u][t] = segments assigned to u's own window at the optimum.
        let mut choice = vec![vec![0usize; steps + 1]; n];

        for u in (0..n).rev() {
            let stage = &dag.stages[u];
            for t in 0..=steps {
                let mut best = INF;
                let mut best_k = 0usize;
                for k in 1..=t {
                    let window = Micros::from_micros(k as u64 * eps);
                    let Some(own) = stage_cost(&stage.profile, rates[u], window) else {
                        continue;
                    };
                    let remaining = t - k;
                    let mut total = own;
                    for &(c, _) in &stage.children {
                        total += f[c][remaining];
                        if total.is_infinite() {
                            break;
                        }
                    }
                    if total < best {
                        best = total;
                        best_k = k;
                    }
                }
                f[u][t] = best;
                choice[u][t] = best_k;
            }
        }

        if f[0][steps].is_infinite() {
            return None;
        }

        // Reconstruct budgets: walk the tree handing each child the remaining
        // budget after the parent's window.
        let mut budgets = vec![Micros::ZERO; n];
        let mut stack = vec![(0usize, steps)];
        while let Some((u, t)) = stack.pop() {
            let k = choice[u][t];
            budgets[u] = Micros::from_micros(k as u64 * eps);
            for &(c, _) in &dag.stages[u].children {
                stack.push((c, t - k));
            }
        }
        Some(LatencySplit {
            budgets,
            gpus: f[0][steps],
        })
    }

    /// The original `optimize_hetero_split`: a rung scan per `(t, k, class)`.
    pub fn optimize_hetero_split(
        dag: &HeteroQueryDag,
        slo: Micros,
        root_rate: f64,
        segments: u32,
    ) -> Option<HeteroSplit> {
        assert!(segments >= 1, "need at least one budget segment");
        let eps = (slo.as_micros() / u64::from(segments)).max(1);
        let steps = (slo.as_micros() / eps) as usize;
        let rates = dag.stage_rates(root_rate);
        let n = dag.stages.len();

        // Build each candidate's rung ladder once; the DP probes it per window.
        let ladders: Vec<Vec<BatchLadder>> = dag
            .stages
            .iter()
            .map(|s| {
                s.candidates
                    .iter()
                    .map(|c| BatchLadder::from_profile(&c.profile))
                    .collect()
            })
            .collect();

        // f[u][t] = min dollar cost for u's subtree within budget t·eps.
        const INF: f64 = f64::INFINITY;
        let mut f = vec![vec![INF; steps + 1]; n];
        // choice[u][t] = (own window segments, candidate index) at the optimum.
        let mut choice = vec![vec![(0usize, 0usize); steps + 1]; n];

        for u in (0..n).rev() {
            let stage = &dag.stages[u];
            for t in 0..=steps {
                let mut best = INF;
                let mut best_kc = (0usize, 0usize);
                for k in 1..=t {
                    let window = Micros::from_micros(k as u64 * eps);
                    let remaining = t - k;
                    let mut kids = 0.0;
                    for &(c, _) in &stage.children {
                        kids += f[c][remaining];
                    }
                    if kids.is_infinite() {
                        continue;
                    }
                    for (ci, cand) in stage.candidates.iter().enumerate() {
                        let Some(own) = ladder_stage_cost(&ladders[u][ci], rates[u], window) else {
                            continue;
                        };
                        let total = own * cand.price + kids;
                        if total < best {
                            best = total;
                            best_kc = (k, ci);
                        }
                    }
                }
                f[u][t] = best;
                choice[u][t] = best_kc;
            }
        }

        if f[0][steps].is_infinite() {
            return None;
        }

        // Reconstruct: walk the tree handing each child the remaining budget.
        let mut budgets = vec![Micros::ZERO; n];
        let mut classes = vec![0usize; n];
        let mut stage_gpus = vec![0.0; n];
        let mut stack = vec![(0usize, steps)];
        while let Some((u, t)) = stack.pop() {
            let (k, ci) = choice[u][t];
            let window = Micros::from_micros(k as u64 * eps);
            budgets[u] = window;
            classes[u] = ci;
            stage_gpus[u] = ladder_stage_cost(&ladders[u][ci], rates[u], window)
                .expect("chosen window is feasible");
            for &(c, _) in &dag.stages[u].children {
                stack.push((c, t - k));
            }
        }
        Some(HeteroSplit {
            budgets,
            classes,
            stage_gpus,
            cost: f[0][steps],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Model X of Fig. 3: throughputs 200/250/300 req/s at latency budgets
    /// 40/50/60 ms under the 2ℓ(b) ≤ budget rule.
    fn model_x() -> BatchingProfile {
        BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(20)),
            (6, Micros::from_millis(24)),
            (9, Micros::from_millis(30)),
        ])
    }

    /// Model Y of Fig. 3: throughputs 300/400/500 req/s at 40/50/60 ms.
    fn model_y() -> BatchingProfile {
        BatchingProfile::from_anchors(&[
            (6, Micros::from_millis(20)),
            (10, Micros::from_millis(25)),
            (15, Micros::from_millis(30)),
        ])
    }

    fn xy_pipeline(gamma: f64) -> QueryDag {
        QueryDag::pipeline(
            vec![("X".into(), model_x()), ("Y".into(), model_y())],
            &[gamma],
        )
    }

    #[test]
    fn fig3_profiles_match_paper_throughputs() {
        let x = model_x();
        for (budget_ms, want) in [(40, 200.0), (50, 250.0), (60, 300.0)] {
            let t = x
                .max_throughput_for_slo(Micros::from_millis(budget_ms))
                .unwrap();
            assert!((t - want).abs() < 1.0, "X@{budget_ms}: {t} vs {want}");
        }
        let y = model_y();
        for (budget_ms, want) in [(40, 300.0), (50, 400.0), (60, 500.0)] {
            let t = y
                .max_throughput_for_slo(Micros::from_millis(budget_ms))
                .unwrap();
            assert!((t - want).abs() < 1.0, "Y@{budget_ms}: {t} vs {want}");
        }
    }

    #[test]
    fn fig4_average_throughputs_reproduce() {
        // Fig. 4 of the paper: avg throughput for splits (40,60), (50,50),
        // (60,40) at γ ∈ {0.1, 1, 10}.
        let cases = [
            ((200.0, 500.0), [192.3, 142.9, 40.0]),
            ((250.0, 400.0), [235.3, 153.8, 34.5]),
            ((300.0, 300.0), [272.7, 150.0, 27.3]),
        ];
        for ((tx, ty), wants) in cases {
            for (gamma, want) in [0.1, 1.0, 10.0].iter().zip(wants) {
                let got = pipeline_avg_throughput(tx, ty, *gamma);
                assert!(
                    (got - want).abs() < 0.1,
                    "tx={tx} ty={ty} γ={gamma}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn optimizer_picks_gamma_dependent_split() {
        // §4.2's punchline: "there is no universal best split: it depends
        // on γ". With γ=0.1 give X more budget; with γ=10 give Y more.
        let slo = Micros::from_millis(100);
        let low = optimize_latency_split(&xy_pipeline(0.1), slo, 100.0, 100).unwrap();
        let high = optimize_latency_split(&xy_pipeline(10.0), slo, 100.0, 100).unwrap();
        assert!(
            low.budgets[0] >= high.budgets[0],
            "X budget should shrink as γ grows: {:?} vs {:?}",
            low.budgets,
            high.budgets
        );
    }

    #[test]
    fn optimizer_beats_or_matches_even_split() {
        for gamma in [0.1, 1.0, 10.0] {
            let dag = xy_pipeline(gamma);
            let slo = Micros::from_millis(100);
            let rate = 500.0;
            let opt = optimize_latency_split(&dag, slo, rate, 100).unwrap();
            let even = even_latency_split(&dag, slo);
            let rates = dag.stage_rates(rate);
            let even_gpus: f64 = dag
                .stages
                .iter()
                .zip(&even.budgets)
                .zip(&rates)
                .map(|((s, &b), &r)| stage_cost(&s.profile, r, b).unwrap_or(f64::INFINITY))
                .sum();
            assert!(
                opt.gpus <= even_gpus + 1e-9,
                "γ={gamma}: opt {} > even {even_gpus}",
                opt.gpus
            );
        }
    }

    #[test]
    fn budgets_respect_slo_along_paths() {
        let dag = xy_pipeline(1.0);
        let slo = Micros::from_millis(100);
        let split = optimize_latency_split(&dag, slo, 100.0, 50).unwrap();
        assert!(split.budgets[0] + split.budgets[1] <= slo);
        assert!(split.budgets.iter().all(|&b| b > Micros::ZERO));
    }

    #[test]
    fn infeasible_slo_returns_none() {
        let dag = xy_pipeline(1.0);
        // 2·(ℓx(1)+ℓy(1)) far exceeds 10 ms.
        assert!(optimize_latency_split(&dag, Micros::from_millis(10), 100.0, 50).is_none());
    }

    #[test]
    fn tree_query_splits_branches_independently() {
        // Fig. 8 shape: SSD detector feeding car and face recognizers.
        let det = model_x();
        let car = model_y();
        let face = model_y();
        let dag = QueryDag::new(vec![
            QueryStage {
                name: "ssd".into(),
                profile: det,
                children: vec![(1, 0.5), (2, 0.8)],
            },
            QueryStage {
                name: "car".into(),
                profile: car,
                children: vec![],
            },
            QueryStage {
                name: "face".into(),
                profile: face,
                children: vec![],
            },
        ]);
        let rates = dag.stage_rates(100.0);
        assert_eq!(rates, vec![100.0, 50.0, 80.0]);
        let split =
            optimize_latency_split(&dag, Micros::from_millis(120), 100.0, 60).expect("feasible");
        // Both root→leaf paths fit the SLO.
        assert!(split.budgets[0] + split.budgets[1] <= Micros::from_millis(120));
        assert!(split.budgets[0] + split.budgets[2] <= Micros::from_millis(120));
    }

    #[test]
    fn even_split_divides_by_path_depth() {
        let dag = xy_pipeline(1.0);
        let even = even_latency_split(&dag, Micros::from_millis(100));
        assert_eq!(even.budgets[0], Micros::from_millis(50));
        assert_eq!(even.budgets[1], Micros::from_millis(50));
    }

    #[test]
    fn finer_segments_never_hurt() {
        let dag = xy_pipeline(1.0);
        let slo = Micros::from_millis(100);
        let coarse = optimize_latency_split(&dag, slo, 300.0, 10).unwrap();
        let fine = optimize_latency_split(&dag, slo, 300.0, 200).unwrap();
        assert!(fine.gpus <= coarse.gpus + 1e-9);
    }

    /// Model X slowed 3× — a cheap, slow device class serving the same
    /// model (K80-style: great $/throughput at big batches, hopeless at
    /// tight windows).
    fn slow_x() -> BatchingProfile {
        BatchingProfile::from_anchors(&[
            (4, Micros::from_millis(60)),
            (6, Micros::from_millis(72)),
            (9, Micros::from_millis(90)),
        ])
    }

    fn slow_y() -> BatchingProfile {
        BatchingProfile::from_anchors(&[
            (6, Micros::from_millis(60)),
            (10, Micros::from_millis(75)),
            (15, Micros::from_millis(90)),
        ])
    }

    fn cand(profile: BatchingProfile, class: &str, price: f64) -> StageCandidate {
        StageCandidate {
            class: class.into(),
            profile,
            price,
        }
    }

    fn hetero_xy(gamma: f64) -> HeteroQueryDag {
        HeteroQueryDag::new(vec![
            HeteroQueryStage {
                name: "X".into(),
                candidates: vec![cand(model_x(), "fast", 3.0), cand(slow_x(), "cheap", 0.9)],
                children: vec![(1, gamma)],
            },
            HeteroQueryStage {
                name: "Y".into(),
                candidates: vec![cand(model_y(), "fast", 3.0), cand(slow_y(), "cheap", 0.9)],
                children: vec![],
            },
        ])
    }

    #[test]
    fn hetero_tight_slo_forces_fast_class() {
        let dag = HeteroQueryDag::new(vec![HeteroQueryStage {
            name: "X".into(),
            candidates: vec![cand(model_x(), "fast", 3.0), cand(slow_x(), "cheap", 0.9)],
            children: vec![],
        }]);
        // 60 ms: the slow class misses even batch 1 (2·ℓ(1) = 84 ms).
        let tight = optimize_hetero_split(&dag, Micros::from_millis(60), 100.0, 60).unwrap();
        assert_eq!(tight.classes, vec![0]);
        // 400 ms: both classes reach their max batch; cheap wins on $/q.
        let relaxed = optimize_hetero_split(&dag, Micros::from_millis(400), 100.0, 60).unwrap();
        assert_eq!(relaxed.classes, vec![1]);
        assert!(relaxed.cost < tight.cost);
    }

    #[test]
    fn hetero_pipeline_puts_slack_stage_on_cheap_class() {
        // 250 ms: too tight for both stages on the cheap class, but X can
        // take a 180 ms window on it (full batch 9) with Y mopping up on
        // fast silicon — cheaper than the all-fast split.
        let slo = Micros::from_millis(250);
        let split = optimize_hetero_split(&hetero_xy(1.0), slo, 100.0, 125).unwrap();
        assert_eq!(
            split.classes,
            vec![1, 0],
            "slack X on cheap, tight Y on fast"
        );
        assert!(split.budgets[0] > split.budgets[1]);
        assert!(split.budgets[0] + split.budgets[1] <= slo);
        assert!(split.stage_gpus.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn hetero_infeasible_slo_returns_none() {
        assert!(
            optimize_hetero_split(&hetero_xy(1.0), Micros::from_millis(20), 100.0, 50).is_none()
        );
    }

    #[test]
    fn hetero_zero_rate_costs_nothing() {
        let split =
            optimize_hetero_split(&hetero_xy(1.0), Micros::from_millis(250), 0.0, 50).unwrap();
        assert_eq!(split.cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "exactly one parent")]
    fn non_tree_rejected() {
        let _ = QueryDag::new(vec![
            QueryStage {
                name: "a".into(),
                profile: model_x(),
                children: vec![(1, 1.0), (1, 1.0)],
            },
            QueryStage {
                name: "b".into(),
                profile: model_y(),
                children: vec![],
            },
        ]);
    }

    /// Raw material for one random stage: which earlier stage is its
    /// parent, the edge's γ (one draw in four is 0 — a zero-rate subtree),
    /// 1–3 device-class candidates as `(α µs, β µs, max batch, price)`,
    /// and a twin draw: 0 appends a copy of the first candidate, 1 gives
    /// every candidate the first one's price, 2 and 3 leave them as drawn.
    type RawStage = (usize, (u32, f64), Vec<(f64, f64, u32, f64)>, u32);

    fn arb_stages() -> impl Strategy<Value = Vec<RawStage>> {
        let candidate = (20.0f64..3_000.0, 100.0f64..80_000.0, 1u32..65, 0.2f64..4.0);
        prop::collection::vec(
            (
                0usize..8,
                (0u32..4, 0.05f64..3.0),
                prop::collection::vec(candidate, 1..4),
                0u32..4,
            ),
            1..6,
        )
    }

    /// Builds the random tree: stage `i > 0` hangs off stage `pick % i`.
    fn hetero_tree(raw: &[RawStage]) -> HeteroQueryDag {
        let mut children: Vec<Vec<(usize, f64)>> = vec![Vec::new(); raw.len()];
        for (i, (pick, (zero, gamma), _, _)) in raw.iter().enumerate().skip(1) {
            children[pick % i].push((i, if *zero == 0 { 0.0 } else { *gamma }));
        }
        HeteroQueryDag::new(
            raw.iter()
                .zip(children)
                .enumerate()
                .map(|(i, ((_, _, cands, twin), children))| {
                    let mut cands = cands.clone();
                    match twin {
                        0 => cands.push(cands[0]),
                        1 => {
                            let price = cands[0].3;
                            cands.iter_mut().for_each(|c| c.3 = price);
                        }
                        _ => {}
                    }
                    HeteroQueryStage {
                        name: format!("s{i}"),
                        candidates: cands
                            .iter()
                            .map(|&(alpha, beta, max_batch, price)| {
                                cand(
                                    BatchingProfile::from_linear_us(alpha, beta, max_batch),
                                    "class",
                                    price,
                                )
                            })
                            .collect(),
                        children,
                    }
                })
                .collect(),
        )
    }

    /// Two root classes whose dollar costs differ by less than half an ulp
    /// of the child's: both totals round to the same `f64`. The scan over
    /// every (window, class) keeps the first to reach the minimum, class 0,
    /// though class 1 is strictly cheaper on its own.
    #[test]
    fn hetero_rounded_tie_keeps_the_first_class() {
        let dag = HeteroQueryDag::new(vec![
            HeteroQueryStage {
                name: "X".into(),
                candidates: vec![cand(model_x(), "dear", 1.0), cand(model_x(), "cheap", 0.75)],
                children: vec![(1, 1.0)],
            },
            HeteroQueryStage {
                name: "Y".into(),
                candidates: vec![cand(model_y(), "ruinous", 1e17)],
                children: vec![],
            },
        ]);
        let slo = Micros::from_millis(250);
        let split = optimize_hetero_split(&dag, slo, 100.0, 50).unwrap();
        let (root, kids) = (split.stage_gpus[0], split.stage_gpus[1] * 1e17);
        assert!(root * 0.75 < root * 1.0);
        assert_eq!(root * 0.75 + kids, root * 1.0 + kids, "the totals tie");
        assert_eq!(split.classes, vec![0, 0]);
        assert_eq!(
            Some(split),
            reference::optimize_hetero_split(&dag, slo, 100.0, 50)
        );
    }

    /// Both DPs against their unhoisted references on one random tree.
    fn dps_match_reference(
        raw: &[RawStage],
        slo_ms: u64,
        root_rate: f64,
        segments: u32,
    ) -> Result<(), TestCaseError> {
        let dag = hetero_tree(raw);
        let slo = Micros::from_millis(slo_ms);
        prop_assert_eq!(
            optimize_hetero_split(&dag, slo, root_rate, segments),
            reference::optimize_hetero_split(&dag, slo, root_rate, segments)
        );
        let single = first_candidate_tree(&dag);
        prop_assert_eq!(
            optimize_latency_split(&single, slo, root_rate, segments),
            reference::optimize_latency_split(&single, slo, root_rate, segments)
        );
        Ok(())
    }

    /// The same tree with every stage on its first candidate.
    fn first_candidate_tree(dag: &HeteroQueryDag) -> QueryDag {
        QueryDag::new(
            dag.stages
                .iter()
                .map(|s| QueryStage {
                    name: s.name.clone(),
                    profile: s.candidates[0].profile.clone(),
                    children: s.children.clone(),
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both DPs return exactly what they returned before their
        /// per-window costs were tabulated — budgets, classes and every
        /// `f64` — on random trees, including zero-rate stages, zero root
        /// rates and SLOs too tight for any split.
        #[test]
        fn tabulated_dps_match_the_unhoisted_ones(
            raw in arb_stages(),
            slo_ms in 2u64..900,
            rate_kind in 0u32..5,
            root_rate in 0.5f64..2_000.0,
            segments_idx in 0usize..4,
        ) {
            let root_rate = if rate_kind == 0 { 0.0 } else { root_rate };
            dps_match_reference(&raw, slo_ms, root_rate, [1u32, 7, 50, 120][segments_idx])?;
        }

        /// The `own` walk prices every window with the `f64` the
        /// per-window rung scan computes.
        #[test]
        fn ladder_throughput_table_matches_the_rung_scan(
            alpha_us in 0.5f64..3_000.0,
            beta_us in 10.0f64..80_000.0,
            batch_kind in 0u32..4,
            max_batch in 2u32..130,
            rate_kind in 0u32..5,
            rate in 0.5f64..2_000.0,
            steps in 1usize..300,
        ) {
            let rate = if rate_kind == 0 { 0.0 } else { rate };
            walk_matches_rung_scan(alpha_us, beta_us, batch_kind, max_batch, rate, steps)?;
        }
    }

    /// `price_windows` against `reference::ladder_stage_cost`, window by
    /// window, on three grids: `steps` windows reaching past the top rung;
    /// ε = 1 µs up to the top rung or 4 096 µs; and ε = 2ℓ − 1, 2ℓ, 2ℓ + 1
    /// for every rung, so some window lands on each side of each rung's
    /// edge. `batch_kind` 0 is `max_batch` 1 and 1 is 24 (not a power of
    /// two).
    fn walk_matches_rung_scan(
        alpha_us: f64,
        beta_us: f64,
        batch_kind: u32,
        max_batch: u32,
        rate: f64,
        steps: usize,
    ) -> Result<(), TestCaseError> {
        let max_batch = match batch_kind {
            0 => 1,
            1 => 24,
            _ => max_batch,
        };
        let profile = BatchingProfile::from_linear_us(alpha_us, beta_us, max_batch);
        let ladder = BatchLadder::from_profile(&profile);
        let top = 2 * profile.latency(max_batch).as_micros() + 1;
        let mut grids = vec![
            (top.div_ceil(steps as u64), steps),
            (1, top.min(4_096) as usize),
        ];
        for i in 0..ladder.rungs().len() {
            let edge = 2 * ladder.latency_at(i).as_micros();
            grids.extend([(edge.max(2) - 1, 2), (edge.max(1), 2), (edge + 1, 2)]);
        }
        for (eps, steps) in grids {
            let mut own = vec![None; steps + 1];
            price_windows(&profile, rate, eps, steps, |k, cost| own[k] = Some(cost));
            for (k, cost) in own.into_iter().enumerate() {
                let window = Micros::from_micros(k as u64 * eps);
                prop_assert_eq!(
                    cost,
                    Some(reference::ladder_stage_cost(&ladder, rate, window)),
                    "ε = {} µs, window {}",
                    eps,
                    k
                );
            }
        }
        Ok(())
    }

    /// `record_lows` lists a window only where the cost falls strictly:
    /// never window 0, an infeasible window, or the second of two equal
    /// windows. On a pooled DP whose two root classes reach the same cost
    /// at different windows, under a child that is infeasible below its
    /// slow class's 2ℓ(1), scanning only those windows returns the full
    /// scan's split.
    #[test]
    fn record_low_scan_skips_ties_and_keeps_the_split() {
        let inf = f64::INFINITY;
        assert_eq!(
            record_lows(&[0.0, inf, inf, 5.0, 3.0, 3.0, 4.0, 2.0, 2.0]),
            vec![3, 4, 7]
        );
        assert!(record_lows(&[0.0, inf, inf]).is_empty());

        // A third of the price at three times the latency: each rung costs
        // the same on both classes, first on the fast one. Past its top
        // rung every window costs the same again.
        let dag = HeteroQueryDag::new(vec![
            HeteroQueryStage {
                name: "X".into(),
                candidates: vec![cand(model_x(), "fast", 3.0), cand(slow_x(), "slow", 1.0)],
                children: vec![(1, 1.0)],
            },
            HeteroQueryStage {
                name: "Y".into(),
                candidates: vec![cand(slow_y(), "cheap", 0.9)],
                children: vec![],
            },
        ]);
        for slo_ms in [150, 200, 250, 400] {
            let slo = Micros::from_millis(slo_ms);
            let split = optimize_hetero_split(&dag, slo, 100.0, 50);
            assert!(split.is_some(), "feasible at {slo_ms} ms");
            assert_eq!(
                split,
                reference::optimize_hetero_split(&dag, slo, 100.0, 50)
            );
            let single = first_candidate_tree(&dag);
            assert_eq!(
                optimize_latency_split(&single, slo, 100.0, 50),
                reference::optimize_latency_split(&single, slo, 100.0, 50)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// `tabulated_dps_match_the_unhoisted_ones` at 2048 cases (CI's
        /// `planner-oracles` step runs it in release).
        #[test]
        #[ignore = "2048 cases; run with --release -- --ignored"]
        fn tabulated_dps_match_the_unhoisted_ones_2048(
            raw in arb_stages(),
            slo_ms in 2u64..900,
            rate_kind in 0u32..5,
            root_rate in 0.5f64..2_000.0,
            segments_idx in 0usize..4,
        ) {
            let root_rate = if rate_kind == 0 { 0.0 } else { root_rate };
            dps_match_reference(&raw, slo_ms, root_rate, [1u32, 7, 50, 120][segments_idx])?;
        }

        /// `ladder_throughput_table_matches_the_rung_scan` at 2048 cases.
        #[test]
        #[ignore = "2048 cases; run with --release -- --ignored"]
        fn ladder_throughput_table_matches_the_rung_scan_2048(
            alpha_us in 0.5f64..3_000.0,
            beta_us in 10.0f64..80_000.0,
            batch_kind in 0u32..4,
            max_batch in 2u32..130,
            rate_kind in 0u32..5,
            rate in 0.5f64..2_000.0,
            steps in 1usize..300,
        ) {
            let rate = if rate_kind == 0 { 0.0 } else { rate };
            walk_matches_rung_scan(alpha_us, beta_us, batch_kind, max_batch, rate, steps)?;
        }
    }
}
