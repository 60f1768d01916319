//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit, direction and (end to end) regression
//! bound. `BENCHMARK.json` at the repo root lists the same names; a unit
//! test keeps the two in lock step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload.
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Why it exists.
    pub why: &'static str,
}

/// One metric.
pub struct Metric {
    /// Name in results.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End to end: share of the parent's median the metric may worsen by.
    /// Per layer: `None`.
    pub bound: Option<f64>,
    /// End to end: what the value is on each workload. Per layer: the
    /// end-to-end metric it should move, and where.
    pub note: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig13_100gpu",
        why: "the paper's deployment run, 7 apps on 100 K80s for 310 simulated s: data plane does the work, planner ~11 x 0.8 ms, so a data-plane gain shows and a planner gain must not",
    },
    Workload {
        name: "fig13_1kgpu",
        why: "same layers at 10x the standing events and sessions on 1000 K80s, cache-bound with the drop path hot: a win at 100 GPUs that costs large fleets shows here",
    },
    Workload {
        name: "replan_tenants",
        why: "control plane only: 280 classes re-planned per epoch on a mixed V100/1080Ti/K80 fleet and on one K80 pool; the data plane does nothing, so planner work is the whole signal",
    },
    Workload {
        name: "door_loopback",
        why: "the only real-socket path: 2 persistent clients through the TCP front door to 4 loopback backends, closed loop then an open-loop rate ladder; simulator and planner do nothing",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

/// End-to-end metrics. Every workload reports every one; the note says
/// what each is there.
pub const END_TO_END: [Metric; 6] = [
    e2e(
        "work_per_s",
        "1/s",
        Better::Higher,
        0.25,
        "host time. sims: simulated seconds per wall second of the fastest rep; replan: epochs re-planned per second, both fleets, fastest epoch on each; door: closed-loop replies per second",
    ),
    e2e(
        "op_ms",
        "ms",
        Better::Lower,
        0.25,
        "host time. sims: the fastest simulation rep; replan: the fastest epoch on the mixed fleet (plan_pooled + assign_plans); door: median closed-loop round trip",
    ),
    e2e(
        "goodput_per_s",
        "1/s",
        Better::Higher,
        0.02,
        "simulated/step-valued, exact for a seed. sims: good queries per simulated second; replan: offered frames/s per GPU planned (mixed fleet); door: highest open-loop rate within the 100 ms limit",
    ),
    e2e(
        "good_frac",
        "frac",
        Better::Higher,
        0.02,
        "exact for a seed. sims: 1 - query bad rate; replan: sessions placed / sessions (mixed fleet); door: requests answered Completed within the limit / requests sent (phase A + passing ladder steps)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.25,
        "VmHWM of the one process that ran the workload",
    ),
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "host time, median of 4 or more, half before the measuring and half after: generate inputs from the seed, build the system, one untimed first operation",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

const SIMS: &str = "work_per_s / op_ms on both sims";
const SIMS_BIG: &str = "work_per_s / op_ms on both sims, more on fig13_1kgpu";
const REPLAN: &str = "op_ms / work_per_s on replan_tenants";
const DOOR: &str = "op_ms / work_per_s on door_loopback";
const DOOR_LIMIT: &str = "op_ms / goodput_per_s on door_loopback";

/// Per-layer metrics. A traced run reports every one; 0 means the
/// workload does not exercise the layer (or, for a tail percentile, that
/// the run was too short to support it).
pub const PER_LAYER: [Metric; 55] = [
    layer("nexus-simgpu.engine.push_pop_ns", "ns", Lower, SIMS_BIG),
    layer("nexus-simgpu.engine.far_push_pop_ns", "ns", Lower, SIMS_BIG),
    layer("nexus-simgpu.engine.share", "frac", Lower, SIMS_BIG),
    layer(
        "nexus-runtime.dispatch.pull_ladder_ns_d16",
        "ns",
        Lower,
        SIMS,
    ),
    layer(
        "nexus-runtime.dispatch.pull_ladder_ns_d1k",
        "ns",
        Lower,
        SIMS_BIG,
    ),
    layer(
        "nexus-runtime.dispatch.pull_ladder_ns_d10k",
        "ns",
        Lower,
        SIMS_BIG,
    ),
    layer("nexus-runtime.dispatch.pull_lazy_ns_d1k", "ns", Lower, SIMS),
    layer(
        "nexus-runtime.dispatch.dropped_frac",
        "frac",
        Lower,
        "good_frac on both sims",
    ),
    layer("nexus-runtime.dispatch.share", "frac", Lower, SIMS),
    layer("nexus-runtime.metrics.record_ns", "ns", Lower, SIMS),
    layer("nexus-runtime.metrics.share", "frac", Lower, SIMS),
    layer("nexus-workload.arrivals.next_arrival_ns", "ns", Lower, SIMS),
    layer("nexus-workload.arrivals.share", "frac", Lower, SIMS),
    layer(
        "nexus-runtime.cluster.events",
        "count",
        Lower,
        "must stay identical for a pure speed-up of the sims",
    ),
    layer("nexus-runtime.cluster.events_per_s", "1/s", Higher, SIMS),
    layer("nexus-runtime.cluster.ns_per_event", "ns", Lower, SIMS),
    layer(
        "nexus-runtime.cluster.events_per_query",
        "count",
        Lower,
        SIMS,
    ),
    layer("nexus-runtime.cluster.residual_share", "frac", Lower, SIMS),
    layer(
        "nexus-runtime.cluster.bad_rate",
        "frac",
        Lower,
        "good_frac on both sims",
    ),
    layer(
        "nexus-runtime.cluster.goodput_at_slo_qps",
        "1/s",
        Higher,
        "the paper's headline, fig13_100gpu only; moves with goodput_per_s there",
    ),
    layer(
        "nexus-runtime.control.plan_pooled_ms",
        "ms",
        Lower,
        "op_ms on replan_tenants; predicted no move of work_per_s on the sims",
    ),
    layer(
        "nexus-runtime.control.plan_pooled_1pool_ms",
        "ms",
        Lower,
        "work_per_s on replan_tenants",
    ),
    layer(
        "nexus-runtime.control.replan_1pool_ms",
        "ms",
        Lower,
        "work_per_s on replan_tenants",
    ),
    layer(
        "nexus-runtime.control.gpus_planned",
        "count",
        Lower,
        "goodput_per_s on replan_tenants",
    ),
    layer(
        "nexus-runtime.control.share",
        "frac",
        Lower,
        "expected < 2 % on the sims: predicted no move of work_per_s there",
    ),
    layer("nexus-scheduler.squishy.pack_ms", "ms", Lower, REPLAN),
    layer(
        "nexus-scheduler.squishy.pack_ms_4k",
        "ms",
        Lower,
        "the quadratic tail; op_ms on replan_tenants at larger fleets",
    ),
    layer(
        "nexus-scheduler.squishy.gpus",
        "count",
        Lower,
        "goodput_per_s on replan_tenants",
    ),
    layer(
        "nexus-scheduler.squishy.mean_occupancy",
        "frac",
        Higher,
        "goodput_per_s on replan_tenants",
    ),
    layer(
        "nexus-scheduler.squishy.lb_ratio",
        "frac",
        Higher,
        "goodput_per_s on replan_tenants",
    ),
    layer(
        "nexus-scheduler.query.split_dp_ms",
        "ms",
        Lower,
        "work_per_s on replan_tenants once the one-pool plan runs this DP",
    ),
    layer("nexus-scheduler.query.hetero_dp_ms", "ms", Lower, REPLAN),
    layer("nexus-scheduler.incremental.assign_ms", "ms", Lower, REPLAN),
    layer(
        "nexus-scheduler.incremental.moved_frac",
        "frac",
        Lower,
        "model loads per placement; no end-to-end metric yet",
    ),
    layer(
        "nexus-profile.ladder.build_ns",
        "ns",
        Lower,
        "op_ms on replan_tenants, marginally work_per_s on the sims",
    ),
    layer(
        "nexus-profile.ladder.lookup_ns",
        "ns",
        Lower,
        "op_ms on replan_tenants, marginally work_per_s on the sims",
    ),
    layer("nexus-model.prefix.groups_ms", "ms", Lower, REPLAN),
    layer(
        "nexus-obs.trace_on_overhead_frac",
        "frac",
        Lower,
        "budget for ROADMAP item 5; no end-to-end metric (tracing is off end to end)",
    ),
    layer("nexus-obs.encode_ms", "ms", Lower, "no end-to-end metric"),
    layer("nexus-obs.decode_ms", "ms", Lower, "no end-to-end metric"),
    layer("nexus-obs.summary_ms", "ms", Lower, "no end-to-end metric"),
    layer("nexus-serve.proto.encode_ns", "ns", Lower, DOOR),
    layer("nexus-serve.proto.decode_ns", "ns", Lower, DOOR),
    layer("nexus-serve.proto.frame_roundtrip_ns", "ns", Lower, DOOR),
    layer(
        "nexus-serve.routing.pick_ns",
        "ns",
        Lower,
        "work_per_s on door_loopback under contention only; predicted invisible in op_ms today",
    ),
    layer(
        "nexus-serve.admission.admit_ns",
        "ns",
        Lower,
        "work_per_s on door_loopback under contention only; predicted invisible in op_ms today",
    ),
    layer(
        "nexus-serve.backend.direct_rtt_p50_us",
        "us",
        Lower,
        DOOR_LIMIT,
    ),
    layer(
        "nexus-serve.backend.direct_rtt_p99_us",
        "us",
        Lower,
        DOOR_LIMIT,
    ),
    layer("nexus-serve.frontend.rtt_p99_us", "us", Lower, DOOR_LIMIT),
    layer("nexus-serve.frontend.added_p50_us", "us", Lower, DOOR_LIMIT),
    layer(
        "nexus-serve.frontend.open_p99_us_at_20",
        "us",
        Lower,
        DOOR_LIMIT,
    ),
    layer(
        "nexus-serve.frontend.open_late_max_us",
        "us",
        Lower,
        "generator lateness: how far to trust the open-loop numbers",
    ),
    layer(
        "nexus-serve.frontend.retried_frac",
        "frac",
        Lower,
        DOOR_LIMIT,
    ),
    layer(
        "nexus-serve.frontend.dropped_frac",
        "frac",
        Lower,
        "good_frac on door_loopback",
    ),
    layer(
        "harness_trace_overhead_frac",
        "frac",
        Lower,
        "cost of the harness's own spans: traced vs untraced reps of the same run",
    ),
];

/// The metric table a `--trace` flag selects.
pub fn metrics(traced: bool) -> &'static [Metric] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{parse_json, Json};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for n in &all {
            assert!(well_formed(n), "bad name {n}");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let str_of = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_owned);

        let listed: Vec<_> = names(&doc, "workloads")
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (Some(w.name.to_owned()), Some(w.why.to_owned())))
            .collect();
        assert_eq!(listed, ours, "workloads differ");

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<_> = names(&doc, key)
                .iter()
                .map(|m| {
                    (
                        str_of(m, "name"),
                        str_of(m, "unit"),
                        str_of(m, "better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect();
            let ours: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        Some(m.name.to_owned()),
                        Some(m.unit.to_owned()),
                        Some(m.better.word().to_owned()),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(listed, ours, "{key} differs");
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
    }
}
