//! Ablation benches for the design choices DESIGN.md §5 calls out, beyond
//! the paper's own ablations:
//!
//! 1. best-fit vs first-fit residual merging in squishy bin packing,
//! 2. latency-split DP segment count (ε) vs solution quality and cost,
//! 3. cluster spread factor vs SLO attainment at fixed load,
//! 4. interference overhead δ vs the Fig. 14 coordinated/uncoordinated gap.
//!
//! Usage: `cargo run --release -p bench --bin ablations [--quick]`

use std::time::Instant;

use bench::{node_config, print_table, traffic_classes, write_json, Args};
use nexus::prelude::*;
use nexus_profile::{BatchingProfile, Micros};
use nexus_runtime::NodeSession;
use nexus_scheduler::{
    optimize_latency_split, squishy_bin_packing_with, MergeOrder, QueryDag, QueryStage,
};
use nexus_simgpu::InterferenceModel;

/// 1. Merge-order ablation over seeded random session populations.
fn merge_order(args: &Args) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for pop in 0..6u64 {
        let mut x = (args.seed ^ pop).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let sessions: Vec<SessionSpec> = (0..24)
            .map(|i| {
                SessionSpec::new(
                    SessionId(i),
                    BatchingProfile::from_linear_ms(
                        0.2 + (next() % 25) as f64 / 10.0,
                        1.0 + (next() % 250) as f64 / 10.0,
                        64,
                    ),
                    Micros::from_millis(60 + next() % 300),
                    1.0 + (next() % 600) as f64 / 10.0,
                )
            })
            .collect();
        let best = squishy_bin_packing_with(&sessions, 11 << 30, MergeOrder::BestFit);
        let first = squishy_bin_packing_with(&sessions, 11 << 30, MergeOrder::FirstFit);
        rows.push(vec![
            format!("population {pop}"),
            best.gpu_count().to_string(),
            first.gpu_count().to_string(),
            format!("{:.0}%", best.mean_occupancy() * 100.0),
            format!("{:.0}%", first.mean_occupancy() * 100.0),
        ]);
    }
    rows
}

/// 2. DP segment-count sweep: quality (GPUs) and planning cost.
fn dp_segments() -> Vec<Vec<String>> {
    let dag = QueryDag::new(vec![
        QueryStage {
            name: "det".into(),
            profile: BatchingProfile::from_linear_ms(9.0, 38.0, 32),
            children: vec![(1, 1.2), (2, 0.4)],
        },
        QueryStage {
            name: "rec".into(),
            profile: BatchingProfile::from_linear_ms(1.2, 5.3, 64),
            children: vec![],
        },
        QueryStage {
            name: "face".into(),
            profile: BatchingProfile::from_linear_ms(3.2, 5.8, 48),
            children: vec![],
        },
    ]);
    [10u32, 25, 50, 100, 200, 400]
        .into_iter()
        .map(|segments| {
            let t0 = Instant::now();
            let split = optimize_latency_split(&dag, Micros::from_millis(400), 500.0, segments)
                .expect("feasible");
            let elapsed = t0.elapsed();
            vec![
                segments.to_string(),
                format!("{:.3}", split.gpus),
                format!("{}", split.budgets[0]),
                format!("{:.1} ms", elapsed.as_secs_f64() * 1e3),
            ]
        })
        .collect()
}

/// 3. Spread-factor sweep on the traffic workload.
fn spread_factor(args: &Args) -> Vec<Vec<String>> {
    [1.0f64, 1.5, 2.0, 4.0]
        .into_iter()
        .map(|factor| {
            let result = nexus::run_once(
                SystemConfig::nexus()
                    .with_spread_factor(factor)
                    .with_static_allocation(),
                GPU_GTX1080TI,
                16,
                traffic_classes(600.0),
                args.seed,
                args.warmup(),
                args.horizon(),
                0,
            );
            vec![
                format!("{factor:.1}"),
                format!("{:.1}", result.mean_gpus),
                format!("{:.3}%", result.query_bad_rate * 100.0),
                format!("{:.0}%", result.gpu_utilization * 100.0),
            ]
        })
        .collect()
}

/// 4. Interference overhead δ: the coordinated/uncoordinated goodput gap
///    on one GPU with 3 Inception models (Fig. 14's mechanism).
fn interference_delta(args: &Args) -> Vec<Vec<String>> {
    let profile = nexus_profile::catalog::INCEPTION3
        .profile_1080ti()
        .effective(true, 4);
    let measure = |coordinated: bool, delta: f64| {
        let probe = |rate: f64| {
            let sessions: Vec<NodeSession> = (0..3)
                .map(|_| NodeSession {
                    profile: profile.clone(),
                    slo: Micros::from_millis(100),
                    rate: rate / 3.0,
                    arrival: ArrivalKind::Uniform,
                })
                .collect();
            let mut cfg = node_config(args, coordinated, DropPolicy::Early, false);
            cfg.system.interference = InterferenceModel {
                per_peer_overhead: delta,
            };
            ClusterSim::try_new_node(cfg, &sessions)
                .expect("a static single-GPU plan")
                .run()
                .query_bad_rate
        };
        nexus::max_rate_within(&args.search(2_000.0), probe)
    };
    [0.0f64, 0.1, 0.25, 0.5]
        .into_iter()
        .map(|delta| {
            let coord = measure(true, delta);
            let uncoord = measure(false, delta);
            vec![
                format!("{delta:.2}"),
                format!("{coord:.0}"),
                format!("{uncoord:.0}"),
                format!("{:.2}x", coord / uncoord.max(1.0)),
            ]
        })
        .collect()
}

/// 5. Batch-plan ladders (DESIGN.md §16) on/off across the occupancy
///    range: 4 Inception copies on one GPU under a 100 ms SLO — the
///    Fig. 14 k=4 point — offered 10–90% of the measured nexus capacity.
///    At low occupancy ladder slots execute a small rung immediately
///    instead of billing the full planned batch, which shows up as a
///    lower tail; near saturation the rotated rung plan holds goodput
///    where the static fit starts shedding.
fn ladder_occupancy(args: &Args) -> Vec<Vec<String>> {
    // Measured fig14(a) nexus point at k=4 (bench_results/fig14.json).
    const CAPACITY: f64 = 620.0;
    let profile = nexus_profile::catalog::INCEPTION3
        .profile_1080ti()
        .effective(true, 4);
    let measure = |ladder: bool, total: f64| {
        let sessions: Vec<NodeSession> = (0..4)
            .map(|_| NodeSession {
                profile: profile.clone(),
                slo: Micros::from_millis(100),
                rate: total / 4.0,
                arrival: ArrivalKind::Uniform,
            })
            .collect();
        let mut cfg = node_config(args, true, DropPolicy::Early, ladder);
        cfg.trace_capacity = 1 << 21;
        let out = ClusterSim::try_new_node(cfg, &sessions)
            .expect("a static single-GPU plan")
            .run();
        let warmup = args.warmup();
        let mut lat: Vec<u64> = out
            .trace
            .as_ref()
            .expect("tracing enabled")
            .events()
            .iter()
            .filter_map(|e| match e {
                nexus_runtime::TraceEvent::Completion { t, latency, .. } if *t >= warmup => {
                    Some(latency.as_micros())
                }
                _ => None,
            })
            .collect();
        lat.sort_unstable();
        let q = |f: f64| {
            if lat.is_empty() {
                0.0
            } else {
                lat[((lat.len() - 1) as f64 * f) as usize] as f64 / 1_000.0
            }
        };
        (out.query_bad_rate, out.query_goodput, q(0.5), q(0.99))
    };
    [10u32, 30, 50, 70, 80, 90, 95, 100]
        .iter()
        .map(|&pct| {
            let total = CAPACITY * f64::from(pct) / 100.0;
            let (off_bad, off_good, off_p50, off_p99) = measure(false, total);
            let (on_bad, on_good, on_p50, on_p99) = measure(true, total);
            vec![
                format!("{pct}%"),
                format!("{off_p50:.1}"),
                format!("{on_p50:.1}"),
                format!("{off_p99:.1}"),
                format!("{on_p99:.1}"),
                format!("{:.2}%", off_bad * 100.0),
                format!("{:.2}%", on_bad * 100.0),
                format!("{off_good:.0}"),
                format!("{on_good:.0}"),
            ]
        })
        .collect()
}

const LADDER_TITLE: &str =
    "Ablation 5: batch-plan ladders vs occupancy (4 Inception models, 1 GPU, 100 ms SLO)";
const LADDER_HEADER: [&str; 9] = [
    "occupancy",
    "p50 off",
    "p50 on",
    "p99 off",
    "p99 on",
    "bad off",
    "bad on",
    "goodput off",
    "goodput on",
];

fn main() {
    let args = Args::parse(10);

    let rows = merge_order(&args);
    print_table(
        "Ablation 1: best-fit vs first-fit residual merging (24 sessions)",
        &["population", "BFD GPUs", "FFD GPUs", "BFD occ", "FFD occ"],
        &rows,
    );
    write_json(&args, &rows);

    let rows = dp_segments();
    print_table(
        "Ablation 2: latency-split DP segments (ε) vs quality and cost",
        &["segments", "est. GPUs", "root budget", "plan time"],
        &rows,
    );

    let rows = spread_factor(&args);
    print_table(
        "Ablation 3: spread factor vs SLO attainment (traffic @600 req/s, 16 GPUs)",
        &["spread", "mean GPUs", "bad rate", "utilization"],
        &rows,
    );

    let rows = interference_delta(&args);
    print_table(
        "Ablation 4: interference δ vs coordinated/uncoordinated goodput (3 models, 1 GPU)",
        &["δ", "coordinated", "uncoordinated", "gap"],
        &rows,
    );

    let rows = ladder_occupancy(&args);
    let table = bench::render_table(LADDER_TITLE, &LADDER_HEADER, &rows);
    print!("{table}");
    // The ladder section is its own committed artifact (latency in ms,
    // quantiles over the measurement window): ladder.{json,txt} beside
    // whatever --out names.
    if let Some(out) = &args.out {
        let dir = out.parent().unwrap_or_else(|| std::path::Path::new("."));
        std::fs::write(dir.join("ladder.txt"), table.trim_start()).expect("writable out dir");
        let json = serde_json::to_string_pretty(&(&LADDER_HEADER, &rows)).expect("serializable");
        std::fs::write(dir.join("ladder.json"), json).expect("writable out dir");
        println!("(wrote {})", dir.join("ladder.{json,txt}").display());
    }
}
