//! Regenerates Figure 14: GPU multiplexing on a single GPU (§7.5).
//!
//! (a) Aggregate max 99%-good throughput for k = 2..5 copies of Inception
//!     under a 100 ms SLO, for Clipper, TF-Serving, Nexus-parallel, and
//!     Nexus.
//! (b) The same with 3 models while sweeping the SLO from 50 to 200 ms.
//!
//! Usage: `cargo run --release -p bench --bin fig14_multiplexing [--quick]`

use bench::{node_config, print_table, write_json, Args};
use nexus::prelude::*;
use nexus_profile::catalog::INCEPTION3;
use nexus_profile::Micros;
use nexus_runtime::NodeSession;

/// The four systems at single-node granularity: (label, coordinated,
/// policy, overlap, ladder).
fn systems() -> [(&'static str, bool, DropPolicy, bool, bool); 4] {
    [
        ("clipper", false, DropPolicy::Lazy, false, false),
        ("tf-serving", true, DropPolicy::None, false, false),
        ("nexus-parallel", false, DropPolicy::Early, true, false),
        ("nexus", true, DropPolicy::Early, true, true),
    ]
}

#[allow(clippy::too_many_arguments)]
fn max_goodput(
    k: usize,
    slo: Micros,
    coordinated: bool,
    policy: DropPolicy,
    overlap: bool,
    ladder: bool,
    args: &Args,
) -> f64 {
    let profile = INCEPTION3.profile_1080ti().effective(overlap, 4);
    let probe = |total_rate: f64| {
        let sessions: Vec<NodeSession> = (0..k)
            .map(|_| NodeSession {
                profile: profile.clone(),
                slo,
                rate: total_rate / k as f64,
                arrival: ArrivalKind::Uniform,
            })
            .collect();
        ClusterSim::try_new_node(node_config(args, coordinated, policy, ladder), &sessions)
            .expect("a static single-GPU plan")
            .run()
            .query_bad_rate
    };
    // Single-GPU planner differences (e.g. ladder rotation vs static
    // batch fitting) are ~0.5% of absolute throughput — below the default
    // bisection grid (~3 q/s at this ceiling) — so this panel runs two
    // extra refinement steps. The first `iters` probes are identical to
    // the default search, so values can only be refined upward, never
    // moved to a different coarse bracket.
    let mut search = args.search(3_000.0);
    search.iters += 2;
    nexus::max_rate_within(&search, probe)
}

fn main() {
    let args = Args::parse(20);

    // Both panels are grids of independent seeded searches — build the flat
    // point list, fan it across cores, and reassemble in input order (same
    // output as the nested loops for any thread count).
    let points_a: Vec<(usize, Micros)> = (2..=5usize)
        .map(|k| (k, Micros::from_millis(100)))
        .collect();
    let points_b: Vec<(usize, Micros)> = [50u64, 100, 150, 200]
        .into_iter()
        .map(|slo_ms| (3, Micros::from_millis(slo_ms)))
        .collect();
    #[allow(clippy::type_complexity)]
    let points: Vec<(usize, Micros, &'static str, bool, DropPolicy, bool, bool)> = points_a
        .iter()
        .chain(&points_b)
        .flat_map(|&(k, slo)| {
            systems()
                .into_iter()
                .map(move |(label, coord, policy, overlap, ladder)| {
                    (k, slo, label, coord, policy, overlap, ladder)
                })
        })
        .collect();
    let goodputs = bench::par_map(&points, |&(k, slo, _, coord, policy, overlap, ladder)| {
        max_goodput(k, slo, coord, policy, overlap, ladder, &args)
    });

    // (a) Throughput vs number of co-located models, SLO 100 ms.
    let mut series_a = Vec::new();
    let rows: Vec<Vec<String>> = (2..=5usize)
        .enumerate()
        .map(|(i, k)| {
            let mut row = vec![k.to_string()];
            for (j, (label, ..)) in systems().into_iter().enumerate() {
                let tp = goodputs[4 * i + j];
                series_a.push((label, k, tp));
                row.push(format!("{tp:.0}"));
            }
            row
        })
        .collect();
    print_table(
        "Fig. 14(a): aggregate throughput vs #models (Inception, 100 ms SLO, 1 GPU)",
        &[
            "#models",
            "clipper",
            "tf-serving",
            "nexus-parallel",
            "nexus",
        ],
        &rows,
    );

    // (b) Throughput vs SLO with 3 models.
    let offset = 4 * points_a.len();
    let mut series_b = Vec::new();
    let rows: Vec<Vec<String>> = [50u64, 100, 150, 200]
        .into_iter()
        .enumerate()
        .map(|(i, slo_ms)| {
            let mut row = vec![format!("{slo_ms}")];
            for (j, (label, ..)) in systems().into_iter().enumerate() {
                let tp = goodputs[offset + 4 * i + j];
                series_b.push((label, slo_ms, tp));
                row.push(format!("{tp:.0}"));
            }
            row
        })
        .collect();
    print_table(
        "Fig. 14(b): aggregate throughput vs SLO (3 Inception models, 1 GPU)",
        &[
            "SLO (ms)",
            "clipper",
            "tf-serving",
            "nexus-parallel",
            "nexus",
        ],
        &rows,
    );
    println!(
        "\nPaper's shape: all systems degrade as models multiply; Clipper worst \
         (interfering containers), TF better (round-robin), Nexus-parallel \
         better still (no idling, residual interference), Nexus best. Looser \
         SLOs narrow the Nexus-parallel gap."
    );
    write_json(&args, &(series_a, series_b));
}
