//! Heterogeneous fleets: goodput per dollar-proxy, mixed vs homogeneous.
//!
//! Runs every fleet in `bench::hetero::fleets()` — a mixed
//! 1080Ti/K80/V100 fleet and three homogeneous fleets of (approximately)
//! the same hourly cost — on each workload, reporting goodput, bad rate,
//! planner SLO-budget violations (sessions no available device class can
//! hold within budget), and goodput per dollar-proxy. Each cell's JSON
//! carries an FNV-1a fingerprint of the full `SimResult`, so regenerating
//! the artifact doubles as a byte-identity check.
//!
//! Usage: `cargo run --release -p bench --bin hetero [--quick] [--out FILE]`

use bench::hetero::{fleets, run_cell, workloads, HeteroCell};
use bench::{print_table, render_table, Args};
use serde_json::{json, Value};

const HEADER: [&str; 7] = [
    "fleet",
    "gpus",
    "$/h",
    "goodput q/s",
    "bad %",
    "slo-viol",
    "q/s per $/h",
];

/// One measured fleet: (fleet name, fleet GPU count, cell).
type FleetCell = (&'static str, u32, HeteroCell);

fn main() {
    let args = Args::parse(20);
    let fleets = fleets();

    let mut txt = String::new();
    let mut measured: Vec<(&'static str, Vec<FleetCell>)> = Vec::new();
    for (wname, classes) in workloads() {
        let mut cells = Vec::new();
        for fleet in &fleets {
            let cell = run_cell(
                &fleet.pools,
                &classes,
                args.seed,
                args.warmup(),
                args.horizon(),
            );
            let gpus: u32 = fleet.pools.iter().map(|p| p.gpus).sum();
            cells.push((fleet.name, gpus, cell));
        }
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|(name, gpus, c)| {
                vec![
                    (*name).to_string(),
                    gpus.to_string(),
                    format!("{:.2}", c.hourly_usd),
                    format!("{:.1}", c.goodput),
                    format!("{:.2}", c.bad_rate * 100.0),
                    c.infeasible_sessions.to_string(),
                    format!("{:.2}", c.per_dollar),
                ]
            })
            .collect();
        print_table(&format!("hetero · {wname}"), &HEADER, &rows);
        txt.push_str(&render_table(&format!("hetero · {wname}"), &HEADER, &rows));
        // The mixed fleet's per-pool rollup, so the artifact shows where
        // each device class earns (or loses) its keep.
        if let Some((_, _, mixed)) = cells.iter().find(|(n, _, _)| *n == "mixed") {
            let pool_rows: Vec<Vec<String>> = mixed
                .pools
                .iter()
                .map(|(device, backends, busy, goodput, bad)| {
                    vec![
                        (*device).to_string(),
                        backends.to_string(),
                        format!("{:.1}", busy * 100.0),
                        format!("{:.1}", goodput),
                        format!("{:.2}", bad * 100.0),
                    ]
                })
                .collect();
            let pool_header = [
                "pool device",
                "backends",
                "busy %",
                "req good/s",
                "req bad %",
            ];
            print_table(
                &format!("hetero · {wname} · mixed pools"),
                &pool_header,
                &pool_rows,
            );
            txt.push_str(&render_table(
                &format!("hetero · {wname} · mixed pools"),
                &pool_header,
                &pool_rows,
            ));
        }
        measured.push((wname, cells));
    }

    // The headline claim the CI smoke replays: on at least one workload the
    // mixed fleet must beat every homogeneous-equivalent-cost baseline on
    // goodput per dollar with zero SLO-budget violations.
    let (headline_workload, headline_per_dollar) = measured
        .iter()
        .find_map(|(wname, cells)| {
            let (_, _, mixed) = cells.iter().find(|(n, _, _)| *n == "mixed")?;
            let wins = cells
                .iter()
                .filter(|(n, _, _)| *n != "mixed")
                .all(|(_, _, c)| c.per_dollar < mixed.per_dollar);
            (wins && mixed.infeasible_sessions == 0).then_some((*wname, mixed.per_dollar))
        })
        .expect(
            "no workload where the mixed fleet beats every equal-cost homogeneous \
             baseline at zero SLO-budget violations — hetero planning regressed",
        );
    println!(
        "\nheadline: mixed fleet wins '{headline_workload}' at \
         {headline_per_dollar:.2} q/s per $/h"
    );

    let workload_docs: Vec<Value> = measured
        .iter()
        .map(|(wname, cells)| {
            let fleet_docs: Vec<Value> = cells
                .iter()
                .map(|(name, gpus, c)| {
                    json!({
                        "fleet": *name,
                        "gpus": *gpus,
                        "hourly_usd": c.hourly_usd,
                        "goodput_qps": c.goodput,
                        "bad_rate": c.bad_rate,
                        "slo_violations": c.infeasible_sessions as u64,
                        "goodput_per_dollar": c.per_dollar,
                        "fingerprint": format!("{:016x}", c.fingerprint),
                    })
                })
                .collect();
            json!({ "name": *wname, "fleets": fleet_docs })
        })
        .collect();
    let doc = json!({
        "seed": args.seed,
        "secs": args.secs,
        "headline": json!({
            "workload": headline_workload,
            "goodput_per_dollar": headline_per_dollar,
        }),
        "workloads": workload_docs,
    });

    if let Some(path) = &args.out {
        std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap())
            .expect("writable --out path");
        println!("(wrote {})", path.display());
        let txt_path = path.with_extension("txt");
        std::fs::write(&txt_path, &txt).expect("writable txt path");
        println!("(wrote {})", txt_path.display());
    }
}
