//! CI hetero smoke: the committed mixed-fleet goodput-per-dollar point
//! must replay within 1%, with zero SLO-budget violations.
//!
//! Reads `bench_results/hetero.json`, takes the headline workload (the one
//! where the mixed 1080Ti/K80/V100 fleet beats every homogeneous
//! equivalent-cost baseline) and its committed goodput per dollar-proxy,
//! and replays exactly that configuration — same fleet, workload, seed and
//! horizon, so the simulation is bit-deterministic and any drift is a code
//! change, not noise. The process exits nonzero if goodput per dollar
//! drops more than 1% below the committed baseline or any SLO-budget
//! violation appears (a session whose latency budget no available device
//! class can hold). Mirrors `goodput_smoke`: a regression in pool-aware
//! planning, per-stage class choice, or cross-pool handoff shows up here
//! in seconds instead of waiting for a full bench regeneration.
//!
//! Usage: `cargo run --release -p bench --bin hetero_smoke`

use bench::hetero::{fleets, run_cell, workloads};
use nexus_profile::Micros;
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("hetero.json missing field `{key}`"))
}

/// The committed headline: (workload name, goodput per dollar, seed, secs).
fn committed_baseline() -> (String, f64, u64, u64) {
    let path = "bench_results/hetero.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("hetero smoke needs {path} (run from the repo root): {e}"));
    let json: Value = serde_json::from_str(&text).expect("valid hetero.json");
    let headline = field(&json, "headline");
    (
        field(headline, "workload")
            .as_str()
            .expect("headline workload name")
            .to_string(),
        field(headline, "goodput_per_dollar")
            .as_f64()
            .expect("headline goodput_per_dollar"),
        field(&json, "seed").as_u64().expect("seed"),
        field(&json, "secs").as_u64().expect("secs"),
    )
}

fn main() {
    let (wname, committed, seed, secs) = committed_baseline();
    let classes = workloads()
        .into_iter()
        .find(|(name, _)| *name == wname)
        .unwrap_or_else(|| panic!("committed headline workload `{wname}` no longer defined"))
        .1;
    let fleets = fleets();
    let mixed = fleets
        .iter()
        .find(|f| f.name == "mixed")
        .expect("mixed fleet");

    // Same warmup rule as bench::Args, so the replay is the committed run.
    let warmup_secs = (secs / 4).clamp(2, 10);
    let cell = run_cell(
        &mixed.pools,
        &classes,
        seed,
        Micros::from_secs(warmup_secs),
        Micros::from_secs(secs + warmup_secs),
    );
    println!(
        "hetero smoke: committed {committed:.2} q/s per $/h on '{wname}' -> replayed \
         {:.2} q/s per $/h, bad rate {:.3}%, {} SLO-budget violations",
        cell.per_dollar,
        cell.bad_rate * 100.0,
        cell.infeasible_sessions
    );
    if cell.infeasible_sessions > 0 {
        eprintln!(
            "FAIL: {} sessions have no feasible device class within their \
             latency budget — pool-aware stage placement regressed",
            cell.infeasible_sessions
        );
        std::process::exit(1);
    }
    if cell.per_dollar < committed * 0.99 {
        eprintln!(
            "FAIL: goodput per dollar {:.2} dropped more than 1% below the \
             committed {committed:.2} — hetero planning lost goodput",
            cell.per_dollar
        );
        std::process::exit(1);
    }
    println!("hetero smoke OK");
}
