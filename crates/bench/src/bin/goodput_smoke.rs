//! CI goodput smoke: the Fig. 14 k=5 ladder point must sustain 98% of
//! its committed throughput.
//!
//! Reads the committed `bench_results/fig14.json`, takes the nexus
//! #models=5 aggregate throughput as the baseline, and replays that
//! single-GPU configuration (5 Inception copies, 100 ms SLO, batch-plan
//! ladders) at 98% of the baseline rate. The run must meet the same
//! criterion the fig14 throughput search uses — a bad rate within 1% —
//! or the process exits nonzero. A regression in ladder planning,
//! rotation, or dispatch shows up here in seconds instead of waiting for
//! a full figure regeneration.
//!
//! Usage: `cargo run --release -p bench --bin goodput_smoke [--quick]`

use bench::{node_config, Args};
use nexus::prelude::*;
use nexus_profile::catalog::INCEPTION3;
use nexus_profile::Micros;
use nexus_runtime::NodeSession;

/// Nexus aggregate throughput at #models = 5 from the committed fig14
/// panel (a), i.e. the baseline this smoke must stay within 2% of.
fn committed_baseline() -> f64 {
    let path = "bench_results/fig14.json";
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("goodput smoke needs {path} (run from the repo root): {e}"));
    let json: serde_json::Value = serde_json::from_str(&text).expect("valid fig14.json");
    let panel_a = json
        .as_array()
        .and_then(|panels| panels.first())
        .and_then(|p| p.as_array())
        .expect("fig14 panel (a)");
    panel_a
        .iter()
        .filter_map(|row| {
            let cells = row.as_array()?;
            let name = cells.first()?.as_str()?;
            let k = cells.get(1)?.as_u64()?;
            let tp = cells.get(2)?.as_f64()?;
            (name == "nexus" && k == 5).then_some(tp)
        })
        .next()
        .expect("nexus #models=5 row in fig14.json")
}

fn main() {
    let args = Args::parse(20);
    let baseline = committed_baseline();
    let offered = baseline * 0.98;

    let profile = INCEPTION3.profile_1080ti().effective(true, 4);
    let sessions: Vec<NodeSession> = (0..5)
        .map(|_| NodeSession {
            profile: profile.clone(),
            slo: Micros::from_millis(100),
            rate: offered / 5.0,
            arrival: ArrivalKind::Uniform,
        })
        .collect();
    let outcome =
        ClusterSim::try_new_node(node_config(&args, true, DropPolicy::Early, true), &sessions)
            .expect("a static single-GPU plan")
            .run();
    println!(
        "goodput smoke: committed baseline {baseline:.1} q/s, offered {offered:.1} q/s \
         -> goodput {:.1} q/s, bad rate {:.3}%",
        outcome.query_goodput,
        outcome.query_bad_rate * 100.0
    );
    // Same criterion as the fig14 throughput search: within 1% bad.
    if outcome.query_bad_rate > 0.01 {
        eprintln!(
            "FAIL: bad rate {:.3}% > 1% at 98% of the committed fig14 #models=5 \
             baseline — ladder serving lost throughput",
            outcome.query_bad_rate * 100.0
        );
        std::process::exit(1);
    }
    println!("goodput smoke OK");
}
