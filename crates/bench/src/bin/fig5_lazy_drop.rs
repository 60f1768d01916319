//! Regenerates Figure 5: bad rate of the lazy-drop policy vs. α under
//! uniform and Poisson arrivals (§4.3).
//!
//! Setup per the paper: SLO 100 ms, optimal single-GPU throughput fixed at
//! 500 req/s (so β falls as α rises), offered load at 90% of optimal.
//!
//! Usage: `cargo run -p bench --bin fig5_lazy_drop [--secs N] [--quick]`

use bench::{alpha_profile, node_config, print_table, write_json, Args};
use nexus_profile::Micros;
use nexus_runtime::{ClusterSim, DropPolicy, NodeSession};
use nexus_workload::ArrivalKind;

fn bad_rate(alpha: f64, arrival: ArrivalKind, args: &Args) -> f64 {
    let session = NodeSession {
        profile: alpha_profile(alpha),
        slo: Micros::from_millis(100),
        rate: 450.0, // 90% of the 500 req/s optimum
        arrival,
    };
    ClusterSim::try_new_node(node_config(args, true, DropPolicy::Lazy, false), &[session])
        .expect("a static single-GPU plan")
        .run()
        .query_bad_rate
}

fn main() {
    let args = Args::parse(60);
    let alphas = [1.0, 1.2, 1.4, 1.6, 1.8];
    let mut series = Vec::new();
    let rows: Vec<Vec<String>> = alphas
        .iter()
        .map(|&a| {
            let uni = bad_rate(a, ArrivalKind::Uniform, &args);
            let poi = bad_rate(a, ArrivalKind::Poisson, &args);
            series.push((a, uni, poi));
            vec![
                format!("{a:.1}"),
                format!("{:.1}%", uni * 100.0),
                format!("{:.1}%", poi * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 5: lazy-drop bad rate vs α (SLO 100 ms, 90% load)",
        &["α (ms)", "uniform", "poisson"],
        &rows,
    );
    println!(
        "\nPaper's shape: Poisson bad rate is worst at small α (large β — small \
         forced batches fail to amortize the fixed cost) and falls as α grows; \
         uniform arrivals stay near zero."
    );
    write_json(&args, &series);
}
