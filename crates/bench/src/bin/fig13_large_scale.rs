//! Regenerates Figure 13: a window from the long-running multi-application
//! deployment on a 100-GPU (K80) cluster (§7.4) — all seven Table 4
//! applications with Poisson arrivals, a mid-run workload surge, 30 s
//! epochs, and the three timeline panels: offered load, GPUs allocated,
//! and bad rate.
//!
//! Usage: `cargo run --release -p bench --bin fig13_large_scale [--secs N]`

use bench::{fig13_classes, print_table, trace_capacity, write_json, write_trace, Args};
use nexus::prelude::*;
use nexus_profile::{Micros, GPU_K80};

fn main() {
    let args = Args::parse(300);
    let horizon = args.horizon();
    let classes = fig13_classes(horizon, 1.0);

    let result = nexus::run_once(
        SystemConfig::nexus()
            .with_epoch(Micros::from_secs(30))
            .with_spread_factor(1.4),
        GPU_K80,
        100,
        classes,
        args.seed,
        args.warmup(),
        horizon,
        trace_capacity(&args),
    );
    write_trace(&args, &result);

    // The three panels, sampled every 10 s for the printed table (the JSON
    // carries every 1 s bucket).
    let tl = result.metrics.timeline();
    let rows: Vec<Vec<String>> = tl
        .iter()
        .enumerate()
        .step_by(10)
        .map(|(sec, b)| {
            let total = b.good + b.bad;
            let bad_pct = if total == 0 {
                0.0
            } else {
                b.bad as f64 / total as f64 * 100.0
            };
            vec![
                format!("{sec}"),
                format!("{}", b.arrivals),
                format!("{}", b.gpus_allocated),
                format!("{bad_pct:.2}%"),
            ]
        })
        .collect();
    print_table(
        "Fig. 13: deployment timeline (10 s samples)",
        &["t (s)", "req/s", "GPUs", "bad rate"],
        &rows,
    );

    println!(
        "\nsummary: {} queries, query bad rate {:.3}% (paper: 0.27%), \
         mean GPUs {:.1}, GPU utilization {:.0}%",
        result.queries_finished,
        result.query_bad_rate * 100.0,
        result.mean_gpus,
        result.gpu_utilization * 100.0
    );
    println!(
        "Paper's shape: the allocation tracks the surge within an epoch or \
         two; bad-rate spikes coincide with reconfigurations; the long-run \
         bad rate stays a fraction of a percent."
    );
    let json_tl: Vec<(usize, u64, u32, u64, u64)> = tl
        .iter()
        .enumerate()
        .map(|(s, b)| (s, b.arrivals, b.gpus_allocated, b.good, b.bad))
        .collect();
    write_json(&args, &(json_tl, result.query_bad_rate, result.mean_gpus));
}
