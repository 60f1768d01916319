//! Run an arbitrary workload configuration from a JSON file — the generic
//! entry point for exploring deployments without writing Rust.
//!
//! Usage:
//!   cargo run --release -p bench --bin simulate -- --workload workloads/sample.json
//!       [--trace trace.json] [--out result.json]

use std::path::PathBuf;
use std::process::exit;

use bench::workload_file::WorkloadFile;
use nexus_runtime::{ClusterSim, SimConfig};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

fn main() {
    let mut workload_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload_path = it.next().map(PathBuf::from),
            "--trace" => trace_path = it.next().map(PathBuf::from),
            "--out" => out_path = it.next().map(PathBuf::from),
            other => fail(format!(
                "unknown argument {other:?} \
                 (usage: --workload FILE [--trace FILE] [--out FILE])"
            )),
        }
    }
    let workload_path = workload_path.unwrap_or_else(|| fail("--workload FILE is required"));
    let json = std::fs::read_to_string(&workload_path)
        .unwrap_or_else(|e| fail(format!("cannot read {workload_path:?}: {e}")));
    let w = WorkloadFile::from_json(&json).unwrap_or_else(|e| fail(e));
    let device = w.device_type().unwrap_or_else(|e| fail(e));
    let system = w.system_config().unwrap_or_else(|e| fail(e));
    let classes = w.classes().unwrap_or_else(|e| fail(e));
    let faults = w.faults().unwrap_or_else(|e| fail(e));
    let (warmup, horizon) = w.window().unwrap_or_else(|e| fail(e));

    println!(
        "simulating {:?}: {} app stream(s), {} {} GPUs, system {}, {}s measured{}",
        workload_path,
        classes.len(),
        w.gpus,
        device.name,
        system.name,
        w.secs,
        if faults.is_empty() {
            String::new()
        } else {
            format!(", {} fault(s)", faults.len())
        }
    );
    // Planning errors (e.g. an unknown model in a custom app) surface here
    // as typed errors, not panics.
    let sim = ClusterSim::try_new(
        SimConfig {
            system,
            device,
            max_gpus: w.gpus,
            seed: w.seed.unwrap_or(42),
            horizon,
            warmup,
            trace_capacity: if trace_path.is_some() { 2_000_000 } else { 0 },
            faults,
        },
        classes,
    )
    .unwrap_or_else(|e| fail(e));
    let result = sim.run();

    println!("queries finished : {}", result.queries_finished);
    println!("goodput          : {:.1} q/s", result.query_goodput);
    println!("query bad rate   : {:.3}%", result.query_bad_rate * 100.0);
    println!("mean GPUs        : {:.1}", result.mean_gpus);
    println!("GPU utilization  : {:.0}%", result.gpu_utilization * 100.0);
    let mut sessions: Vec<_> = result.metrics.sessions().collect();
    sessions.sort_by_key(|(id, _)| id.0);
    println!("\nper-session:");
    for (id, m) in sessions {
        println!(
            "  {id}: arrived={} good={} late={} dropped={} p50={} p99={}",
            m.arrived,
            m.good,
            m.late,
            m.dropped,
            m.latency_quantile(0.5)
                .map_or("-".into(), |l| l.to_string()),
            m.latency_quantile(0.99)
                .map_or("-".into(), |l| l.to_string()),
        );
    }

    let failures = result.metrics.failures();
    if !failures.is_empty() {
        println!("\nfailures:");
        for f in failures {
            match (f.detected_at, f.time_to_detect()) {
                (Some(at), Some(ttd)) => println!(
                    "  gpu {}: fault at {}, detected at {} (ttd {}), \
                     retried={} lost={}",
                    f.gpu, f.fault_at, at, ttd, f.requests_retried, f.requests_lost
                ),
                _ => println!(
                    "  gpu {}: fault at {}, cleared before detection",
                    f.gpu, f.fault_at
                ),
            }
        }
    }

    if let (Some(path), Some(trace)) = (&trace_path, &result.trace) {
        let doc = nexus_obs::raw::encode(trace.events(), trace.truncated, None);
        std::fs::write(path, doc.to_string()).expect("writable trace path");
        println!(
            "\n(wrote {} trace events to {}; render with `nexus-trace export`)",
            trace.events().len(),
            path.display(),
        );
        if result.trace_truncated > 0 {
            eprintln!(
                "warning: trace truncated — {} events discarded after the \
                 capture buffer filled",
                result.trace_truncated
            );
        }
    }
    if let Some(path) = &out_path {
        let summary = serde_json::json!({
            "queries_finished": result.queries_finished,
            "query_goodput": result.query_goodput,
            "query_bad_rate": result.query_bad_rate,
            "mean_gpus": result.mean_gpus,
            "gpu_utilization": result.gpu_utilization,
        });
        std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap())
            .expect("writable --out path");
        println!("(wrote {})", path.display());
    }
}
