//! Regenerates Figure 15: prefix batching of ResNet-50 variants that differ
//! only in their final layer(s), on one GPU (§7.5).
//!
//! (a) Aggregate max 99%-good throughput with and without prefix batching
//!     as the number of variants grows 2..10.
//! (b) GPU memory use for 1/2/3 retrained FC layers vs unshared hosting.
//!
//! Usage: `cargo run --release -p bench --bin fig15_prefix [--quick]`

use bench::{node_config, print_table, write_json, Args};
use nexus::prelude::*;
use nexus_model::{unshared_memory, PrefixPlan};
use nexus_profile::catalog::RESNET50;
use nexus_profile::Micros;
use nexus_runtime::NodeSession;
use nexus_workload::ArrivalKind;

const SLO: Micros = Micros::from_millis(100);

/// The experiment isolates GPU batching, so CPU pre/post-processing is
/// zeroed on both arms (it would otherwise cap both at the CPU ceiling).
fn gpu_only(p: nexus_profile::BatchingProfile) -> nexus_profile::BatchingProfile {
    p.with_preprocess(Micros::ZERO)
        .with_postprocess(Micros::ZERO)
}

/// `count` sessions of `profile` sharing `rate` on the coordinated GPU.
fn sessions(profile: &nexus_profile::BatchingProfile, count: u32, rate: f64) -> Vec<NodeSession> {
    (0..count)
        .map(|_| NodeSession {
            profile: profile.clone(),
            slo: SLO,
            rate: rate / f64::from(count),
            arrival: ArrivalKind::Uniform,
        })
        .collect()
}

/// Max 99%-good throughput of `count` sessions of `profile`.
fn throughput(profile: &nexus_profile::BatchingProfile, count: u32, args: &Args) -> f64 {
    let cfg = node_config(args, true, DropPolicy::Early, false);
    let probe = |rate: f64| {
        ClusterSim::try_new_node(cfg.clone(), &sessions(profile, count, rate))
            .expect("a static single-GPU plan")
            .run()
            .query_bad_rate
    };
    nexus::max_rate_within(&args.search(2_000.0), probe)
}

/// With prefix batching: one merged session serving all variants.
fn throughput_with_pb(variants: u32, args: &Args) -> f64 {
    let schema = nexus_model::zoo::resnet50();
    let base = RESNET50.profile_1080ti();
    let plan = PrefixPlan::new(&schema, &base, schema.num_layers() - 1);
    let profile = gpu_only(plan.merged_profile(variants, base.max_batch())).effective(true, 4);
    throughput(&profile, 1, args)
}

/// Without prefix batching: each variant is a fully-resident model and an
/// independent session; memory limits how many even load. Returns the
/// throughput and whether a variant was left unplaced (out of memory).
fn throughput_without_pb(variants: u32, args: &Args) -> (f64, bool) {
    let base = gpu_only(RESNET50.profile_1080ti()).effective(true, 4);
    let sim = ClusterSim::try_new_node(
        node_config(args, true, DropPolicy::Early, false),
        &sessions(&base, variants, 1.0),
    )
    .expect("a static single-GPU plan");
    let oom = !sim.control_plan().pools[0].allocation.infeasible.is_empty();
    (throughput(&base, variants, args), oom)
}

fn main() {
    let args = Args::parse(15);

    // (a) Throughput scaling.
    let mut series = Vec::new();
    let rows: Vec<Vec<String>> = [2u32, 4, 6, 8, 10]
        .into_iter()
        .map(|k| {
            let with = throughput_with_pb(k, &args);
            let (without, oom) = throughput_without_pb(k, &args);
            series.push((k, with, without));
            vec![
                k.to_string(),
                if oom {
                    "OOM".into()
                } else {
                    format!("{without:.0}")
                },
                format!("{with:.0}"),
                if oom {
                    "-".into()
                } else {
                    format!("{:+.0}%", (with / without - 1.0) * 100.0)
                },
            ]
        })
        .collect();
    print_table(
        "Fig. 15(a): throughput vs #ResNet-50 variants (1 GPU, 100 ms SLO)",
        &["#models", "w/o prefix batch", "w/ prefix batch", "gain"],
        &rows,
    );

    // (b) Memory use for 1–3 retrained FC layers vs unshared.
    let schema = nexus_model::zoo::resnet50();
    let base = RESNET50.profile_1080ti();
    let mib = |bytes: u64| format!("{:.0}", bytes as f64 / (1 << 20) as f64);
    let mut mem_series = Vec::new();
    let rows: Vec<Vec<String>> = [2u32, 4, 6, 8, 10]
        .into_iter()
        .map(|k| {
            let mut row = vec![k.to_string()];
            for fc in 1..=3usize {
                let plan = PrefixPlan::new(&schema, &base, schema.num_layers() - fc);
                let mem = plan.memory_for_variants(k as usize);
                mem_series.push((k, fc, mem));
                row.push(mib(mem));
            }
            let unshared = unshared_memory(&schema, k as usize);
            mem_series.push((k, 0, unshared));
            row.push(mib(unshared));
            row
        })
        .collect();
    print_table(
        "Fig. 15(b): GPU memory (MiB) vs #variants and retrained suffix depth",
        &["#models", "1 FC", "2 FC", "3 FC", "w/o prefix batch"],
        &rows,
    );
    println!(
        "\nPaper's shape: prefix batching maintains up to ~110% higher \
         throughput as variants multiply, and memory stays nearly flat for \
         1-FC suffixes while unshared hosting exhausts an 11 GiB GPU within \
         ~9 variants."
    );
    write_json(&args, &(series, mem_series));
}
