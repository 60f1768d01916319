//! Fault-recovery experiment: kill one GPU of a 16-GPU deployment under
//! moderate load and measure the control plane's reaction — time to
//! detect (heartbeats, §5's epoch loop run out-of-band), the bad-rate
//! spike while stranded requests are retried, and the time for goodput to
//! return to its pre-fault level after the emergency re-pack onto the 15
//! survivors.
//!
//! A second scenario flaps the same GPU (crash/rejoin twice on a short
//! period) and compares rejoin re-pack behaviour with and without the
//! rejoin cooldown: the cooldown must cut the number of deployment
//! swaps (no epoch thrash) while goodput after the second flap stays
//! within 90% of the pre-fault baseline.
//!
//! Usage: `cargo run --release -p bench --bin fault_recovery
//!         [--seed N] [--secs N] [--out FILE]`
//!
//! Writes a recovery timeline to `bench_results/fault_recovery.json`
//! (override with `--out`) and the flap comparison to `fault_flap.json`
//! beside it.

use std::fmt::Write as _;

use bench::{print_table, Args};
use nexus::prelude::*;
use nexus_profile::{Micros, GPU_GTX1080TI};
use nexus_runtime::TraceEvent;
use nexus_workload::apps;

/// The scenario's fixed timing (seconds): crash after the warm-up window,
/// rejoin late enough to observe the recovered steady state.
const WARMUP_S: u64 = 10;
const FAULT_S: u64 = 15;
const REJOIN_S: u64 = 30;
const EPOCH_S: u64 = 10;

fn main() {
    let args = Args::parse(40);
    let horizon = Micros::from_secs(args.secs.max(REJOIN_S + 5));
    let warmup = Micros::from_secs(WARMUP_S);
    let fault_at = Micros::from_secs(FAULT_S);

    let classes = vec![TrafficClass::new(
        apps::traffic(),
        ArrivalKind::Uniform,
        300.0,
    )];
    let faults = vec![
        FaultSpec {
            at: fault_at,
            slot: 0,
            kind: FaultKind::Crash,
        },
        FaultSpec {
            at: Micros::from_secs(REJOIN_S),
            slot: 0,
            kind: FaultKind::Rejoin,
        },
    ];

    let result = ClusterSim::try_new(
        SimConfig {
            system: SystemConfig::nexus().with_epoch(Micros::from_secs(EPOCH_S)),
            device: GPU_GTX1080TI,
            max_gpus: 16,
            seed: args.seed,
            horizon,
            warmup,
            trace_capacity: 0,
            faults,
        },
        classes,
    )
    .expect("known models")
    .run();

    let m = &result.metrics;
    // Pre-fault steady state: the window between warm-up and the crash.
    let baseline = m.goodput(warmup, fault_at);
    let recovery = m.goodput_recovery_time(fault_at, baseline, 0.95);
    let detect_window = Micros::from_secs(2);
    let spike = m.bad_rate_spike_area(fault_at, fault_at + detect_window);
    let failure = m.failures().first().cloned();

    println!("baseline goodput  : {baseline:.1} q/s over the pre-fault window");
    if let Some(f) = &failure {
        match f.time_to_detect() {
            Some(ttd) => println!(
                "failure detected  : gpu {} after {ttd} (retried {}, lost {})",
                f.gpu, f.requests_retried, f.requests_lost
            ),
            None => println!("failure detected  : never (run ended first)"),
        }
    }
    match recovery {
        Some(r) => println!("goodput recovered : >=95% of baseline after {r}"),
        None => println!("goodput recovered : never within the run"),
    }
    println!("bad-rate spike    : {spike:.3} bad-seconds over the detection window");

    // Per-second recovery timeline around the fault.
    let tl = m.timeline();
    let rows: Vec<Vec<String>> = tl
        .iter()
        .enumerate()
        .skip(FAULT_S.saturating_sub(3) as usize)
        .take(20)
        .map(|(sec, b)| {
            let total = b.good + b.bad;
            let bad_pct = if total == 0 {
                0.0
            } else {
                b.bad as f64 / total as f64 * 100.0
            };
            vec![
                format!("{sec}"),
                format!("{}", b.good),
                format!("{bad_pct:.1}"),
                format!("{}", b.gpus_allocated),
            ]
        })
        .collect();
    print_table(
        "recovery timeline (1 s buckets)",
        &["t(s)", "good", "bad%", "gpus"],
        &rows,
    );

    // Acceptance thresholds from the experiment definition: detection
    // within the heartbeat window, goodput back within two epochs.
    let ttd_ok = failure
        .as_ref()
        .and_then(|f| f.time_to_detect())
        .is_some_and(|t| t <= Micros::from_millis(500));
    let recovery_ok = recovery.is_some_and(|r| r <= Micros::from_secs(2 * EPOCH_S));
    println!();
    println!(
        "detection within 500 ms          : {}",
        if ttd_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "goodput >=95% within two epochs  : {}",
        if recovery_ok { "PASS" } else { "FAIL" }
    );

    // Serialize by hand: the schema is small and fixed, and this keeps the
    // report byte-stable across serde versions.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"gpus\": 16,");
    let _ = writeln!(json, "  \"rate\": 300.0,");
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"fault_at_secs\": {FAULT_S},");
    let _ = writeln!(json, "  \"rejoin_at_secs\": {REJOIN_S},");
    let _ = writeln!(json, "  \"baseline_goodput\": {baseline:.2},");
    let _ = writeln!(
        json,
        "  \"time_to_detect_ms\": {},",
        failure
            .as_ref()
            .and_then(|f| f.time_to_detect())
            .map_or("null".into(), |t| format!("{:.1}", t.as_secs_f64() * 1e3))
    );
    if let Some(f) = &failure {
        let _ = writeln!(json, "  \"requests_retried\": {},", f.requests_retried);
        let _ = writeln!(json, "  \"requests_lost\": {},", f.requests_lost);
    }
    let _ = writeln!(
        json,
        "  \"recovery_secs\": {},",
        recovery.map_or("null".into(), |r| format!("{:.2}", r.as_secs_f64()))
    );
    let _ = writeln!(json, "  \"bad_rate_spike_area\": {spike:.4},");
    let _ = writeln!(json, "  \"query_bad_rate\": {:.5},", result.query_bad_rate);
    let _ = writeln!(json, "  \"pass_detection\": {ttd_ok},");
    let _ = writeln!(json, "  \"pass_recovery\": {recovery_ok},");
    json.push_str("  \"timeline\": [\n");
    for (i, b) in tl.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"t\": {i}, \"good\": {}, \"bad\": {}, \"gpus\": {}}}",
            b.good, b.bad, b.gpus_allocated
        );
        json.push_str(if i + 1 < tl.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = args
        .out
        .clone()
        .unwrap_or_else(|| "bench_results/fault_recovery.json".into());
    std::fs::write(&path, json).expect("writable output path");
    println!("(wrote {})", path.display());

    run_flap(args.seed, &path.with_file_name("fault_flap.json"));
}

/// Flap timing (seconds): two crash/rejoin cycles after warm-up.
const FLAP_EVENTS_S: [(u64, bool); 4] = [(15, true), (17, false), (19, true), (21, false)];
const FLAP_HORIZON_S: u64 = 40;
/// Minimum spacing between rejoin re-packs in the rate-limited run.
const FLAP_COOLDOWN_S: u64 = 8;

fn run_flap_once(seed: u64, cooldown: Micros) -> (SimResult, u64) {
    let faults = FLAP_EVENTS_S
        .iter()
        .map(|&(at, crash)| FaultSpec {
            at: Micros::from_secs(at),
            slot: 0,
            kind: if crash {
                FaultKind::Crash
            } else {
                FaultKind::Rejoin
            },
        })
        .collect();
    let result = ClusterSim::try_new(
        SimConfig {
            system: SystemConfig::nexus()
                .with_epoch(Micros::from_secs(EPOCH_S))
                .with_rejoin_cooldown(cooldown),
            device: GPU_GTX1080TI,
            max_gpus: 16,
            seed,
            horizon: Micros::from_secs(FLAP_HORIZON_S),
            warmup: Micros::from_secs(WARMUP_S),
            trace_capacity: 1 << 21,
            faults,
        },
        vec![TrafficClass::new(
            apps::traffic(),
            ArrivalKind::Uniform,
            300.0,
        )],
    )
    .expect("known models")
    .run();
    let swaps = result
        .trace
        .as_ref()
        .expect("trace enabled")
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Reallocation { .. }))
        .count() as u64;
    (result, swaps)
}

/// The flapping-backend scenario: GPU 0 crashes and rejoins twice in
/// quick succession. Without rate limiting every rejoin triggers an
/// immediate emergency re-pack — paying model loads and queue
/// migrations for capacity that vanishes two seconds later. The rejoin
/// cooldown defers those re-packs; deaths still re-plan immediately.
fn run_flap(seed: u64, out: &std::path::Path) {
    println!();
    println!("flapping-backend scenario: crash/rejoin x2 on gpu 0, 300 q/s");

    let (free, swaps_free) = run_flap_once(seed, Micros::ZERO);
    let (limited, swaps_limited) = run_flap_once(seed, Micros::from_secs(FLAP_COOLDOWN_S));

    // Steady-state goodput before the first flap vs after the second.
    let warmup = Micros::from_secs(WARMUP_S);
    let first_flap = Micros::from_secs(FLAP_EVENTS_S[0].0);
    let settle = Micros::from_secs(FLAP_EVENTS_S[3].0 + 4);
    let horizon = Micros::from_secs(FLAP_HORIZON_S);
    let baseline = limited.metrics.goodput(warmup, first_flap);
    let after = limited.metrics.goodput(settle, horizon);

    println!("deployment swaps  : {swaps_free} unthrottled, {swaps_limited} with {FLAP_COOLDOWN_S}s rejoin cooldown");
    println!("goodput           : {baseline:.1} q/s pre-flap, {after:.1} q/s after second flap");

    let thrash_ok = swaps_limited < swaps_free;
    let goodput_ok = after >= 0.9 * baseline;
    println!(
        "re-packs rate-limited            : {}",
        if thrash_ok { "PASS" } else { "FAIL" }
    );
    println!(
        "goodput >=90% after second flap  : {}",
        if goodput_ok { "PASS" } else { "FAIL" }
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"rate\": 300.0,");
    let _ = writeln!(json, "  \"cooldown_secs\": {FLAP_COOLDOWN_S},");
    let _ = writeln!(json, "  \"swaps_unthrottled\": {swaps_free},");
    let _ = writeln!(json, "  \"swaps_limited\": {swaps_limited},");
    let _ = writeln!(json, "  \"baseline_goodput\": {baseline:.2},");
    let _ = writeln!(json, "  \"goodput_after_second_flap\": {after:.2},");
    let _ = writeln!(
        json,
        "  \"bad_rate_unthrottled\": {:.5},",
        free.query_bad_rate
    );
    let _ = writeln!(
        json,
        "  \"bad_rate_limited\": {:.5},",
        limited.query_bad_rate
    );
    let _ = writeln!(json, "  \"pass_thrash\": {thrash_ok},");
    let _ = writeln!(json, "  \"pass_goodput\": {goodput_ok}");
    json.push_str("}\n");
    std::fs::write(out, json).expect("writable output path");
    println!("(wrote {})", out.display());

    assert!(
        thrash_ok,
        "rejoin cooldown failed to reduce deployment swaps"
    );
    assert!(
        goodput_ok,
        "goodput after the second flap fell below 90% of baseline"
    );
}
