//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4). This library provides the common pieces: a tiny CLI
//! (`--seed`, `--secs`, `--quick`, `--out`), an aligned-table printer, JSON
//! series output, and workload builders shared across experiments.

pub mod hetero;
pub mod par;
pub mod workload_file;

pub use par::par_map;

use std::fmt::Write as _;
use std::path::PathBuf;

use serde::Serialize;

use nexus::prelude::*;
use nexus_profile::Micros;

/// Common command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// RNG seed (`--seed N`).
    pub seed: u64,
    /// Measured seconds per simulation (`--secs N`).
    pub secs: u64,
    /// Quick mode: shorter runs, fewer search iterations (`--quick`).
    pub quick: bool,
    /// Optional JSON output path (`--out FILE`).
    pub out: Option<PathBuf>,
    /// Optional execution-trace output path (`--trace FILE`); binaries that
    /// support it run their headline simulation with tracing enabled and
    /// write the capture here (`nexus-trace export` renders it).
    pub trace: Option<PathBuf>,
}

/// `flag`'s value as an integer, or the usage error naming both.
fn integer(flag: &str, value: String) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs an integer, got {value:?}"))
}

/// What [`Args::parse`] prints after a usage error.
const USAGE: &str = "usage: [--seed N] [--secs N] [--quick] [--out FILE] [--trace FILE]";

impl Args {
    /// Parses `std::env::args`, with experiment-appropriate defaults. A
    /// malformed command line (`--help` included) prints `error: …` and the
    /// usage on stderr and exits 2.
    pub fn parse(default_secs: u64) -> Args {
        match Args::try_parse(std::env::args().skip(1), default_secs) {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// [`Args::parse`] over explicit arguments: `Err` with the message for
    /// a malformed command line.
    fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_secs: u64,
    ) -> Result<Args, String> {
        let mut args = Args {
            seed: 42,
            secs: default_secs,
            quick: false,
            out: None,
            trace: None,
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--seed" => args.seed = integer(&a, value()?)?,
                "--secs" => args.secs = integer(&a, value()?)?,
                "--quick" => args.quick = true,
                "--out" => args.out = Some(PathBuf::from(value()?)),
                "--trace" => args.trace = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.quick {
            args.secs = args.secs.min(10);
        }
        Ok(args)
    }

    /// The simulation horizon for this run.
    pub fn horizon(&self) -> Micros {
        Micros::from_secs(self.secs + self.warmup_secs())
    }

    /// Warm-up excluded from measurement.
    pub fn warmup(&self) -> Micros {
        Micros::from_secs(self.warmup_secs())
    }

    fn warmup_secs(&self) -> u64 {
        (self.secs / 4).clamp(2, 10)
    }

    /// Throughput-search settings scaled to quick mode.
    pub fn search(&self, hi: f64) -> ThroughputSearch {
        ThroughputSearch {
            target_bad_rate: 0.01,
            lo: 1.0,
            hi,
            iters: if self.quick { 7 } else { 10 },
        }
    }
}

/// Renders an aligned table — a header row, then rows of cells — as the
/// string [`print_table`] prints (so a section can also be written to a
/// committed `.txt` artifact).
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(out, "{line}");
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Prints an aligned table: a header row, then rows of cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, header, rows));
}

/// Writes a serializable result to `--out` (if given) as pretty JSON.
pub fn write_json<T: Serialize>(args: &Args, value: &T) {
    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(value).expect("serializable result");
        std::fs::write(path, json).expect("writable --out path");
        println!("(wrote {})", path.display());
    }
}

/// The trace capacity a headline run should use: sized for multi-minute
/// runs when `--trace` was given, zero (tracing fully off-path) otherwise.
pub fn trace_capacity(args: &Args) -> usize {
    if args.trace.is_some() {
        4_000_000
    } else {
        0
    }
}

/// Writes a run's captured trace to `--trace` (if given) in the versioned
/// `nexus-obs` file format, logging truncation loudly — an incomplete
/// capture silently read as complete would corrupt downstream analysis.
pub fn write_trace(args: &Args, result: &SimResult) {
    let Some(path) = &args.trace else { return };
    let Some(trace) = &result.trace else {
        eprintln!("--trace given but the run captured no trace");
        return;
    };
    let doc = nexus_obs::raw::encode(trace.events(), trace.truncated, None);
    std::fs::write(path, doc.to_string()).expect("writable --trace path");
    println!(
        "(wrote {} trace events to {})",
        trace.events().len(),
        path.display()
    );
    if result.trace_truncated > 0 {
        eprintln!(
            "warning: trace truncated — {} events discarded after the \
             capture buffer filled",
            result.trace_truncated
        );
    }
}

// The Fig. 13 deployment workload now lives in the facade crate (so the
// `nexus-trace capture` CLI can regenerate it); re-exported here for the
// figure binaries.
pub use nexus::workloads::fig13_classes;

/// Traffic classes for the game case study (§7.3.1) at a total frame rate.
pub fn game_classes(rate: f64) -> Vec<TrafficClass> {
    vec![TrafficClass::new(
        nexus_workload::apps::game(),
        ArrivalKind::Uniform,
        rate,
    )]
}

/// The game case study reduced to its ResNet-50 stage only. §7.3.1: "To be
/// maximally fair to them, we allow the two baselines to invoke just the
/// ResNet model" — both Clipper and TF Serving collapse on the tiny LeNet.
pub fn game_resnet_only_classes(rate: f64) -> Vec<TrafficClass> {
    let mut app = nexus_workload::apps::game();
    app.stages[0].children.clear();
    app.stages.truncate(1);
    vec![TrafficClass::new(app, ArrivalKind::Uniform, rate)]
}

/// Traffic classes for the traffic-monitoring case study (§7.3.2).
pub fn traffic_classes(rate: f64) -> Vec<TrafficClass> {
    vec![TrafficClass::new(
        nexus_workload::apps::traffic(),
        ArrivalKind::Uniform,
        rate,
    )]
}

/// The ablation ladder of Fig. 10/11. §7.3.1: "we additively turn off
/// prefix batching (PB), squishy scheduling (SS), early drop (ED), and
/// overlapped processing (OL)" — each rung disables one MORE feature than
/// the previous. `qa_instead_of_pb` selects the traffic figure's first rung
/// (-QA) over the game figure's (-PB).
pub fn ablation_ladder(qa_instead_of_pb: bool) -> Vec<(&'static str, SystemConfig)> {
    let mut step = SystemConfig::nexus();
    let mut ladder = vec![
        ("tf-serving", SystemConfig::tf_serving()),
        ("clipper", SystemConfig::clipper()),
        ("nexus", step.clone()),
    ];
    if qa_instead_of_pb {
        step.query_analysis = false;
        ladder.push(("-QA", step.clone()));
    } else {
        step.prefix_batching = false;
        ladder.push(("-PB", step.clone()));
    }
    step.scheduler = SchedulerPolicy::BatchOblivious;
    ladder.push(("-SS", step.clone()));
    step.drop_policy = DropPolicy::Lazy;
    ladder.push(("-ED", step.clone()));
    step.overlap = false;
    ladder.push(("-OL", step.clone()));
    ladder
}

/// The single-GPU studies' setup (Figs. 5, 9, 14, 15): one GTX 1080 Ti at
/// this run's seed and horizon, statically allocated — an operator-given
/// plan is never re-planned — in the given execution mode, dispatch policy
/// and ladder setting.
pub fn node_config(
    args: &Args,
    coordinated: bool,
    drop_policy: DropPolicy,
    ladder: bool,
) -> SimConfig {
    SimConfig {
        system: SystemConfig {
            coordinated,
            drop_policy,
            ladder,
            ..SystemConfig::nexus().with_static_allocation()
        },
        device: GPU_GTX1080TI,
        max_gpus: 1,
        seed: args.seed,
        horizon: args.horizon(),
        warmup: args.warmup(),
        trace_capacity: 0,
        faults: vec![],
    }
}

/// A Fig.5/Fig.9 synthetic profile: optimal throughput 500 req/s at a
/// 100 ms SLO, parameterized by α (§4.3: "Given the fixed throughput, the
/// fixed cost of β reduces as we increase α").
///
/// Construction: the SLO-max batch is `B = 25` with `ℓ(B) = 50 ms`
/// (worst-case `2ℓ(B) = SLO`), so `B/ℓ(B) = 500` req/s; `β = (2 − α)·25`.
pub fn alpha_profile(alpha_ms: f64) -> nexus_profile::BatchingProfile {
    assert!((0.0..2.0).contains(&alpha_ms), "α must be below 2 ms");
    let beta_ms = (2.0 - alpha_ms) * 25.0;
    nexus_profile::BatchingProfile::from_linear_ms(alpha_ms, beta_ms, 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_profile_has_designed_optimum() {
        for alpha in [1.0, 1.4, 1.8] {
            let p = alpha_profile(alpha);
            let b = p.max_batch_for_slo(Micros::from_millis(100));
            assert_eq!(b, 25, "α={alpha}");
            let t = p.throughput(b);
            assert!((t - 500.0).abs() < 1.0, "α={alpha}: t={t}");
        }
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        let parse = |argv: &[&str]| Args::try_parse(argv.iter().map(|a| a.to_string()), 20);
        let args = parse(&["--seed", "7", "--quick", "--out", "x.json"]).unwrap();
        assert_eq!((args.seed, args.secs, args.quick), (7, 10, true));
        assert_eq!(args.out, Some(PathBuf::from("x.json")));
        for (argv, want) in [
            (&["--bogus"][..], "unknown argument \"--bogus\""),
            (&["--help"][..], "unknown argument \"--help\""),
            (&["--seed"][..], "--seed needs a value"),
            (
                &["--secs", "ten"][..],
                "--secs needs an integer, got \"ten\"",
            ),
            (&["--seed", "-1"][..], "--seed needs an integer, got \"-1\""),
            (&["--out"][..], "--out needs a value"),
        ] {
            assert_eq!(parse(argv).unwrap_err(), want, "{argv:?}");
        }
    }

    #[test]
    fn ladder_has_seven_rungs() {
        assert_eq!(ablation_ladder(false).len(), 7);
        let labels: Vec<_> = ablation_ladder(true).iter().map(|x| x.0).collect();
        assert!(labels.contains(&"-QA"));
        assert!(!labels.contains(&"-PB"));
    }
}
