//! `perf`: the repo's benchmark.
//!
//! One harness, four workloads, named end-to-end and per-layer metrics
//! for the simulator, the planner and the front door. `BENCHMARK.json` at
//! the repo root names this binary as the benchmark command and lists the
//! same workloads and metrics as [`spec`]; `README.md` beside this crate
//! explains each of them.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! perf [--seed N] [--seconds S] [--runs R] [--traced] [--out FILE]
//!                                                      every workload, a table
//! perf --list                                          names, units, bounds
//! perf --compare A.json B.json                         two result files
//! ```

mod door;
mod gen;
mod replan;
mod report;
mod run;
mod sims;
mod span;
mod spec;
mod stats;
mod sut;

use std::process::ExitCode;
use std::time::Instant;

use run::{Ctx, Outcome};
use span::Spans;
use sut::Json;

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Command-line options.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<String>,
    list: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: 1,
        out: None,
        list: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", args.seconds));
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => args.traced = true,
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs needs at least 1".into());
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--list" => args.list = true,
            "--compare" => {
                args.compare = Some((value("two files")?, value("two files")?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where a traced run writes its spans: `perf/` under the cargo target
/// directory (relative paths resolve against the working directory, which
/// the benchmark command runs from).
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("perf")
        .join(format!("trace-{workload}.json"))
}

/// Runs one workload in this process and prints its result line.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let start = Instant::now();
    let Some(workload) = spec::workload(name) else {
        eprintln!("perf: no workload {name}; --list names them");
        return ExitCode::from(2);
    };
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        start,
        spans: Spans::new(start, traced),
    };
    let mut outcome = match sims::workload(name) {
        Some(sim) => sims::run(&mut ctx, &sim),
        None if name == "replan_tenants" => replan::run(&mut ctx),
        None => door::run(&mut ctx),
    };
    if traced {
        // Set-up is timed either way, but only the untraced table lists it.
        outcome.metrics.remove("setup_s");
        let path = trace_path(workload.name);
        let mut text = String::new();
        ctx.spans.to_json(workload.name, seed).write(&mut text);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => eprintln!("perf: spans written to {}", path.display()),
            Err(e) => outcome
                .violations
                .push(format!("could not write {}: {e}", path.display())),
        }
    } else {
        outcome.set("peak_rss_mb", run::peak_rss_mb());
    }
    finish(workload.name, traced, outcome)
}

/// Prints what a run measured — a readable table on stderr, the sample
/// counts and the one-line result on stdout — and picks the exit code.
fn finish(workload: &str, traced: bool, outcome: Outcome) -> ExitCode {
    let table = spec::metrics(traced);
    // Every end-to-end metric must have been measured; a per-layer metric
    // a workload does not exercise reads 0.
    let mut violations = outcome.violations;
    let mut fields = Vec::new();
    for m in table {
        let value = match outcome.metrics.get(m.name) {
            Some(&v) if v.is_finite() => v,
            Some(v) => {
                violations.push(format!("{} is {v}", m.name));
                0.0
            }
            None if traced => 0.0,
            None => {
                violations.push(format!("{} was not measured", m.name));
                0.0
            }
        };
        eprintln!("{workload:>15}  {:<46} {value:>16.4} {}", m.name, m.unit);
        fields.push((
            m.name.to_string(),
            Json::Object(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]),
        ));
    }
    let listed = |name: &str| table.iter().any(|m| m.name == name);
    for name in outcome.metrics.keys().filter(|n| !listed(n)) {
        violations.push(format!("{name} is not a metric of this run"));
    }
    for v in &violations {
        eprintln!("perf: {workload}: FAILED CHECK: {v}");
    }
    let correct = violations.is_empty() && outcome.failed == 0;

    let mut line = String::new();
    Json::Object(
        outcome
            .samples
            .iter()
            .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
            .collect(),
    )
    .write(&mut line);
    println!("samples {line}");
    line.clear();
    Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(outcome.attempted.max(1))),
        ("failed".into(), Json::UInt(outcome.failed)),
        ("metrics".into(), Json::Object(fields)),
    ])
    .write(&mut line);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        report::list();
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return report::compare(a, b);
    }
    match &args.workload {
        Some(name) => run_workload(name, args.seed, args.seconds, args.traced),
        None => report::run_all(
            args.seed,
            args.seconds,
            args.runs,
            args.traced,
            args.out.as_deref(),
        ),
    }
}
