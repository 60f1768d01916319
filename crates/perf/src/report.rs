//! Everything around single runs: running every workload (one child
//! process each, so peak memory is per workload), the result file with
//! the machine's facts, `--list` and `--compare`.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::spec::{self, Better, Metric};
use crate::stats::{median, spread};
use crate::sut::{parse_json, Json};

/// Prints workloads and metrics with units, directions and bounds.
pub fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    for (title, table) in [
        ("end-to-end metrics", &spec::END_TO_END[..]),
        ("per-layer metrics", &spec::PER_LAYER[..]),
    ] {
        println!("{title}:");
        for m in table {
            let bound = m.bound.map_or("-".into(), |b| format!("{:.1}%", b * 100.0));
            println!(
                "  {:<46} {:<6} {:<7} bound {:<6} {}",
                m.name,
                m.unit,
                m.better.word(),
                bound,
                m.note
            );
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Facts about this box and build, so numbers are never compared across
/// machines unknowingly.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Object(vec![
        ("nproc".into(), Json::UInt(nproc)),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["--version"])),
        ),
        (
            "git_rev".into(),
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// One child run's parsed output.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples: Json,
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|l| parse_json(l).ok())
        .ok_or(format!("{workload} printed no result line"))?;
    let samples = lines
        .next()
        .and_then(|l| l.strip_prefix("samples "))
        .and_then(|l| parse_json(l).ok())
        .unwrap_or(Json::Null);
    let Some(Json::Object(fields)) = result.get("metrics") else {
        return Err(format!("{workload}'s result has no metrics"));
    };
    let count = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
    Ok(ChildRun {
        correct: result.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        samples,
    })
}

fn floats(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Float(v)).collect())
}

/// Values per metric over runs, as `{name: {"unit": u, "values": [...]}}`.
fn metric_block(table: &[Metric], runs: &[ChildRun]) -> Json {
    Json::Object(
        table
            .iter()
            .map(|m| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                    .collect();
                (
                    m.name.to_string(),
                    Json::Object(vec![
                        ("unit".into(), Json::Str(m.unit.into())),
                        ("values".into(), floats(&values)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prints a block's metrics; per-layer metrics reading 0 (layers the
/// workload does not exercise) stay in the result file only.
fn print_block(workload: &str, table: &[Metric], block: &Json) {
    for m in table {
        let values = values_of(block, m.name);
        if values.is_empty() || (m.bound.is_none() && values.iter().all(|&v| v == 0.0)) {
            continue;
        }
        let spread = spread(&values).map_or("-".into(), |s| format!("{:.2}%", s * 100.0));
        println!(
            "{workload:<15} {:<46} {:>16.4} {:<6} spread {spread:<8} n={}",
            m.name,
            median(&values),
            m.unit,
            values.len()
        );
    }
}

/// Runs every workload `runs` times (seeds `seed`, `seed+1`, …) with
/// spans off, then once traced if asked; prints every metric by name and
/// writes the result file. Non-zero exit if any run failed its checks.
pub fn run_all(seed: u64, seconds: f64, runs: usize, traced: bool, out: Option<&str>) -> ExitCode {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in &spec::WORKLOADS {
        let mut run = |seed: u64, traced: bool| match child(w.name, seed, seconds, traced) {
            Ok(r) => {
                ok &= r.correct;
                Some(r)
            }
            Err(e) => {
                eprintln!("perf: {e}");
                ok = false;
                None
            }
        };
        let results: Vec<ChildRun> = (0..runs as u64)
            .filter_map(|r| run(seed + r, false))
            .collect();
        let traced_run = traced.then(|| run(seed, true)).flatten();

        let e2e = metric_block(&spec::END_TO_END, &results);
        print_block(w.name, &spec::END_TO_END, &e2e);
        let counts = |f: fn(&ChildRun) -> u64| {
            Json::Array(results.iter().map(|r| Json::UInt(f(r))).collect())
        };
        let mut fields = vec![
            ("name".to_string(), Json::Str(w.name.into())),
            ("attempted".into(), counts(|r| r.attempted)),
            ("failed".into(), counts(|r| r.failed)),
            (
                "samples".into(),
                results.first().map_or(Json::Null, |r| r.samples.clone()),
            ),
            ("end_to_end".into(), e2e),
        ];
        if let Some(t) = traced_run {
            let layers = metric_block(&spec::PER_LAYER, std::slice::from_ref(&t));
            print_block(w.name, &spec::PER_LAYER, &layers);
            fields.push(("traced_samples".into(), t.samples));
            fields.push(("per_layer".into(), layers));
        }
        workloads.push(Json::Object(fields));
    }
    let doc = Json::Object(vec![
        ("machine".into(), machine()),
        ("seed".into(), Json::UInt(seed)),
        ("seconds".into(), Json::Float(seconds)),
        ("runs".into(), Json::UInt(runs as u64)),
        ("workloads".into(), Json::Array(workloads)),
    ]);
    if let Some(path) = out {
        let mut text = String::new();
        doc.write(&mut text);
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("perf: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: a run failed its checks");
        ExitCode::FAILURE
    }
}

fn values_of(block: &Json, metric: &str) -> Vec<f64> {
    block
        .get(metric)
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's run-to-run spread is wider than the bound: the runs
    /// cannot tell.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

/// Judges one metric from both sides' values.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics carry a bound");
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worse_by(m.better, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path} is not a result file: {e:?}"))
}

fn workloads_of(doc: &Json) -> BTreeMap<String, &Json> {
    doc.get("workloads")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w)))
        .collect()
}

/// Compares two result files metric by metric; non-zero exit if any
/// end-to-end metric regressed.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let text = |j: Option<&Json>| {
        let mut s = String::new();
        j.unwrap_or(&Json::Null).write(&mut s);
        s
    };
    println!("A = {a_path}: {}", text(a.get("machine")));
    println!("B = {b_path}: {}", text(b.get("machine")));
    if a.get("machine") != b.get("machine") {
        println!("warning: A and B differ in machine or build; host-time metrics do not compare");
    }
    let (wa, wb) = (workloads_of(&a), workloads_of(&b));
    let mut regressed = false;
    for w in &spec::WORKLOADS {
        let (Some(ja), Some(jb)) = (wa.get(w.name), wb.get(w.name)) else {
            println!("{:<15} missing from one side", w.name);
            continue;
        };
        for (key, table) in [
            ("end_to_end", &spec::END_TO_END[..]),
            ("per_layer", &spec::PER_LAYER[..]),
        ] {
            let (Some(ba), Some(bb)) = (ja.get(key), jb.get(key)) else {
                continue;
            };
            for m in table {
                let (va, vb) = (values_of(ba, m.name), values_of(bb, m.name));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let (ma, mb) = (median(&va), median(&vb));
                let diff = if ma == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:+.2}%", (mb - ma) / ma.abs() * 100.0)
                };
                let verdict = match m.bound {
                    None => String::new(),
                    Some(bound) => {
                        let v = judge(m, &va, &vb);
                        regressed |= v == Verdict::Regressed;
                        format!(
                            "bound {:.1}% {}",
                            bound * 100.0,
                            format!("{v:?}").to_lowercase()
                        )
                    }
                };
                println!(
                    "{:<15} {:<46} A {ma:>14.4} B {mb:>14.4} {:<6} {diff:>9} ({} better) {verdict}",
                    w.name,
                    m.name,
                    m.unit,
                    m.better.word()
                );
            }
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_metric_is_judged_by_its_direction_bound_and_spread() {
        let rate = &spec::END_TO_END[0];
        assert_eq!((rate.name, rate.better), ("work_per_s", Better::Higher));
        let b = rate.bound.expect("bounded");
        assert_eq!(
            judge(rate, &[100.0], &[100.0 * (1.0 - 0.5 * b)]),
            Verdict::Ok
        );
        assert_eq!(
            judge(rate, &[100.0], &[100.0 * (1.0 - 1.5 * b)]),
            Verdict::Regressed
        );
        assert_eq!(judge(rate, &[100.0], &[150.0]), Verdict::Ok);
        // Quartiles 2.5 bounds either side of the median: the runs cannot tell.
        let noisy: Vec<f64> = [-3.0, -2.0, 0.0, 2.0, 3.0]
            .iter()
            .map(|k| 100.0 * (1.0 + k * b))
            .collect();
        assert_eq!(
            judge(rate, &noisy, &[100.0 * (1.0 - 1.5 * b)]),
            Verdict::Unresolved
        );

        let latency = &spec::END_TO_END[1];
        assert_eq!(latency.better, Better::Lower);
        let b = latency.bound.expect("bounded");
        assert_eq!(
            judge(latency, &[10.0], &[10.0 * (1.0 + 1.5 * b)]),
            Verdict::Regressed
        );
        assert_eq!(judge(latency, &[10.0], &[8.0]), Verdict::Ok);
    }
}
