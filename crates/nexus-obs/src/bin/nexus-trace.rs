//! Trace tooling for the Nexus reproduction.
//!
//! ```text
//! nexus-trace capture   --out FILE [--seed N --secs N --gpus N --scale F
//!                       --capacity N | --golden]
//! nexus-trace export    --input FILE --out FILE
//! nexus-trace summarize --input FILE
//! nexus-trace diff      FILE FILE
//! ```
//!
//! `capture` runs the Fig. 13 deployment workload (scaled down) with
//! tracing enabled and writes the versioned trace file; `export` converts a
//! trace file to Chrome-trace JSON loadable in Perfetto; `summarize` prints
//! phase statistics; `diff` compares two trace files structurally and exits
//! non-zero on divergence (the CI schema-golden check).

use std::path::PathBuf;
use std::process::exit;

use nexus_obs::json::Json;
use nexus_obs::{chrome_trace, phase_stats, raw, reconstruct, summary, validate_chrome_trace};
use nexus_profile::{Micros, GPU_K80};
use nexus_runtime::{SystemConfig, TraceEvent};

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

fn usage() -> ! {
    fail(
        "usage: nexus-trace capture --out FILE [--seed N --secs N --gpus N \
         --scale F --capacity N | --golden]\n\
         \x20      nexus-trace export --input FILE --out FILE\n\
         \x20      nexus-trace summarize --input FILE\n\
         \x20      nexus-trace diff FILE FILE",
    )
}

fn read_trace(path: &PathBuf) -> raw::TraceFile {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("cannot read {path:?}: {e}")));
    let doc =
        nexus_obs::parse_json(&text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    raw::decode(&doc).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())))
}

struct CaptureOpts {
    out: PathBuf,
    seed: u64,
    secs: u64,
    gpus: u32,
    scale: f64,
    capacity: usize,
}

/// The fixed mini-run behind the committed golden trace. Changing any of
/// these values (or the trace schema) requires regenerating the golden —
/// see DESIGN.md §12.
const GOLDEN: (u64, u64, u32, f64, usize) = (42, 3, 4, 0.05, 1 << 20);

fn capture(mut args: std::env::Args) {
    let mut opts = CaptureOpts {
        out: PathBuf::new(),
        seed: 42,
        secs: 5,
        gpus: 8,
        scale: 0.1,
        capacity: 2_000_000,
    };
    while let Some(a) = args.next() {
        let mut next = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{what} needs a value")))
        };
        match a.as_str() {
            "--out" => opts.out = PathBuf::from(next("--out")),
            "--seed" => opts.seed = next("--seed").parse().unwrap_or_else(|e| fail(e)),
            "--secs" => opts.secs = next("--secs").parse().unwrap_or_else(|e| fail(e)),
            "--gpus" => opts.gpus = next("--gpus").parse().unwrap_or_else(|e| fail(e)),
            "--scale" => opts.scale = next("--scale").parse().unwrap_or_else(|e| fail(e)),
            "--capacity" => opts.capacity = next("--capacity").parse().unwrap_or_else(|e| fail(e)),
            "--golden" => {
                (opts.seed, opts.secs, opts.gpus, opts.scale, opts.capacity) = GOLDEN;
            }
            _ => usage(),
        }
    }
    if opts.out.as_os_str().is_empty() {
        fail("capture requires --out FILE");
    }

    let warmup = Micros::from_secs(2);
    let horizon = Micros::from_secs(opts.secs) + warmup;
    let classes = nexus::workloads::fig13_classes(horizon, opts.scale);
    let result = nexus::run_once(
        SystemConfig::nexus().with_epoch(Micros::from_secs(2)),
        GPU_K80,
        opts.gpus,
        classes,
        opts.seed,
        warmup,
        horizon,
        opts.capacity,
    );
    let trace = result
        .trace
        .as_ref()
        .unwrap_or_else(|| fail("capture produced no trace"));
    let meta = Json::Object(vec![
        ("workload".to_string(), Json::Str("fig13".to_string())),
        ("seed".to_string(), Json::UInt(opts.seed)),
        ("secs".to_string(), Json::UInt(opts.secs)),
        ("gpus".to_string(), Json::UInt(u64::from(opts.gpus))),
        ("scale".to_string(), Json::Float(opts.scale)),
    ]);
    let doc = raw::encode(trace.events(), trace.truncated, Some(meta));
    std::fs::write(&opts.out, doc.to_string())
        .unwrap_or_else(|e| fail(format!("cannot write {:?}: {e}", opts.out)));
    print!("{}", summary::render(&result));
    if result.trace_truncated > 0 {
        eprintln!(
            "warning: {} trace events truncated (raise --capacity)",
            result.trace_truncated
        );
    }
    println!(
        "(wrote {} events to {})",
        trace.events().len(),
        opts.out.display()
    );
}

fn export(input: PathBuf, out: PathBuf) {
    let file = read_trace(&input);
    if file.truncated > 0 {
        eprintln!(
            "warning: source capture truncated {} events; the export is incomplete",
            file.truncated
        );
    }
    let doc = chrome_trace(&file.events);
    validate_chrome_trace(&doc).unwrap_or_else(|e| fail(format!("internal: invalid export: {e}")));
    std::fs::write(&out, doc.to_string())
        .unwrap_or_else(|e| fail(format!("cannot write {out:?}: {e}")));
    println!(
        "(wrote Chrome-trace JSON for {} events to {}; open in ui.perfetto.dev)",
        file.events.len(),
        out.display()
    );
}

fn summarize(input: PathBuf) {
    let file = read_trace(&input);
    let ph = reconstruct(&file.events);
    let queue = phase_stats(
        ph.spans
            .iter()
            .map(|s| s.queue_wait().as_micros())
            .collect(),
    );
    let exec = phase_stats(ph.spans.iter().map(|s| s.exec().as_micros()).collect());
    let total = phase_stats(ph.spans.iter().map(|s| s.total().as_micros()).collect());
    let good = ph.spans.iter().filter(|s| s.good).count();
    println!("events      : {}", file.events.len());
    println!(
        "completions : {} ({:.2}% within SLO)",
        ph.spans.len(),
        if ph.spans.is_empty() {
            100.0
        } else {
            good as f64 / ph.spans.len() as f64 * 100.0
        }
    );
    println!("drops       : {}", ph.drops.len());
    let ms = |us: u64| us as f64 / 1_000.0;
    println!(
        "queue wait  : p50 {:.2} ms  p99 {:.2} ms  mean {:.2} ms",
        ms(queue.p50),
        ms(queue.p99),
        queue.mean / 1_000.0
    );
    println!(
        "execution   : p50 {:.2} ms  p99 {:.2} ms  mean {:.2} ms",
        ms(exec.p50),
        ms(exec.p99),
        exec.mean / 1_000.0
    );
    println!(
        "total       : p50 {:.2} ms  p99 {:.2} ms  mean {:.2} ms",
        ms(total.p50),
        ms(total.p99),
        total.mean / 1_000.0
    );
    if file.truncated > 0 {
        println!(
            "WARNING     : capture truncated ({} events discarded)",
            file.truncated
        );
    }
}

fn describe(e: &TraceEvent) -> String {
    format!("{e:?}")
}

fn diff(a_path: PathBuf, b_path: PathBuf) {
    let a = read_trace(&a_path);
    let b = read_trace(&b_path);
    let mut diverged = false;
    if a.truncated != b.truncated {
        println!("truncated: {} vs {}", a.truncated, b.truncated);
        diverged = true;
    }
    if a.events.len() != b.events.len() {
        println!("event count: {} vs {}", a.events.len(), b.events.len());
        diverged = true;
    }
    for (i, (ea, eb)) in a.events.iter().zip(&b.events).enumerate() {
        if ea != eb {
            println!("first divergence at event {i}:");
            println!("  {}: {}", a_path.display(), describe(ea));
            println!("  {}: {}", b_path.display(), describe(eb));
            diverged = true;
            break;
        }
    }
    if diverged {
        exit(1);
    }
    println!(
        "traces identical ({} events, {} truncated)",
        a.events.len(),
        a.truncated
    );
}

fn main() {
    let mut args = std::env::args();
    let _bin = args.next();
    match args.next().as_deref() {
        Some("capture") => capture(args),
        Some("export") => {
            let (mut input, mut out) = (None, None);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--input" => input = args.next().map(PathBuf::from),
                    "--out" => out = args.next().map(PathBuf::from),
                    _ => usage(),
                }
            }
            match (input, out) {
                (Some(i), Some(o)) => export(i, o),
                _ => usage(),
            }
        }
        Some("summarize") => {
            let mut input = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--input" => input = args.next().map(PathBuf::from),
                    _ => usage(),
                }
            }
            match input {
                Some(i) => summarize(i),
                None => usage(),
            }
        }
        Some("diff") => {
            let (a, b) = (
                args.next().map(PathBuf::from),
                args.next().map(PathBuf::from),
            );
            match (a, b) {
                (Some(a), Some(b)) => diff(a, b),
                _ => usage(),
            }
        }
        _ => usage(),
    }
}
