//! Prometheus text exposition (version 0.0.4) of a run's metrics.
//!
//! One call renders a [`SimResult`] as the plain-text format a Prometheus
//! scrape returns: `# HELP` / `# TYPE` headers followed by labeled samples.
//! Intended for piping into pushgateway-style tooling or for diffing runs.

use std::fmt::Write as _;

use nexus_runtime::{DropCause, SimResult, TraceEvent};

/// Every drop cause, in a fixed exposition order so scrape output is
/// byte-stable run to run (absent causes render as explicit zeros).
const ALL_CAUSES: [DropCause; 7] = [
    DropCause::NoRoute,
    DropCause::EarlySacrifice,
    DropCause::Expired,
    DropCause::Orphaned,
    DropCause::Stranded,
    DropCause::RunEnd,
    DropCause::AdmissionRejected,
];

/// Occupancy histogram bucket upper bounds (`le` labels).
const OCC_BUCKETS: [&str; 4] = ["0.25", "0.5", "0.75", "1"];

/// Per-rung occupancy accumulator for the histogram exposition.
struct RungStats {
    rung: u32,
    buckets: [u64; 4],
    count: u64,
    sum: f64,
    leftovers: u64,
}

impl RungStats {
    fn new(rung: u32) -> Self {
        RungStats {
            rung,
            buckets: [0; 4],
            count: 0,
            sum: 0.0,
            leftovers: 0,
        }
    }

    fn record(&mut self, occ: f64, leftover: bool) {
        let idx = if occ <= 0.25 {
            0
        } else if occ <= 0.5 {
            1
        } else if occ <= 0.75 {
            2
        } else {
            3
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += occ;
        self.leftovers += u64::from(leftover);
    }
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

fn counter_header(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
}

fn gauge_header(out: &mut String, name: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
}

/// Renders the run's metrics in Prometheus text exposition format.
pub fn render(result: &SimResult) -> String {
    let mut out = String::new();

    gauge(
        &mut out,
        "nexus_query_bad_rate",
        "Fraction of window queries dropped or past deadline.",
        result.query_bad_rate,
    );
    gauge(
        &mut out,
        "nexus_request_bad_rate",
        "Fraction of window requests late or dropped.",
        result.request_bad_rate,
    );
    gauge(
        &mut out,
        "nexus_query_goodput",
        "Good queries per second over the measurement window.",
        result.query_goodput,
    );
    gauge(
        &mut out,
        "nexus_mean_gpus",
        "Mean GPUs allocated over the run.",
        result.mean_gpus,
    );
    gauge(
        &mut out,
        "nexus_gpu_utilization",
        "Aggregate GPU busy time over allocated GPU-seconds.",
        result.gpu_utilization,
    );

    counter_header(
        &mut out,
        "nexus_queries_finished_total",
        "Window queries that reached a terminal state.",
    );
    let _ = writeln!(
        out,
        "nexus_queries_finished_total {}",
        result.queries_finished
    );
    counter_header(
        &mut out,
        "nexus_events_processed_total",
        "Discrete events processed by the simulation engine.",
    );
    let _ = writeln!(
        out,
        "nexus_events_processed_total {}",
        result.events_processed
    );
    counter_header(
        &mut out,
        "nexus_trace_truncated_total",
        "Trace events discarded after the capture buffer filled.",
    );
    let _ = writeln!(
        out,
        "nexus_trace_truncated_total {}",
        result.trace_truncated
    );

    // Drop-cause and retry counters come from the trace; without one the
    // section is omitted (the counts are unknowable, not zero).
    if let Some(trace) = &result.trace {
        let mut by_cause = [0u64; ALL_CAUSES.len()];
        let mut retries = 0u64;
        for ev in trace.events() {
            match ev {
                TraceEvent::Drop { cause, .. } => {
                    if let Some(i) = ALL_CAUSES.iter().position(|c| c == cause) {
                        by_cause[i] += 1;
                    }
                }
                TraceEvent::Retry { .. } => retries += 1,
                _ => {}
            }
        }
        counter_header(
            &mut out,
            "nexus_drops_total",
            "Dropped requests by cause (edge admission rejects included).",
        );
        for (cause, n) in ALL_CAUSES.iter().zip(by_cause) {
            let _ = writeln!(out, "nexus_drops_total{{cause=\"{cause:?}\"}} {n}");
        }
        counter_header(
            &mut out,
            "nexus_retries_total",
            "Requests re-dispatched to a different backend after a failure.",
        );
        let _ = writeln!(out, "nexus_retries_total {retries}");

        // Per-rung occupancy histogram: how full each executed ladder
        // shape ran (size/rung). Classic execution reports rung == size,
        // so everything lands in the top bucket; under-filled tail
        // minibatches of ladder execution show up in the lower buckets.
        let mut rungs: Vec<RungStats> = Vec::new();
        for ev in trace.events() {
            if let TraceEvent::Batch {
                size,
                rung,
                leftover,
                ..
            } = ev
            {
                let r = (*rung).max(1);
                let idx = match rungs.binary_search_by_key(&r, |s| s.rung) {
                    Ok(i) => i,
                    Err(i) => {
                        rungs.insert(i, RungStats::new(r));
                        i
                    }
                };
                rungs[idx].record(f64::from(*size) / f64::from(r), *leftover);
            }
        }
        if !rungs.is_empty() {
            let _ = writeln!(
                out,
                "# HELP nexus_rung_occupancy Executed minibatch occupancy (size/rung) per ladder rung."
            );
            let _ = writeln!(out, "# TYPE nexus_rung_occupancy histogram");
            for s in &rungs {
                let mut cum = 0u64;
                for (le, n) in OCC_BUCKETS.iter().zip(s.buckets) {
                    cum += n;
                    let _ = writeln!(
                        out,
                        "nexus_rung_occupancy_bucket{{rung=\"{}\",le=\"{le}\"}} {cum}",
                        s.rung
                    );
                }
                let _ = writeln!(
                    out,
                    "nexus_rung_occupancy_bucket{{rung=\"{}\",le=\"+Inf\"}} {}",
                    s.rung, s.count
                );
                let _ = writeln!(
                    out,
                    "nexus_rung_occupancy_sum{{rung=\"{}\"}} {}",
                    s.rung, s.sum
                );
                let _ = writeln!(
                    out,
                    "nexus_rung_occupancy_count{{rung=\"{}\"}} {}",
                    s.rung, s.count
                );
            }
            counter_header(
                &mut out,
                "nexus_rung_leftover_total",
                "Leftover minibatches (after the first in a slot's rung-fill sequence) per rung.",
            );
            for s in &rungs {
                let _ = writeln!(
                    out,
                    "nexus_rung_leftover_total{{rung=\"{}\"}} {}",
                    s.rung, s.leftovers
                );
            }
        }
    }

    gauge_header(
        &mut out,
        "nexus_session_bad_rate",
        "Per-session late-or-dropped fraction.",
    );
    for (id, m) in result.metrics.sessions() {
        let _ = writeln!(
            out,
            "nexus_session_bad_rate{{session=\"{}\"}} {}",
            id.0,
            m.bad_rate()
        );
    }

    gauge_header(
        &mut out,
        "nexus_session_latency_us",
        "Per-session completion latency quantiles, microseconds.",
    );
    for (id, m) in result.metrics.sessions() {
        for (label, q) in [("0.5", 0.5), ("0.99", 0.99)] {
            if let Some(v) = m.latency_quantile(q) {
                let _ = writeln!(
                    out,
                    "nexus_session_latency_us{{session=\"{}\",quantile=\"{label}\"}} {}",
                    id.0,
                    v.as_micros()
                );
            }
        }
    }

    gauge_header(
        &mut out,
        "nexus_gpu_busy_fraction",
        "Measured per-GPU busy fraction since the last deployment swap.",
    );
    for occ in &result.gpu_occupancy {
        let _ = writeln!(
            out,
            "nexus_gpu_busy_fraction{{backend=\"{}\",pool=\"{}\"}} {}",
            occ.backend, occ.pool, occ.busy_frac
        );
    }
    gauge_header(
        &mut out,
        "nexus_gpu_planned_fraction",
        "Squishy-plan predicted duty-cycle occupancy per GPU.",
    );
    for occ in &result.gpu_occupancy {
        let _ = writeln!(
            out,
            "nexus_gpu_planned_fraction{{backend=\"{}\",pool=\"{}\"}} {}",
            occ.backend, occ.pool, occ.planned_frac
        );
    }

    // Per-device-pool rollups (a homogeneous fleet exposes one pool).
    gauge_header(
        &mut out,
        "nexus_pool_backends",
        "Backends deployed per device pool at the end of the run.",
    );
    for p in &result.pool_stats {
        let _ = writeln!(
            out,
            "nexus_pool_backends{{pool=\"{}\",device=\"{}\"}} {}",
            p.pool, p.device, p.backends
        );
    }
    gauge_header(
        &mut out,
        "nexus_pool_busy_fraction",
        "Mean measured busy fraction across a pool's backends.",
    );
    for p in &result.pool_stats {
        let _ = writeln!(
            out,
            "nexus_pool_busy_fraction{{pool=\"{}\",device=\"{}\"}} {}",
            p.pool, p.device, p.busy_frac
        );
    }
    gauge_header(
        &mut out,
        "nexus_pool_request_goodput",
        "Good request completions per second on a pool's sessions (run-wide).",
    );
    for p in &result.pool_stats {
        let _ = writeln!(
            out,
            "nexus_pool_request_goodput{{pool=\"{}\",device=\"{}\"}} {}",
            p.pool, p.device, p.request_goodput
        );
    }
    gauge_header(
        &mut out,
        "nexus_pool_request_bad_rate",
        "Late-or-dropped fraction of a pool's terminal requests.",
    );
    for p in &result.pool_stats {
        let _ = writeln!(
            out,
            "nexus_pool_request_bad_rate{{pool=\"{}\",device=\"{}\"}} {}",
            p.pool, p.device, p.request_bad_rate
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::{Micros, GPU_GTX1080TI};
    use nexus_runtime::{SystemConfig, TrafficClass};
    use nexus_workload::{apps, ArrivalKind};

    #[test]
    fn exposition_is_well_formed() {
        let result = nexus::run_once(
            SystemConfig::nexus(),
            GPU_GTX1080TI,
            2,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                30.0,
            )],
            1,
            Micros::from_secs(2),
            Micros::from_secs(6),
            1 << 16,
        );
        let text = render(&result);
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            // Every sample line: <name>[{labels}] <float>
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!series.is_empty());
            value.parse::<f64>().expect("numeric value");
            samples += 1;
        }
        assert!(samples >= 8, "got {samples} samples:\n{text}");
        assert!(text.contains("nexus_gpu_busy_fraction{backend=\"0\",pool=\"0\"}"));
        // A homogeneous run still exposes its single pool's rollup.
        assert!(text.contains("nexus_pool_backends{pool=\"0\",device=\"NVIDIA GTX 1080Ti\"}"));
        assert!(text.contains("nexus_pool_request_goodput{pool=\"0\""));
        // With a trace attached, every drop cause gets an explicit row
        // (zeros included) plus the retry counter.
        assert!(text.contains("nexus_drops_total{cause=\"AdmissionRejected\"}"));
        assert!(text.contains("nexus_drops_total{cause=\"Expired\"}"));
        assert!(text.contains("nexus_retries_total"));
        // The run executes batches, so the per-rung occupancy histogram
        // renders with the Prometheus histogram invariants: cumulative
        // buckets topped by +Inf == count, occupancy never above 1.
        assert!(text.contains("nexus_rung_occupancy_bucket{"));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("nexus_rung_occupancy_count{rung=\"") {
                let (rung, count) = rest.split_once("\"} ").expect("count sample");
                let inf =
                    format!("nexus_rung_occupancy_bucket{{rung=\"{rung}\",le=\"+Inf\"}} {count}");
                let top =
                    format!("nexus_rung_occupancy_bucket{{rung=\"{rung}\",le=\"1\"}} {count}");
                assert!(text.contains(&inf), "missing {inf}");
                assert!(text.contains(&top), "occupancy above 1 for rung {rung}");
            }
        }
        assert!(text.contains("nexus_rung_leftover_total{"));
    }

    #[test]
    fn drop_and_retry_counters_require_a_trace() {
        let result = nexus::run_once(
            SystemConfig::nexus(),
            GPU_GTX1080TI,
            2,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                30.0,
            )],
            1,
            Micros::from_secs(1),
            Micros::from_secs(3),
            0,
        );
        let text = render(&result);
        assert!(!text.contains("nexus_drops_total"));
        assert!(!text.contains("nexus_retries_total"));
    }
}
