//! A compact human-readable run summary.
//!
//! SLO attainment, per-phase latency quantiles (from the captured trace,
//! when present), per-GPU measured vs planned occupancy, and a loud warning
//! when the trace buffer overflowed — the things you want before opening
//! the full Perfetto export.

use std::fmt::Write as _;

use nexus_runtime::{DropCause, SimResult, TraceEvent};

use crate::phases::{self, phase_stats};

fn ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

/// Renders the summary.
pub fn render(result: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SLO attainment: {:.2}% of queries good ({:.2}% of requests); goodput {:.1} q/s",
        (1.0 - result.query_bad_rate) * 100.0,
        (1.0 - result.request_bad_rate) * 100.0,
        result.query_goodput
    );
    let _ = writeln!(
        out,
        "Cluster: {:.1} mean GPUs, {:.1}% busy, {} engine events",
        result.mean_gpus,
        result.gpu_utilization * 100.0,
        result.events_processed
    );

    match &result.trace {
        Some(trace) => {
            let ph = phases::reconstruct(trace.events());
            let queue = phase_stats(
                ph.spans
                    .iter()
                    .map(|s| s.queue_wait().as_micros())
                    .collect(),
            );
            let exec = phase_stats(ph.spans.iter().map(|s| s.exec().as_micros()).collect());
            let total = phase_stats(ph.spans.iter().map(|s| s.total().as_micros()).collect());
            let _ = writeln!(
                out,
                "Phases ({} completions): queue p50 {:.2} ms p99 {:.2} ms | exec p50 {:.2} ms p99 {:.2} ms | total p50 {:.2} ms p99 {:.2} ms",
                queue.count,
                ms(queue.p50),
                ms(queue.p99),
                ms(exec.p50),
                ms(exec.p99),
                ms(total.p50),
                ms(total.p99),
            );
            if !ph.drops.is_empty() {
                let mut by_cause: Vec<(DropCause, u64)> = Vec::new();
                for d in &ph.drops {
                    match by_cause.iter_mut().find(|(c, _)| *c == d.cause) {
                        Some((_, n)) => *n += 1,
                        None => by_cause.push((d.cause, 1)),
                    }
                }
                let parts: Vec<String> =
                    by_cause.iter().map(|(c, n)| format!("{c:?}={n}")).collect();
                let _ = writeln!(out, "Drops: {} ({})", ph.drops.len(), parts.join(" "));
            }
            let retries = trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Retry { .. }))
                .count();
            if retries > 0 {
                let _ = writeln!(
                    out,
                    "Retries: {retries} re-dispatched to a surviving backend"
                );
            }

            // Per-rung occupancy: how full each executed ladder shape ran
            // (size/rung). Classic execution reports rung == size, i.e. a
            // single always-full pseudo-rung per batch size; under ladder
            // execution partial tail minibatches pull the mean down.
            let mut rungs: Vec<(u32, u64, f64, u64)> = Vec::new();
            for e in trace.events() {
                if let TraceEvent::Batch {
                    size,
                    rung,
                    leftover,
                    ..
                } = e
                {
                    let r = (*rung).max(1);
                    let i = match rungs.binary_search_by_key(&r, |e| e.0) {
                        Ok(i) => i,
                        Err(i) => {
                            rungs.insert(i, (r, 0, 0.0, 0));
                            i
                        }
                    };
                    rungs[i].1 += 1;
                    rungs[i].2 += f64::from(*size) / f64::from(r);
                    rungs[i].3 += u64::from(*leftover);
                }
            }
            if !rungs.is_empty() {
                let _ = writeln!(out, "Rung occupancy (executed minibatch shapes):");
                for (rung, count, occ_sum, leftovers) in &rungs {
                    let _ = writeln!(
                        out,
                        "  rung {rung:>3}: {count:>6} batches, mean occupancy {:>5.1}%, {leftovers} leftover",
                        100.0 * occ_sum / *count as f64,
                    );
                }
            }
        }
        None => {
            let _ = writeln!(out, "Phases: tracing disabled (trace_capacity = 0)");
        }
    }

    if !result.gpu_occupancy.is_empty() {
        let _ = writeln!(out, "GPU occupancy (measured vs squishy plan):");
        for occ in &result.gpu_occupancy {
            let _ = writeln!(
                out,
                "  gpu {:>3}: busy {:>5.1}%  planned {:>5.1}%  delta {:+.1}%",
                occ.backend,
                occ.busy_frac * 100.0,
                occ.planned_frac * 100.0,
                (occ.busy_frac - occ.planned_frac) * 100.0,
            );
        }
    }

    // One line per device pool; a homogeneous fleet is a single pool, so
    // the rollup only earns its space on mixed fleets.
    if result.pool_stats.len() > 1 {
        let _ = writeln!(out, "Device pools:");
        for p in &result.pool_stats {
            let _ = writeln!(
                out,
                "  pool {:>2} [{}]: {:>3} backends, busy {:>5.1}%, goodput {:>7.1} req/s, bad {:>5.2}%",
                p.pool,
                p.device,
                p.backends,
                p.busy_frac * 100.0,
                p.request_goodput,
                p.request_bad_rate * 100.0,
            );
        }
    }

    if result.trace_truncated > 0 {
        let _ = writeln!(
            out,
            "WARNING: trace truncated — {} events discarded after the capture \
             buffer filled; raise trace_capacity for a complete capture",
            result.trace_truncated
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
    fn summary_covers_phases_and_occupancy_when_traced() {
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
            1 << 20,
        );
        let text = render(&result);
        assert!(text.contains("SLO attainment"), "{text}");
        assert!(text.contains("Phases ("), "{text}");
        assert!(text.contains("GPU occupancy"), "{text}");
        assert!(text.contains("Rung occupancy"), "{text}");
        assert!(!text.contains("WARNING"), "{text}");
    }

    #[test]
    fn summary_rolls_up_pools_on_mixed_fleets() {
        use nexus_runtime::{ClusterSim, DevicePool, SimConfig};
        let pools = vec![
            DevicePool {
                device: GPU_GTX1080TI,
                gpus: 4,
            },
            DevicePool {
                device: nexus_profile::GPU_K80,
                gpus: 4,
            },
        ];
        let result = ClusterSim::try_new_pooled(
            SimConfig {
                system: SystemConfig::nexus().with_static_allocation(),
                device: pools[0].device,
                max_gpus: 0, // derived from the pools
                seed: 3,
                horizon: Micros::from_secs(6),
                warmup: Micros::from_secs(2),
                trace_capacity: 0,
                faults: vec![],
            },
            pools,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                60.0,
            )],
        )
        .unwrap()
        .run();
        let text = render(&result);
        assert!(text.contains("Device pools:"), "{text}");
        assert!(text.contains("NVIDIA GTX 1080Ti"), "{text}");
        assert!(text.contains("NVIDIA K80"), "{text}");
    }

    #[test]
    fn summary_flags_truncation_and_disabled_tracing() {
        let untraced = nexus::run_once(
            SystemConfig::nexus(),
            GPU_GTX1080TI,
            1,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                20.0,
            )],
            1,
            Micros::from_secs(1),
            Micros::from_secs(3),
            0,
        );
        assert!(render(&untraced).contains("tracing disabled"));

        let tiny = nexus::run_once(
            SystemConfig::nexus(),
            GPU_GTX1080TI,
            1,
            vec![TrafficClass::new(
                apps::traffic(),
                ArrivalKind::Uniform,
                20.0,
            )],
            1,
            Micros::from_secs(1),
            Micros::from_secs(3),
            4,
        );
        assert!(tiny.trace_truncated > 0);
        assert!(render(&tiny).contains("WARNING: trace truncated"));
    }
}
