//! What every workload runner shares: the run's parameters, its result,
//! and interleaved replay batches.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::span::Spans;
use crate::spec;
use crate::stats::median;
use crate::sut::{Packed, Timed};

/// Set-ups at least, before the measuring and again after it.
const SETUP_REPS: usize = 2;
/// A cheap set-up repeats until this much time has gone into set-ups
/// (each side of the measuring), and at most [`SETUP_REPS_MAX`] times.
const SETUP_FILL: Duration = Duration::from_millis(1_500);
const SETUP_REPS_MAX: usize = 13;

/// Times one set-up into `out.setup_walls` and restates `setup_s`.
fn timed_set_up<T>(out: &mut Outcome, one: &mut impl FnMut() -> Result<T, String>) -> Option<T> {
    let t = Instant::now();
    let made = one();
    out.setup_walls.push(t.elapsed().as_secs_f64());
    out.set("setup_s", median(&out.setup_walls));
    out.samples.insert("setups", out.setup_walls.len() as u64);
    made.map_err(|e| out.violations.push(format!("set-up failed: {e}")))
        .ok()
}

/// Sets up repeatedly and keeps the last success for the measured run;
/// earlier ones go to `discard`, outside the timing. Records `setup_s`
/// (the median) and any set-up error in `out`.
pub fn set_up<T>(
    out: &mut Outcome,
    mut one: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Option<T> {
    let began = Instant::now();
    let mut kept = None;
    while out.setup_walls.len() < SETUP_REPS
        || (out.setup_walls.len() < SETUP_REPS_MAX && began.elapsed() < SETUP_FILL)
    {
        let made = timed_set_up(out, &mut one);
        if let Some(old) = kept.take() {
            discard(old);
        }
        kept = made;
    }
    if kept.is_none() {
        out.attempted = 1;
        out.failed = 1;
    }
    kept
}

/// Sets up as many times again once the measuring is over, discarding
/// each, so that `setup_s` is a median over two stretches of time some
/// twenty seconds apart. The box's fast and slow spells last seconds and
/// move a set-up by 30 %; set-ups taken in one stretch all land in the
/// same spell, and the run's median then flips between two values.
pub fn set_up_again<T>(
    out: &mut Outcome,
    mut one: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) {
    for _ in 0..out.setup_walls.len() {
        if let Some(made) = timed_set_up(out, &mut one) {
            discard(made);
        }
    }
}

/// Batches per replayed layer operation; a layer metric is their median.
pub const REPLAY_ROUNDS: usize = 5;

/// Parameters of one workload run.
pub struct Ctx {
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: record spans and replay layers for the per-layer
    /// metrics; otherwise measure the end-to-end ones.
    pub traced: bool,
    /// Process start, the origin of span timestamps.
    pub start: Instant,
    /// The main thread's spans.
    pub spans: Spans,
}

impl Ctx {
    /// `share` of the measuring time, from now.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations the correctness gate judged.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Broken invariants, in words; any entry fails the run.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the medians and percentiles.
    pub samples: BTreeMap<&'static str, u64>,
    /// Wall seconds of every set-up so far; `setup_s` is their median.
    setup_walls: Vec<f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records replayed costs (median ns per operation by metric name),
    /// each in the unit the metric table gives it: ns as measured, or ms.
    pub fn set_replayed(&mut self, ns_per_op: &BTreeMap<&'static str, f64>) {
        for (&name, &ns) in ns_per_op {
            let in_ms = spec::PER_LAYER
                .iter()
                .any(|m| m.name == name && m.unit == "ms");
            self.set(name, if in_ms { ns / 1e6 } else { ns });
        }
    }

    /// Records what one squishy packing of the workload's own `sessions`
    /// (from `classes` traffic classes) produced.
    pub fn set_packed(&mut self, packed: &Packed, sessions: usize, classes: usize) {
        self.set("nexus-scheduler.squishy.gpus", packed.gpus as f64);
        self.set(
            "nexus-scheduler.squishy.mean_occupancy",
            packed.mean_occupancy,
        );
        self.set("nexus-scheduler.squishy.lb_ratio", packed.lb_ratio);
        self.samples.insert("sessions", sessions as u64);
        self.samples.insert("classes", classes as u64);
    }

    /// Records a broken invariant unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// One layer operation to replay: a metric name and a batch runner.
pub struct Replay<'a> {
    /// The per-layer metric the batches feed.
    pub name: &'static str,
    /// Runs one batch and reports its timed section.
    pub batch: Box<dyn FnMut() -> Timed + 'a>,
}

impl<'a> Replay<'a> {
    /// A replay whose batches time their own inner loop.
    pub fn new(name: &'static str, batch: impl FnMut() -> Timed + 'a) -> Self {
        Replay {
            name,
            batch: Box::new(batch),
        }
    }

    /// A replay of one slow call, timed around it here.
    pub fn call<T>(name: &'static str, mut call: impl FnMut() -> T + 'a) -> Self {
        Replay::new(name, move || {
            let t = Instant::now();
            std::hint::black_box(call());
            Timed {
                ops: 1,
                elapsed: t.elapsed(),
            }
        })
    }
}

/// Runs every replay [`REPLAY_ROUNDS`] times, round-robin so drift in the
/// box's speed lands on all of them alike; returns the median ns per
/// operation by name. Each batch is a span under a `replay` round span.
pub fn interleaved(spans: &mut Spans, mut replays: Vec<Replay>) -> BTreeMap<&'static str, f64> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); replays.len()];
    for _ in 0..REPLAY_ROUNDS {
        let round = spans.enter("replay");
        for (r, out) in replays.iter_mut().zip(&mut samples) {
            let span = spans.enter(r.name);
            let timed = (r.batch)();
            spans.exit(span, timed.ops);
            out.push(timed.ns_per_op());
        }
        spans.exit(round, replays.len() as u64);
    }
    replays
        .iter()
        .zip(&samples)
        .map(|(r, s)| (r.name, median(s)))
        .collect()
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replayed_costs_land_in_each_metrics_own_unit() {
        let mut out = Outcome::default();
        out.set_replayed(&BTreeMap::from([
            ("nexus-runtime.dispatch.pull_ladder_ns_d16", 7.0),
            ("nexus-scheduler.squishy.pack_ms_4k", 2e8),
            ("nexus-model.prefix.groups_ms", 1e4),
        ]));
        assert_eq!(
            out.metrics["nexus-runtime.dispatch.pull_ladder_ns_d16"],
            7.0
        );
        assert_eq!(out.metrics["nexus-scheduler.squishy.pack_ms_4k"], 200.0);
        assert_eq!(out.metrics["nexus-model.prefix.groups_ms"], 0.01);
    }
}
