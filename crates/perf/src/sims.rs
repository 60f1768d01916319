//! `fig13_100gpu` and `fig13_1kgpu`: the paper's deployment run through
//! the cluster builder, repeated for as long as the run measures.

use std::time::Instant;

use crate::run::{interleaved, set_up, set_up_again, Ctx, Outcome, Replay, REPLAY_ROUNDS};
use crate::stats::fastest;
use crate::sut::{self, Pull, SimRun, SimScenario};

/// A simulator workload: the scenario and the event population the
/// engine replays stand at — ten per GPU (a wake, a completion and the
/// arrivals in flight). At a hundred per GPU the replayed queue alone
/// costs more than the whole run's time per event.
pub struct SimWorkload {
    scenario: SimScenario,
    standing_events: u64,
    /// The trace-capture and goodput-at-SLO probes run on this one only.
    paper_scale: bool,
}

/// The workload called `name`, if it is a simulator workload.
pub fn workload(name: &str) -> Option<SimWorkload> {
    match name {
        "fig13_100gpu" => Some(SimWorkload {
            scenario: SimScenario {
                gpus: 100,
                scale: 1.0,
                measured_secs: 300,
                warmup_secs: 10,
            },
            standing_events: 1_000,
            paper_scale: true,
        }),
        "fig13_1kgpu" => Some(SimWorkload {
            scenario: SimScenario {
                gpus: 1_000,
                scale: 10.0,
                measured_secs: 60,
                warmup_secs: 10,
            },
            standing_events: 10_000,
            paper_scale: false,
        }),
        _ => None,
    }
}

const PANICKED: &str = "the simulation panicked";

/// One rep: a full simulation, `None` if it panicked.
fn rep(ctx: &mut Ctx, sc: &SimScenario) -> (f64, Option<SimRun>) {
    let (sc, seed) = (*sc, ctx.seed);
    let rep = ctx.spans.enter("rep");
    let call = ctx.spans.enter("sim.run");
    let t = Instant::now();
    let run = std::panic::catch_unwind(move || sut::simulate(&sc, seed, 0)).ok();
    let wall = t.elapsed().as_secs_f64();
    ctx.spans.exit(call, run.as_ref().map_or(0, |r| r.events));
    ctx.spans.exit(rep, 1);
    (wall, run)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, w: &SimWorkload) -> Outcome {
    let sc = &w.scenario;
    let mut out = Outcome::default();

    // Set-up: the inputs are the scenario plus the seed, so a set-up is
    // one untimed simulation — the first of them cold.
    ctx.spans.set_on(false);
    let first = set_up(
        &mut out,
        || rep(ctx, sc).1.ok_or(PANICKED.to_string()),
        drop,
    );
    let Some(reference) = first else {
        return out;
    };

    // Timed reps. A traced run spends part of its time on replays and
    // alternates spans on and off to price them.
    let deadline = ctx.deadline(if ctx.traced { 0.4 } else { 1.0 });
    let min_reps = if ctx.traced { 4 } else { 3 };
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    while out.attempted < min_reps || Instant::now() < deadline {
        let spans_on = ctx.traced && out.attempted % 2 == 1;
        ctx.spans.set_on(spans_on);
        let (wall, run) = rep(ctx, sc);
        out.attempted += 1;
        let same = run.is_some_and(|r| {
            r.events == reference.events && r.bad_rate.to_bits() == reference.bad_rate.to_bits()
        });
        if !same {
            out.failed += 1;
        }
        if spans_on { &mut spanned } else { &mut plain }.push(wall);
    }
    ctx.spans.set_on(ctx.traced);
    let (failed, reps) = (out.failed, out.attempted);
    out.require(failed == 0, || {
        format!("{failed} of {reps} reps panicked or differed from the first in event count or bad-rate bits")
    });
    out.samples.insert("reps", out.attempted);

    let wall = fastest(&plain);
    let horizon = sc.horizon_secs() as f64;
    if !ctx.traced {
        ctx.spans.set_on(false);
        set_up_again(
            &mut out,
            || rep(ctx, sc).1.ok_or(PANICKED.to_string()),
            drop,
        );
        out.set("work_per_s", horizon / wall);
        out.set("op_ms", wall * 1e3);
        out.set("goodput_per_s", reference.goodput_qps);
        out.set("good_frac", 1.0 - reference.bad_rate);
        return out;
    }

    out.set(
        "harness_trace_overhead_frac",
        (fastest(&spanned) - wall) / wall,
    );
    layers(ctx, w, &reference, wall, &mut out);
    out
}

/// The per-layer metrics: counts from the run, replayed costs per
/// operation, and their product as a share of the run's wall time.
fn layers(ctx: &mut Ctx, w: &SimWorkload, run: &SimRun, wall: f64, out: &mut Outcome) {
    let sc = &w.scenario;
    let seed = ctx.seed;
    let classes = sut::fig13(sc);
    let fleet = sut::Fleet::new(&[(sut::Device::K80, sc.gpus)]);
    let plan = sut::plan(&classes, &fleet, None).expect("Fig. 13 classes plan");
    let pack_input = plan.pack_input();
    let split_input = sut::split_input(&classes, &fleet);
    let packed = sut::pack(&pack_input);
    let standing = w.standing_events;

    let ns = interleaved(
        &mut ctx.spans,
        vec![
            Replay::new("nexus-simgpu.engine.push_pop_ns", || {
                sut::event_queue_churn(standing, 200_000, false)
            }),
            Replay::new("nexus-simgpu.engine.far_push_pop_ns", || {
                sut::event_queue_churn(standing, 200_000, true)
            }),
            Replay::new("nexus-runtime.dispatch.pull_ladder_ns_d16", || {
                sut::queue_pull(16, 2_000, Pull::LadderEarly)
            }),
            Replay::new("nexus-runtime.dispatch.pull_ladder_ns_d1k", || {
                sut::queue_pull(1_000, 40, Pull::LadderEarly)
            }),
            Replay::new("nexus-runtime.dispatch.pull_ladder_ns_d10k", || {
                sut::queue_pull(10_000, 4, Pull::LadderEarly)
            }),
            Replay::new("nexus-runtime.dispatch.pull_lazy_ns_d1k", || {
                sut::queue_pull(1_000, 40, Pull::Lazy)
            }),
            Replay::new("nexus-runtime.metrics.record_ns", || {
                sut::metrics_record(pack_input.len() as u32, 500_000)
            }),
            Replay::new("nexus-workload.arrivals.next_arrival_ns", || {
                sut::arrivals_next(seed, 500_000)
            }),
            Replay::call("nexus-runtime.control.plan_pooled_ms", || {
                sut::plan(&classes, &fleet, None).is_ok()
            }),
            Replay::call("nexus-scheduler.squishy.pack_ms", || sut::pack(&pack_input)),
            Replay::call("nexus-scheduler.query.split_dp_ms", || {
                sut::split_dp(&split_input)
            }),
            Replay::call("nexus-scheduler.query.hetero_dp_ms", || {
                sut::hetero_dp(&split_input)
            }),
            Replay::new("nexus-profile.ladder.build_ns", || {
                sut::ladder_build(&classes, 200)
            }),
            Replay::new("nexus-profile.ladder.lookup_ns", || {
                sut::ladder_lookup(&classes, 20)
            }),
            Replay::new("nexus-model.prefix.groups_ms", sut::prefix_groups),
        ],
    );
    out.set_replayed(&ns);

    let share = |count: f64, ns_per_op: f64| count * ns_per_op * 1e-9 / wall;
    let whole_run = sc.horizon_secs() as f64 / sc.measured_secs as f64;
    let shares = [
        (
            "nexus-simgpu.engine.share",
            share(run.events as f64, ns["nexus-simgpu.engine.push_pop_ns"]),
        ),
        (
            "nexus-runtime.dispatch.share",
            share(
                run.requests as f64,
                ns["nexus-runtime.dispatch.pull_ladder_ns_d16"],
            ),
        ),
        (
            "nexus-runtime.metrics.share",
            share(run.requests as f64, ns["nexus-runtime.metrics.record_ns"]),
        ),
        (
            "nexus-workload.arrivals.share",
            share(
                run.queries as f64 * whole_run,
                ns["nexus-workload.arrivals.next_arrival_ns"],
            ),
        ),
        (
            "nexus-runtime.control.share",
            share(
                sc.epochs() as f64,
                ns["nexus-runtime.control.plan_pooled_ms"],
            ),
        ),
    ];
    let mut residual = 1.0;
    for (name, v) in shares {
        out.set(name, v);
        residual -= v;
    }
    out.set("nexus-runtime.cluster.residual_share", residual);
    out.set("nexus-runtime.cluster.events", run.events as f64);
    out.set(
        "nexus-runtime.cluster.events_per_s",
        run.events as f64 / wall,
    );
    out.set(
        "nexus-runtime.cluster.ns_per_event",
        wall * 1e9 / run.events as f64,
    );
    out.set(
        "nexus-runtime.cluster.events_per_query",
        run.events as f64 / (run.queries as f64 * whole_run),
    );
    out.set("nexus-runtime.cluster.bad_rate", run.bad_rate);
    out.set("nexus-runtime.control.gpus_planned", run.mean_gpus);
    out.set(
        "nexus-runtime.dispatch.dropped_frac",
        run.dropped as f64 / run.requests as f64,
    );
    out.set_packed(&packed, pack_input.len(), classes.len());

    if w.paper_scale {
        paper_probes(ctx, sc, out);
    }
}

/// Trace capture on against off, the codec over that capture, and the
/// goodput-at-SLO search — on shortened runs of the same deployment.
fn paper_probes(ctx: &mut Ctx, sc: &SimScenario, out: &mut Outcome) {
    let short = SimScenario {
        measured_secs: 20,
        warmup_secs: 5,
        ..*sc
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut captured = None;
    for _ in 0..REPLAY_ROUNDS {
        for capacity in [0, 4_000_000] {
            let span = ctx.spans.enter(if capacity == 0 {
                "obs.trace_off"
            } else {
                "obs.trace_on"
            });
            let t = Instant::now();
            let run = sut::simulate(&short, ctx.seed, capacity);
            let wall = t.elapsed().as_secs_f64();
            ctx.spans.exit(span, run.events);
            if capacity == 0 {
                off.push(wall);
            } else {
                on.push(wall);
                captured = Some(run);
            }
        }
    }
    out.set(
        "nexus-obs.trace_on_overhead_frac",
        (fastest(&on) - fastest(&off)) / fastest(&off),
    );
    let span = ctx.spans.enter("obs.codec");
    let codec = sut::obs_codec(&captured.expect("a traced run"));
    ctx.spans.exit(span, codec.events);
    out.set("nexus-obs.encode_ms", codec.encode.as_secs_f64() * 1e3);
    out.set("nexus-obs.decode_ms", codec.decode.as_secs_f64() * 1e3);
    out.set("nexus-obs.summary_ms", codec.summary.as_secs_f64() * 1e3);
    out.samples.insert("trace_events", codec.events);

    let probes = 6;
    let search = SimScenario {
        measured_secs: 120,
        warmup_secs: 10,
        ..*sc
    };
    let span = ctx.spans.enter("goodput_at_slo");
    let qps = sut::goodput_at_slo(&search, ctx.seed, probes);
    ctx.spans.exit(span, u64::from(probes));
    out.set("nexus-runtime.cluster.goodput_at_slo_qps", qps);
}
