//! `replan_tenants`: the control plane alone. 280 tenant classes are
//! re-planned epoch after epoch from perturbed rate observations, on a
//! mixed three-pool fleet and on one K80 pool.

use std::time::Instant;

use crate::gen::{self, TenantInputs};
use crate::run::{self, interleaved, Ctx, Outcome, Replay};
use crate::stats::fastest;
use crate::sut::{self, Classes, Device, Fleet, GpuPlans, Placement};

/// Epochs a run re-plans at least, however slow the planner — and the
/// epochs the planned-quality metrics (GPUs, placement, model loads) are
/// taken over, so that they are exact for a seed: a faster planner gets
/// through more epochs in `--seconds`, and must not move them by that.
const MIN_EPOCHS: usize = 20;

/// Sessions in the synthetic set that shows the packer's quadratic tail.
const PACK_TAIL_SESSIONS: usize = 4_000;

struct FleetState {
    fleet: Fleet,
    prev: GpuPlans,
    plan_ms: Vec<f64>,
    assign_ms: Vec<f64>,
    moved: Vec<f64>,
    gpus: Vec<f64>,
    placed_frac: Vec<f64>,
}

impl FleetState {
    /// Per epoch: `plan_pooled` + `assign_plans`, ms.
    fn replan_ms(&self) -> Vec<f64> {
        self.plan_ms
            .iter()
            .zip(&self.assign_ms)
            .map(|(p, a)| p + a)
            .collect()
    }
}

fn fleets() -> [Fleet; 2] {
    [
        Fleet::new(&[
            (Device::V100, 200),
            (Device::Gtx1080Ti, 600),
            (Device::K80, 200),
        ]),
        Fleet::new(&[(Device::K80, 1_000)]),
    ]
}

/// One set-up: inputs from the seed, the system's classes and fleets, and
/// a first plan on each fleet from the planned (unperturbed) rates.
fn set_up(seed: u64) -> Result<(TenantInputs, Classes, [FleetState; 2]), String> {
    let inputs = gen::tenants(seed);
    let classes = sut::tenant_classes(&inputs.classes);
    let state = |fleet: Fleet| -> Result<FleetState, String> {
        Ok(FleetState {
            prev: sut::plan(&classes, &fleet, None)?.gpu_plans(),
            fleet,
            plan_ms: Vec::new(),
            assign_ms: Vec::new(),
            moved: Vec::new(),
            gpus: Vec::new(),
            placed_frac: Vec::new(),
        })
    };
    let [mixed, one] = fleets();
    let states = [state(mixed)?, state(one)?];
    Ok((inputs, classes, states))
}

/// Re-plans one epoch on one fleet: `plan_pooled` from the observed
/// rates, then `assign_plans` against the previous epoch's plans.
fn replan(
    ctx: &mut Ctx,
    classes: &Classes,
    observed: &[f64],
    st: &mut FleetState,
    out: &mut Outcome,
) -> Option<(usize, Placement)> {
    out.attempted += 1;
    let span = ctx.spans.enter("control.plan_pooled");
    let t = Instant::now();
    let plan = sut::plan(classes, &st.fleet, Some(observed));
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.spans.exit(span, 1);
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            out.failed += 1;
            out.violations.push(format!("plan_pooled failed: {e}"));
            return None;
        }
    };
    let next = plan.gpu_plans();
    let span = ctx.spans.enter("incremental.assign");
    let t = Instant::now();
    let moved = sut::assign(&st.prev, &next);
    let assign_ms = t.elapsed().as_secs_f64() * 1e3;
    ctx.spans.exit(span, 1);
    st.prev = next;

    let placement = plan.placement();
    if placement.unaccounted > 0 {
        out.failed += 1;
        out.violations.push(format!(
            "{} of {} sessions neither placed nor infeasible (or both)",
            placement.unaccounted, placement.sessions
        ));
    }
    st.plan_ms.push(plan_ms);
    st.assign_ms.push(assign_ms);
    st.moved.push(moved);
    st.gpus.push(plan.gpus() as f64);
    st.placed_frac
        .push(placement.placed as f64 / placement.sessions as f64);
    Some((plan.gpus(), placement))
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    ctx.spans.set_on(false);
    let kept = run::set_up(&mut out, || set_up(ctx.seed), drop);
    let Some((inputs, classes, [mut mixed, mut one])) = kept else {
        return out;
    };

    let deadline = ctx.deadline(if ctx.traced { 0.4 } else { 1.0 });
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut first = None;
    let loop_start = Instant::now();
    let mut epochs = 0;
    while epochs < inputs.observed.len() && (epochs < MIN_EPOCHS || Instant::now() < deadline) {
        let spans_on = ctx.traced && epochs % 2 == 1;
        ctx.spans.set_on(spans_on);
        let observed = &inputs.observed[epochs];
        let epoch = ctx.spans.enter("epoch");
        let t = Instant::now();
        let planned = replan(ctx, &classes, observed, &mut mixed, &mut out);
        replan(ctx, &classes, observed, &mut one, &mut out);
        let wall = t.elapsed().as_secs_f64();
        ctx.spans.exit(epoch, 2);
        if spans_on { &mut spanned } else { &mut plain }.push(wall);
        first = first.or(planned);
        epochs += 1;
    }
    let loop_wall = loop_start.elapsed().as_secs_f64();
    ctx.spans.set_on(ctx.traced);
    out.samples.insert("epochs", epochs as u64);
    if mixed.plan_ms.is_empty() || one.plan_ms.is_empty() {
        return out;
    }

    // The same observation planned again must give the same plan.
    let again = sut::plan(&classes, &mixed.fleet, Some(&inputs.observed[0]))
        .ok()
        .map(|p| (p.gpus(), p.placement()));
    out.require(again == first, || {
        format!("epoch 0 re-planned differently: {first:?} then {again:?}")
    });

    // Mean over the first MIN_EPOCHS epochs, which every run completes.
    let mean = |v: &[f64]| {
        let v = &v[..v.len().min(MIN_EPOCHS)];
        v.iter().sum::<f64>() / v.len() as f64
    };
    if !ctx.traced {
        run::set_up_again(&mut out, || set_up(ctx.seed), drop);
        let offered_per_gpu: Vec<f64> = inputs
            .observed
            .iter()
            .zip(&mixed.gpus)
            .map(|(rates, gpus)| rates.iter().sum::<f64>() / gpus)
            .collect();
        let mixed_ms = fastest(&mixed.replan_ms());
        out.set("work_per_s", 1e3 / (mixed_ms + fastest(&one.replan_ms())));
        out.set("op_ms", mixed_ms);
        out.set("goodput_per_s", mean(&offered_per_gpu));
        out.set("good_frac", mean(&mixed.placed_frac));
        return out;
    }

    out.set(
        "harness_trace_overhead_frac",
        (fastest(&spanned) - fastest(&plain)) / fastest(&plain),
    );
    out.set(
        "nexus-runtime.control.plan_pooled_ms",
        fastest(&mixed.plan_ms),
    );
    out.set(
        "nexus-runtime.control.plan_pooled_1pool_ms",
        fastest(&one.plan_ms),
    );
    out.set(
        "nexus-runtime.control.replan_1pool_ms",
        fastest(&one.replan_ms()),
    );
    out.set("nexus-runtime.control.gpus_planned", mean(&mixed.gpus));
    out.set(
        "nexus-runtime.control.share",
        (mixed.plan_ms.iter().sum::<f64>() + one.plan_ms.iter().sum::<f64>()) * 1e-3 / loop_wall,
    );
    out.set(
        "nexus-scheduler.incremental.assign_ms",
        fastest(&mixed.assign_ms),
    );
    out.set("nexus-scheduler.incremental.moved_frac", mean(&mixed.moved));
    layers(ctx, &classes, &mixed.fleet, &mut out);
    out
}

/// The planner's layers replayed on the workload's own inputs, plus the
/// 4 000-session packing that shows the packer's quadratic tail.
fn layers(ctx: &mut Ctx, classes: &Classes, fleet: &Fleet, out: &mut Outcome) {
    let pack_input = sut::plan(classes, fleet, None)
        .expect("planned in set-up")
        .pack_input();
    let pack_tail = sut::pack_input(&gen::pack_sessions(ctx.seed, PACK_TAIL_SESSIONS));
    let split_input = sut::split_input(classes, fleet);
    let packed = sut::pack(&pack_input);
    let ns = interleaved(
        &mut ctx.spans,
        vec![
            Replay::call("nexus-scheduler.squishy.pack_ms", || sut::pack(&pack_input)),
            Replay::call("nexus-scheduler.squishy.pack_ms_4k", || {
                sut::pack(&pack_tail)
            }),
            Replay::call("nexus-scheduler.query.split_dp_ms", || {
                sut::split_dp(&split_input)
            }),
            Replay::call("nexus-scheduler.query.hetero_dp_ms", || {
                sut::hetero_dp(&split_input)
            }),
            Replay::new("nexus-profile.ladder.build_ns", || {
                sut::ladder_build(classes, 10)
            }),
            Replay::new("nexus-profile.ladder.lookup_ns", || {
                sut::ladder_lookup(classes, 2)
            }),
            Replay::new("nexus-model.prefix.groups_ms", sut::prefix_groups),
        ],
    );
    out.set_replayed(&ns);
    out.set_packed(&packed, pack_input.len(), classes.len());
}
