//! `door_loopback`: the TCP front door over loopback.
//!
//! Two client threads each own one persistent connection (two, because
//! the box has two cores and the load generator may not use more).
//! Phase A is a closed loop: submit, wait, repeat. Phase B is an open
//! loop on a fixed rate ladder: requests go out on a schedule whether or
//! not earlier ones came back, and latency counts from when each was
//! *due*, so a stall costs every request queued behind it. Phase C
//! (traced runs) sends the same exchange straight to one backend for the
//! door's added latency.
//!
//! Request counts are capped: each dispatch the door makes opens a fresh
//! backend connection and leaves a socket in TIME_WAIT for 60 s, and the
//! ephemeral range holds ~28 000. See the README for the arithmetic.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::gen::{self, DoorInputs, DOOR_CLIENTS};
use crate::run::{self, interleaved, Ctx, Outcome, Replay};
use crate::span::Spans;
use crate::stats::{median, percentile, TAIL_SAMPLES};
use crate::sut::{self, Door, DoorConn};

/// Open-loop rates, requests/s over both clients.
pub const LADDER: [u32; 4] = [20, 80, 320, 1_280];
/// A request meets the limit if it completes this soon after it was due.
const LIMIT: Duration = Duration::from_millis(100);
/// Share of a step's requests that must meet the limit: the step is
/// judged at its 99th percentile — or, when it sends fewer than 1 000
/// requests, at the highest percentile that still leaves
/// [`TAIL_SAMPLES`] beyond it, since a lone scheduling hiccup among 40
/// requests says nothing about the door.
const ON_TIME_SHARE: f64 = 0.99;

/// Requests of a step that may miss the limit.
fn miss_allowance(planned: u64) -> u64 {
    (((1.0 - ON_TIME_SHARE) * planned as f64).floor() as u64).max(TAIL_SAMPLES as u64)
}
/// Every reply must arrive this soon after the step's last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(1);
/// How long a step waits for stragglers before calling them unanswered.
const DRAIN_CAP: Duration = Duration::from_secs(5);
/// Times a ladder step runs before it counts as failed. This box stalls a
/// vCPU for 70–200 ms every few minutes, and one such stall fails any
/// step it lands in; two in a row on the same step is a slow door.
const STEP_ATTEMPTS: u64 = 2;
/// Phase A stops at this many replies over both clients.
const CLOSED_LOOP_CAP: usize = 3_000;
/// Phase C stops at this many requests.
const DIRECT_CAP: usize = 1_000;
/// Phase A switches spans on and off in blocks of this many requests.
const SPAN_BLOCK: usize = 25;

/// Client-side counts. `sent`/`answered`/`completed` cover every submit
/// and must close against the server's; `judged`/`on_time` cover only
/// phase A and passing ladder steps, where the limit is a promise.
#[derive(Default)]
struct Tally {
    sent: u64,
    answered: u64,
    completed: u64,
    judged: u64,
    on_time: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, other: Tally, judge: bool) {
        self.sent += other.sent;
        self.answered += other.answered;
        self.completed += other.completed;
        if judge {
            self.judged += other.sent;
            self.on_time += other.on_time;
        }
        self.errors.extend(other.errors);
    }
}

fn request_id(client: usize, phase: u64, i: u64) -> u64 {
    ((client as u64) << 48) | (phase << 32) | i
}

struct ClosedLoop {
    tally: Tally,
    /// Round trips, ns, with whether the request was spanned.
    rtts: Vec<(f64, bool)>,
    spans: Spans,
}

/// Phase A for one client: submit, wait for the reply, repeat until the
/// deadline or `cap` replies.
fn closed_loop(
    conn: &mut DoorConn,
    client: usize,
    inputs: &DoorInputs,
    deadline: Instant,
    cap: usize,
    mut spans: Spans,
    traced: bool,
) -> ClosedLoop {
    let mut tally = Tally::default();
    let mut rtts = Vec::new();
    let sessions = &inputs.sessions[client];
    while Instant::now() < deadline && rtts.len() < cap {
        let i = tally.sent;
        let spanned = traced && (i as usize / SPAN_BLOCK) % 2 == 1;
        spans.set_on(spanned);
        let request = request_id(client, 0, i);
        let whole = spans.enter("request");
        let t = Instant::now();
        let write = spans.enter("client.write");
        let sent = conn.submit(request, sessions[i as usize % sessions.len()]);
        spans.exit(write, 1);
        tally.sent += 1;
        if !sent {
            tally.errors.push(format!("submit {request:#x} failed"));
            spans.exit(whole, 1);
            break;
        }
        if spanned {
            let wait = spans.enter("client.wait");
            conn.wait_readable(sut::DOOR_BUDGET * 4);
            spans.exit(wait, 1);
        }
        let decode = spans.enter("client.decode");
        let reply = conn.recv(sut::DOOR_BUDGET * 4);
        spans.exit(decode, 1);
        let rtt = t.elapsed();
        spans.exit(whole, 1);
        match reply {
            Ok(Some(r)) if r.request == request => {
                tally.answered += 1;
                tally.completed += u64::from(r.completed);
                tally.on_time += u64::from(r.completed && rtt <= LIMIT);
                rtts.push((rtt.as_nanos() as f64, spanned));
            }
            other => {
                tally
                    .errors
                    .push(format!("submit {request:#x} got {other:?}"));
                break;
            }
        }
    }
    ClosedLoop { tally, rtts, spans }
}

struct OpenLoop {
    tally: Tally,
    planned: u64,
    /// Latency from due time, ns, of every answered request.
    latencies: Vec<f64>,
    /// How late the generator sent its worst request.
    late_max: Duration,
    /// How long after the last send the last reply came.
    drain: Duration,
    /// The miss allowance ran out and the client stopped sending.
    aborted: bool,
}

/// One ladder step for one client: `rate` requests/s for `length`, sent
/// when due, replies read in between.
fn open_loop(
    conn: &mut DoorConn,
    client: usize,
    step: u64,
    inputs: &DoorInputs,
    rate: f64,
    length: Duration,
) -> OpenLoop {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let planned = (length.as_secs_f64() * rate).floor() as u64;
    // Each client may spend its share of the step's allowance.
    let allowance = miss_allowance(planned * DOOR_CLIENTS as u64) / DOOR_CLIENTS as u64;
    let start = Instant::now() + interval.mul_f64(inputs.phase[client]);
    let due = |i: u64| start + interval.mul_f64(i as f64);
    let sessions = &inputs.sessions[client];
    let mut out = OpenLoop {
        tally: Tally::default(),
        planned,
        latencies: Vec::new(),
        late_max: Duration::ZERO,
        drain: Duration::ZERO,
        aborted: false,
    };
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut misses = 0u64;
    let mut last_send = start;
    loop {
        let now = Instant::now();
        let overdue = outstanding.front().is_some_and(|&(_, d)| now > d + LIMIT);
        if misses + u64::from(overdue) > allowance {
            out.aborted = true;
        }
        let sending = out.tally.sent < planned && !out.aborted;
        if sending && now >= due(out.tally.sent) {
            let i = out.tally.sent;
            out.late_max = out.late_max.max(now - due(i));
            let request = request_id(client, step, i);
            out.tally.sent += 1;
            if !conn.submit(request, sessions[i as usize % sessions.len()]) {
                out.tally.errors.push(format!("submit {request:#x} failed"));
                break;
            }
            outstanding.push_back((request, due(i)));
            last_send = now;
            continue;
        }
        let wait = if sending {
            due(out.tally.sent) - now
        } else if outstanding.is_empty() {
            break;
        } else {
            match (last_send + DRAIN_CAP).checked_duration_since(now) {
                Some(left) if !left.is_zero() => left,
                _ => break,
            }
        };
        match conn.recv_whole(wait) {
            Ok(None) => {}
            Ok(Some(r)) => {
                let Some((request, was_due)) = outstanding.pop_front() else {
                    out.tally.errors.push("reply to nothing".into());
                    break;
                };
                if r.request != request {
                    out.tally
                        .errors
                        .push(format!("reply {:#x}, expected {request:#x}", r.request));
                    break;
                }
                let done = Instant::now();
                let latency = done - was_due;
                out.tally.answered += 1;
                out.tally.completed += u64::from(r.completed);
                if r.completed && latency <= LIMIT {
                    out.tally.on_time += 1;
                } else {
                    misses += 1;
                }
                out.latencies.push(latency.as_nanos() as f64);
                out.drain = done.saturating_duration_since(last_send);
            }
            Err(e) => {
                out.tally.errors.push(e);
                break;
            }
        }
    }
    out
}

/// Both clients' results for one step, and whether the step passed.
struct Step {
    rate: u32,
    passed: bool,
    tally: Tally,
    latencies: Vec<f64>,
    late_max: Duration,
}

impl Step {
    fn describe(&self) -> String {
        let max = self.latencies.iter().fold(0.0f64, |m, &v| m.max(v));
        format!(
            "{} req/s: {} sent, {} within the limit, p50 {:.1} ms, max {:.1} ms, generator late by up to {:.1} ms: {}",
            self.rate,
            self.tally.sent,
            self.tally.on_time,
            if self.latencies.is_empty() { 0.0 } else { median(&self.latencies) / 1e6 },
            max / 1e6,
            self.late_max.as_secs_f64() * 1e3,
            if self.passed { "passed" } else { "failed" },
        )
    }
}

/// Runs `f` for every client at once, one thread per connection.
fn on_each_client<T: Send>(
    conns: &mut [DoorConn],
    f: impl Fn(usize, &mut DoorConn) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| s.spawn(move || f(client, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn ladder_step(
    conns: &mut [DoorConn],
    inputs: &DoorInputs,
    index: usize,
    attempt: u64,
    length: Duration,
) -> Step {
    let step_id = 1 + index as u64 * STEP_ATTEMPTS + attempt;
    let rate = LADDER[index];
    let per_client = f64::from(rate) / DOOR_CLIENTS as f64;
    let results = on_each_client(conns, |client, conn| {
        open_loop(conn, client, step_id, inputs, per_client, length)
    });
    let mut step = Step {
        rate,
        passed: true,
        tally: Tally::default(),
        latencies: Vec::new(),
        late_max: Duration::ZERO,
    };
    for r in results {
        step.passed &= !r.aborted
            && r.tally.sent == r.planned
            && r.tally.answered == r.tally.sent
            && r.drain <= DRAIN_LIMIT;
        step.late_max = step.late_max.max(r.late_max);
        step.latencies.extend(r.latencies);
        step.tally.add(r.tally, true);
    }
    step.passed &= step.tally.sent - step.tally.on_time <= miss_allowance(step.tally.sent);
    step
}

/// One set-up: inputs, a door with epoch 1 applied, both connections
/// open and one request through each.
fn set_up(seed: u64) -> Result<(DoorInputs, Door, Vec<DoorConn>), String> {
    let inputs = gen::door(seed);
    let door = Door::start().map_err(|e| format!("door did not start: {e}"))?;
    let mut conns = Vec::new();
    for client in 0..DOOR_CLIENTS {
        let mut conn =
            DoorConn::connect(door.addr()).map_err(|e| format!("client connect: {e}"))?;
        let request = request_id(client, 0xffff, 0);
        let answered = conn.submit(request, 0)
            && matches!(conn.recv(sut::DOOR_BUDGET * 4), Ok(Some(r)) if r.request == request && r.completed);
        if !answered {
            return Err(format!("client {client}'s first request went unanswered"));
        }
        conns.push(conn);
    }
    Ok((inputs, door, conns))
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let shut_down = |(_, door, conns): (DoorInputs, Door, Vec<DoorConn>)| {
        drop(conns);
        door.shutdown();
    };
    let kept = run::set_up(&mut out, || set_up(ctx.seed), shut_down);
    let Some((inputs, door, mut conns)) = kept else {
        return out;
    };
    // The kept set-up's first request per client, which the server counted.
    let warmups = DOOR_CLIENTS as u64;
    let mut total = Tally::default();

    // Phase A: closed loop.
    let deadline = ctx.deadline(if ctx.traced { 0.3 } else { 0.5 });
    let (origin, traced) = (ctx.start, ctx.traced);
    let phase_a = Instant::now();
    let closed = on_each_client(&mut conns, |client, conn| {
        let spans = Spans::new(origin, traced);
        let cap = CLOSED_LOOP_CAP / DOOR_CLIENTS;
        closed_loop(conn, client, &inputs, deadline, cap, spans, traced)
    });
    let phase_a = phase_a.elapsed().as_secs_f64();
    let mut rtts = Vec::new();
    for c in closed {
        rtts.extend(c.rtts);
        ctx.spans.absorb(c.spans);
        total.add(c.tally, true);
    }
    let replies_a = total.answered;
    let plain: Vec<f64> = rtts.iter().filter(|r| !r.1).map(|r| r.0).collect();
    let spanned: Vec<f64> = rtts.iter().filter(|r| r.1).map(|r| r.0).collect();
    out.samples.insert("closed_loop_replies", replies_a);

    // Phase B: open loop up the ladder, stopping at the first failing step.
    let step_length = Duration::from_secs_f64(ctx.seconds * 0.1);
    let mut max_rate = 0;
    let mut late_max = Duration::ZERO;
    let mut first_latencies = Vec::new();
    for (index, &rate) in LADDER.iter().enumerate() {
        let mut passed = false;
        for attempt in 0..STEP_ATTEMPTS {
            let span = ctx.spans.enter("ladder.step");
            let step = ladder_step(&mut conns, &inputs, index, attempt, step_length);
            ctx.spans.exit(span, step.tally.sent);
            eprintln!("perf: door ladder {}", step.describe());
            passed = step.passed;
            late_max = late_max.max(step.late_max);
            if index == 0 {
                first_latencies = step.latencies;
            }
            // A failing step's late replies are the finding, not failures.
            total.add(step.tally, passed);
            if passed {
                break;
            }
        }
        if !passed {
            break;
        }
        max_rate = rate;
    }

    // Phase C and the layer replays belong to the traced run.
    let direct = ctx.traced.then(|| {
        let deadline = ctx.deadline(0.15);
        let addr = door.backend_addr(0);
        let span = ctx.spans.enter("direct");
        let mut rtts = Vec::new();
        let mut failed = 0u64;
        while Instant::now() < deadline && rtts.len() < DIRECT_CAP {
            let t = Instant::now();
            if sut::direct_exec(addr, rtts.len() as u64) {
                rtts.push(t.elapsed().as_nanos() as f64);
            } else {
                failed += 1;
                break;
            }
        }
        ctx.spans.exit(span, rtts.len() as u64);
        (rtts, failed)
    });

    drop(conns);
    let stats = door.shutdown();
    out.samples
        .insert("frontend_handlers_joined", stats.joined.0 as u64);
    out.samples
        .insert("backend_handlers_joined", stats.joined.1 as u64);
    out.attempted = total.sent;
    out.failed = total.sent - total.completed.min(total.sent);
    out.violations.extend(total.errors.iter().take(5).cloned());
    out.require(stats.accounted, || {
        format!("server accounting leaks: {stats:?}")
    });
    out.require(
        stats.submitted == total.sent + warmups && stats.completed == total.completed + warmups,
        || {
            format!(
                "client and server disagree: client sent {} completed {}, {stats:?}",
                total.sent + warmups,
                total.completed + warmups
            )
        },
    );
    out.require(total.answered == total.sent, || {
        format!("{} submits went unanswered", total.sent - total.answered)
    });
    out.require(stats.budget_violations == 0, || {
        format!(
            "{} completions overran their budget",
            stats.budget_violations
        )
    });
    out.require(stats.executed >= stats.completed, || {
        format!(
            "backends executed {} < completed {}",
            stats.executed, stats.completed
        )
    });
    out.require(max_rate > 0, || {
        format!(
            "the lowest ladder step ({} req/s) missed the limit",
            LADDER[0]
        )
    });
    if plain.is_empty() {
        out.violations.push("phase A got no replies".into());
        return out;
    }

    let p50_ns = median(&plain);
    if !ctx.traced {
        run::set_up_again(&mut out, || set_up(ctx.seed), shut_down);
        out.set("work_per_s", replies_a as f64 / phase_a);
        out.set("op_ms", p50_ns / 1e6);
        out.set("goodput_per_s", f64::from(max_rate));
        out.set("good_frac", total.on_time as f64 / total.judged as f64);
        return out;
    }

    out.set(
        "harness_trace_overhead_frac",
        if spanned.is_empty() {
            0.0
        } else {
            (median(&spanned) - p50_ns) / p50_ns
        },
    );
    let us = |ns: Option<f64>| ns.map_or(0.0, |v| v / 1e3);
    let (direct_rtts, direct_failed) = direct.expect("traced run");
    out.require(direct_failed == 0 && !direct_rtts.is_empty(), || {
        "a direct backend exchange failed".into()
    });
    let direct_p50 = if direct_rtts.is_empty() {
        0.0
    } else {
        median(&direct_rtts)
    };
    out.samples
        .insert("direct_exchanges", direct_rtts.len() as u64);
    out.set("nexus-serve.backend.direct_rtt_p50_us", direct_p50 / 1e3);
    out.set(
        "nexus-serve.backend.direct_rtt_p99_us",
        us(percentile(&direct_rtts, 99.0)),
    );
    out.set(
        "nexus-serve.frontend.rtt_p99_us",
        us(percentile(&plain, 99.0)),
    );
    out.set(
        "nexus-serve.frontend.added_p50_us",
        (p50_ns - direct_p50) / 1e3,
    );
    out.samples
        .insert("open_loop_replies_at_20", first_latencies.len() as u64);
    out.set(
        "nexus-serve.frontend.open_p99_us_at_20",
        us(percentile(&first_latencies, 99.0)),
    );
    out.set(
        "nexus-serve.frontend.open_late_max_us",
        late_max.as_nanos() as f64 / 1e3,
    );
    let submitted = stats.submitted.max(1) as f64;
    out.set(
        "nexus-serve.frontend.retried_frac",
        stats.retried as f64 / submitted,
    );
    out.set(
        "nexus-serve.frontend.dropped_frac",
        stats.dropped as f64 / submitted,
    );
    let ns = interleaved(
        &mut ctx.spans,
        vec![
            Replay::new("nexus-serve.proto.encode_ns", || sut::proto_encode(200_000)),
            Replay::new("nexus-serve.proto.decode_ns", || sut::proto_decode(200_000)),
            Replay::new("nexus-serve.proto.frame_roundtrip_ns", || {
                sut::proto_frame_roundtrip(200_000)
            }),
            Replay::new("nexus-serve.routing.pick_ns", || sut::route_pick(200_000)),
            Replay::new("nexus-serve.admission.admit_ns", || {
                sut::admission_admit(200_000)
            }),
        ],
    );
    out.set_replayed(&ns);
    out
}
