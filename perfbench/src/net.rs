//! `net-open`: the `sbed` daemon serving `FeatureSpec::no_telemetry()`
//! artifacts on loopback. The inputs are scaled-topology traces
//! converted to wire events (ticks, launches, SBE deltas).
//!
//! Phase 1 is an open loop on one connection at [`OPEN_LOOP_FPS`]
//! frames per second: stage-2 decision latency and ACK latency, timed
//! from each frame's due time. Phase 2 is a closed loop through
//! `sbed::client::run_fleet` with two connections: saturation
//! throughput. Every lap runs one whole sub-trace against a fresh
//! daemon and ends with FINISH.

use crate::fixture::{self, Fixture, Shape};
use crate::openloop::{self, lateness_ns, Lap};
use crate::replay::{report_compile, report_pass_layers};
use crate::spans::nanos_since;
use crate::{drive, report_decide, report_setup, stats, with_serial_threads, Ctx, Res};
use obskit::{NullClock, Recorder};
use sbed::client::{run_fleet, FleetConfig};
use sbed::daemon::{Daemon, DaemonConfig, DaemonReport};
use sbed::session::ScoreSession;
use sbed::wire::{self, WireEvent, KIND_EVENT, KIND_FINISH};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamd::serve::ServeConfig;
use titan_sim::events::{EventStream, TraceEvent};

/// The open loop's offered load, frames per second: about a fifth of
/// the one-connection saturation rate measured when the benchmark was
/// defined (150k–240k frames/s on two cores). Near 70% of saturation the
/// daemon's backlog, not its service time, set the latency.
pub const OPEN_LOOP_FPS: u64 = 35_000;

/// Sub-traces per run, and their shape.
const SUB_TRACES: usize = 24;
const SHAPE: Shape = Shape::ScaledNoTelemetry { days: 8 };

/// Sub-traces the traced run's per-layer measurements cover.
const TRACED_SUB_TRACES: usize = 4;

/// Connections in the closed-loop saturation phase.
const SATURATION_CONNS: usize = 2;

/// A run whose generator fell behind its schedule by more than this at
/// p99 did not offer the stated load; it fails its checks.
const SEND_LAG_LIMIT_MS: f64 = 5.0;

/// The network workload's inputs.
struct NetFixture {
    fx: Fixture,
    events: Vec<WireEvent>,
    /// Encoded request frames: event `i` under request id `i`, then
    /// FINISH under the next id.
    frames: Vec<Vec<u8>>,
    /// Per request id: whether it carries a launch.
    is_launch: Vec<bool>,
    /// Requests (in-window launch-nodes) and stage-2 requests the
    /// FINISH report must count.
    n_requests: u64,
    n_stage2: u64,
}

impl NetFixture {
    fn n_events(&self) -> usize {
        self.events.len()
    }
}

/// Decomposes the trace into the wire events the daemon scores from.
fn wire_events(fx: &Fixture) -> Res<Vec<WireEvent>> {
    let trace = &fx.trace;
    let catalog = trace.catalog();
    let mut out = Vec::new();
    for ev in EventStream::new(trace)? {
        out.push(match ev {
            TraceEvent::Tick { minute } => WireEvent::Tick { minute },
            TraceEvent::Launch { minute, aprun } => {
                let run = trace.aprun(aprun)?;
                let profile = catalog.profile(run.app_id)?;
                WireEvent::Launch {
                    minute,
                    aprun: aprun.0,
                    app: run.app_id.0,
                    runtime_min: run.runtime_min(),
                    core_util: profile.core_util,
                    mem_util: profile.mem_util,
                    nodes: run.nodes.iter().map(|n| n.0).collect(),
                }
            }
            TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            } => WireEvent::Sbe {
                minute,
                node: node.0,
                app: app.0,
                count,
            },
        });
    }
    Ok(out)
}

fn encode_frames(events: &[WireEvent]) -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| wire::encode_frame(KIND_EVENT, i as u64, &ev.encode()))
        .collect();
    frames.push(wire::encode_frame(KIND_FINISH, events.len() as u64, &[]));
    frames
}

fn spawn(fx: &Fixture) -> Res<Daemon> {
    let cfg = DaemonConfig::new(
        "127.0.0.1:0",
        ServeConfig::window(fx.window.0, fx.window.1),
        fx.trace.config().topology,
    );
    Ok(Daemon::spawn(Arc::new(fx.artifact.clone()), cfg)?)
}

/// The response fingerprint of an in-process `ScoreSession` fed the
/// same frames, and the time the feed took.
fn in_process(nf: &NetFixture) -> Res<(u64, f64)> {
    let fx = &nf.fx;
    let cfg = ServeConfig::window(fx.window.0, fx.window.1);
    let mut session = ScoreSession::new(&fx.artifact, &cfg, fx.trace.config().topology)?;
    let t = Instant::now();
    for (i, frame) in nf.frames.iter().enumerate() {
        let (kind, payload) = if i < nf.n_events() {
            (KIND_EVENT, frame.get(wire::HEADER_LEN..).unwrap_or(&[]))
        } else {
            (KIND_FINISH, &[][..])
        };
        std::hint::black_box(session.handle(kind, i as u64, payload)?);
    }
    Ok((session.response_fnv(), t.elapsed().as_secs_f64()))
}

/// Checks a lap's FINISH report and the daemon's fingerprint.
fn check_daemon(ctx: &mut Ctx, nf: &NetFixture, d: &DaemonReport, fnv: u64, what: &str) {
    let r = &d.report;
    ctx.report.check(
        r.n_events == nf.n_events() as u64
            && r.n_requests == nf.n_requests
            && r.n_stage2 == nf.n_stage2,
        || {
            format!(
                "{what}: FINISH report counts events {} requests {} stage2 {}, sent {} / {} / {}",
                r.n_events,
                r.n_requests,
                r.n_stage2,
                nf.n_events(),
                nf.n_requests,
                nf.n_stage2
            )
        },
    );
    ctx.report.check(d.response_fnv == fnv, || {
        format!(
            "{what}: daemon response_fnv {:#x} differs from the in-process session's {fnv:#x}",
            d.response_fnv
        )
    });
    ctx.report.check(d.n_rejected == 0, || {
        format!("{what}: daemon rejected {} events", d.n_rejected)
    });
}

/// Open-loop observations folded over laps.
#[derive(Default)]
struct OpenStats {
    /// Decision latencies, one run per lap.
    decide_laps: Vec<Vec<u64>>,
    ack_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    overloads: u64,
    rejected: u64,
    /// (sub-trace, daemon report) per lap.
    laps: Vec<(usize, DaemonReport)>,
    /// The last lap's observations.
    last: Option<Lap>,
}

/// One open-loop lap against `daemon`, with its checks.
fn open_lap(
    ctx: &mut Ctx,
    nf: &NetFixture,
    sub: usize,
    daemon: Daemon,
    origin: Instant,
    acc: &mut OpenStats,
) -> Res<()> {
    let window = FleetConfig::healthy(1).window;
    let lap = openloop::run_lap(daemon.addr(), &nf.frames, OPEN_LOOP_FPS, window, origin);
    if lap.is_err() {
        daemon.drain();
    }
    let d = daemon.join()?;
    let lap = lap?;
    let sched = lap.schedule.ok_or("lap without a schedule")?;
    let total = nf.frames.len();
    let mut missing = 0u64;
    let mut wrong_scores = 0u64;
    for i in 0..nf.n_events() {
        let due = sched.due_ns(i as u64);
        match lap.ack_ns[i] {
            0 => missing += 1,
            // Frame 0 opens the lap before the schedule starts.
            _ if i == 0 => {}
            at => acc.ack_ns.push(lateness_ns(due, at)),
        }
        if i > 0 {
            acc.lag_ns.push(lateness_ns(due, lap.seen_due_ns[i]));
        }
        if lap.scores[i] != u32::from(nf.is_launch[i]) {
            wrong_scores += 1;
        }
    }
    let finish_seen = lap.seen_due_ns.get(total - 1).copied().unwrap_or(0);
    acc.lag_ns
        .push(lateness_ns(sched.due_ns(total as u64 - 1), finish_seen));
    // One sample per stage-2 decision.
    acc.decide_laps.push(
        openloop::attribute(&lap.seen)
            .into_iter()
            .filter(|&(r, _, _)| r > 0)
            .flat_map(|(r, at, n)| {
                std::iter::repeat_n(lateness_ns(sched.due_ns(r), at), n as usize)
            })
            .collect(),
    );
    if lap.report.is_none() {
        missing += 1;
    }
    ctx.report
        .ops(total as u64, lap.overloads + lap.errors + missing);
    ctx.report.check(wrong_scores == 0, || {
        format!("open loop: {wrong_scores} frames without exactly one SCORES per launch")
    });
    acc.overloads += d.n_overloads;
    acc.rejected += d.n_rejected;
    acc.laps.push((sub, d));
    acc.last = Some(lap);
    Ok(())
}

/// One closed-loop saturation lap: (decisions, wall time in seconds,
/// daemon report).
fn saturation_lap(ctx: &mut Ctx, nf: &NetFixture) -> Res<(f64, f64, DaemonReport)> {
    let daemon = spawn(&nf.fx)?;
    let t = Instant::now();
    let out = run_fleet(
        daemon.addr(),
        &nf.events,
        &FleetConfig::healthy(SATURATION_CONNS),
        &NullClock,
    );
    let secs = t.elapsed().as_secs_f64();
    if out.is_err() {
        daemon.drain();
    }
    let d = daemon.join()?;
    let out = out?;
    let decisions: usize = out.scores.values().map(|p| p.entries.len()).sum();
    let retries: u64 = out.stats.iter().map(|s| s.overload_retries).sum();
    let launches = nf.is_launch.iter().filter(|&&l| l).count();
    let all_answered = out.scores.len() == launches
        && out
            .scores
            .keys()
            .all(|&k| usize::try_from(k).is_ok_and(|i| nf.is_launch.get(i) == Some(&true)));
    ctx.report.ops(nf.frames.len() as u64, retries);
    ctx.report.check(all_answered, || {
        format!(
            "saturation: {} SCORES responses for {launches} launches",
            out.scores.len()
        )
    });
    Ok((decisions as f64, secs, d))
}

fn net_fixture(fx: Fixture) -> Res<NetFixture> {
    let events = wire_events(&fx)?;
    let frames = encode_frames(&events);
    let (from, until) = fx.window;
    let mut n_requests = 0u64;
    let mut n_stage2 = 0u64;
    let mut is_launch: Vec<bool> = Vec::with_capacity(frames.len());
    for ev in &events {
        is_launch.push(matches!(ev, WireEvent::Launch { .. }));
        if let WireEvent::Launch { minute, nodes, .. } = ev {
            if *minute >= from && *minute < until {
                n_requests += nodes.len() as u64;
                n_stage2 += nodes
                    .iter()
                    .filter(|&&n| fx.artifact.is_offender(n))
                    .count() as u64;
            }
        }
    }
    is_launch.push(false);
    Ok(NetFixture {
        fx,
        events,
        frames,
        is_launch,
        n_requests,
        n_stage2,
    })
}

/// What the saturation phase measured.
struct Saturation {
    /// Pooled decisions per second, each sub-trace at its median lap
    /// time.
    rate: f64,
    /// Sum of the sub-traces' median lap times.
    cycle_s: f64,
    /// (sub-trace, daemon report) per lap.
    laps: Vec<(usize, DaemonReport)>,
}

/// Saturation laps over a set, in cycles, for at least `min_cycles`
/// cycles and `budget`.
fn saturation_cycles(
    ctx: &mut Ctx,
    set: &[NetFixture],
    budget: Duration,
    min_cycles: usize,
) -> Res<Saturation> {
    let start = Instant::now();
    let mut work = vec![0.0; set.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut reports = Vec::new();
    let mut cycles = 0;
    loop {
        for (k, nf) in set.iter().enumerate() {
            let (n, secs, d) = saturation_lap(ctx, nf)?;
            work[k] = n;
            times[k].push(secs);
            reports.push((k, d));
        }
        cycles += 1;
        if cycles >= min_cycles && start.elapsed() >= budget {
            break;
        }
    }
    let rate = stats::pooled_rate(&work, &times).ok_or("no saturation lap was timed")?;
    let cycle_s = times.iter().filter_map(|t| stats::median(t)).sum();
    eprintln!(
        "perfbench: {cycles} saturation cycles over {} traces, {rate:.0} decisions/s",
        set.len()
    );
    Ok(Saturation {
        rate,
        cycle_s,
        laps: reports,
    })
}

/// Open-loop laps over the set, cycling through it for at least
/// `budget` (every fixture at least once).
fn open_laps(
    ctx: &mut Ctx,
    set: &[NetFixture],
    budget: Duration,
    origin: Instant,
) -> Res<OpenStats> {
    let start = Instant::now();
    let mut open = OpenStats::default();
    for (i, nf) in set.iter().enumerate().cycle() {
        if open.laps.len() >= set.len() && start.elapsed() >= budget {
            break;
        }
        open_lap(ctx, nf, i, spawn(&nf.fx)?, origin, &mut open)?;
    }
    Ok(open)
}

/// Checks every lap's daemon against the in-process fingerprints.
fn check_laps(
    ctx: &mut Ctx,
    set: &[NetFixture],
    fnvs: &[u64],
    laps: &[(usize, DaemonReport)],
    what: &str,
) {
    for (i, d) in laps {
        check_daemon(
            ctx,
            &set[*i],
            d,
            fnvs[*i],
            &format!("{what} lap on sub-trace {i}"),
        );
    }
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let origin = Instant::now();
    let (fixtures, s) = fixture::build_set(ctx, SHAPE, SUB_TRACES, |fx| {
        let t = Instant::now();
        let daemon = spawn(fx)?;
        let spawn_s = t.elapsed().as_secs_f64();
        daemon.drain();
        daemon.join()?;
        Ok(spawn_s)
    })?;
    report_setup(ctx, &s);
    ctx.report.metric("sbed.spawn_s", s.last_step_s, "s");
    let mut set = fixtures
        .into_iter()
        .map(net_fixture)
        .collect::<Res<Vec<_>>>()?;
    if ctx.traced {
        set.truncate(TRACED_SUB_TRACES);
    }

    let (share, min_cycles) = if ctx.traced {
        (0.4, 1)
    } else {
        (1.0, crate::MIN_CYCLES)
    };
    let start = Instant::now();
    let open = open_laps(ctx, &set, ctx.budget(0.65 * share), origin)?;
    let remaining = ctx.budget(share).saturating_sub(start.elapsed());
    let sat = saturation_cycles(ctx, &set, remaining, min_cycles)?;
    let untraced = sat.rate;

    let mut fnvs = Vec::new();
    let mut session_s = 0.0;
    for nf in &set {
        let (fnv, secs) = in_process(nf)?;
        fnvs.push(fnv);
        session_s += secs;
    }
    check_laps(ctx, &set, &fnvs, &open.laps, "open-loop");
    check_laps(ctx, &set, &fnvs, &sat.laps, "saturation");
    let lag_ms: Vec<f64> = open.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let lag = stats::tail(&lag_ms, 99.0).ok_or("no send-lag samples")?;
    eprintln!(
        "perfbench: generator lag p50 {:.4} ms p{} {:.4} ms over {} frames",
        lag.p50, lag.tail_p, lag.tail, lag.n
    );
    ctx.report.check(lag.tail <= SEND_LAG_LIMIT_MS, || {
        format!(
            "generator ran {:.3} ms late at p{} (limit {SEND_LAG_LIMIT_MS} ms): offered load not met",
            lag.tail, lag.tail_p
        )
    });
    ctx.report.metric("scored_per_s", untraced, "1/s");
    report_decide(ctx, &open.decide_laps);
    if !ctx.traced {
        return Ok(());
    }

    let ack_ms: Vec<f64> = open.ack_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let ack = stats::tail(&ack_ms, 99.0).ok_or("no ACK samples")?;
    let r = &mut ctx.report;
    r.metric("sbed.ack_p50_ms", ack.p50, "ms");
    r.metric("sbed.ack_p99_ms", ack.tail, "ms");
    r.metric("sbed.send_lag_p99_ms", lag.tail, "ms");
    r.metric("sbed.overloads", open.overloads as f64, "count");
    r.metric("sbed.rejected", open.rejected as f64, "count");
    r.metric("sbed.session_s", session_s, "s");
    r.metric("sbed.transport_s", sat.cycle_s - session_s, "s");
    report_codec(ctx, &set)?;

    // Traced section: open-loop laps with per-frame spans, then one
    // saturation cycle.
    let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
    let from = spans.now();
    let mut traced_open = OpenStats::default();
    for (i, nf) in set.iter().enumerate() {
        let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
        let lap_span = spans.open("sbed.open_loop");
        open_lap(ctx, nf, i, spawn(&nf.fx)?, origin, &mut traced_open)?;
        let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
        spans.close(lap_span);
        if let Some(lap) = &traced_open.last {
            record_frame_spans(spans, lap_span, lap);
        }
    }
    let sat_span = ctx.spans.as_mut().map(|s| s.open("sbed.fleet"));
    let traced = saturation_cycles(ctx, &set, Duration::ZERO, 1)?;
    let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
    if let Some(id) = sat_span {
        spans.close(id);
    }
    let unattributed = spans.unattributed_share(from, spans.now());
    check_laps(ctx, &set, &fnvs, &traced_open.laps, "traced open-loop");
    check_laps(ctx, &set, &fnvs, &traced.laps, "traced saturation");
    ctx.report
        .metric("trace.overhead", untraced / traced.rate, "ratio");
    ctx.report
        .metric("trace.unattributed_share", unattributed, "ratio");

    // Per-call layer timings of the serving core the session wraps.
    let mut rec = Recorder::new();
    for nf in &set {
        let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
        let p = drive::pass(&nf.fx, Some(spans), &mut rec, None)?;
        let expected = drive::expected_requests(&nf.fx)?;
        drive::check_scored(&mut ctx.report, &nf.fx, &expected, &p.scored, true);
    }
    report_pass_layers(ctx, &rec);

    // One worker: the saturation phase with SBE_THREADS=1 (set before
    // the daemons' threads start, restored after they end).
    let serial = with_serial_threads(|| saturation_cycles(ctx, &set, Duration::ZERO, 1))?;
    check_laps(ctx, &set, &fnvs, &serial.laps, "one-worker saturation");
    ctx.report
        .metric("parkit.serial_scored_per_s", serial.rate, "1/s");
    ctx.report
        .metric("parkit.serial_over_auto", serial.rate / untraced, "ratio");
    report_compile(ctx, &set[0].fx)?;
    Ok(())
}

/// Per-frame spans of an open-loop lap: `sbed.frame` from due time to
/// ACK, with `sbed.decide` from due time to decision for frames that
/// flushed a stage-2 batch. Both carry the request id.
fn record_frame_spans(spans: &mut crate::spans::Spans, parent: usize, lap: &Lap) {
    let Some(sched) = lap.schedule else {
        return;
    };
    let decided: std::collections::BTreeMap<u64, u64> = openloop::attribute(&lap.seen)
        .into_iter()
        .map(|(r, at, _)| (r, at))
        .collect();
    for (i, &ack) in lap.ack_ns.iter().enumerate() {
        if ack == 0 {
            continue;
        }
        let r = i as u64;
        let due = sched.due_ns(r);
        let frame = spans.push_under(Some(parent), "sbed.frame", due, ack, Some(r));
        if let Some(&at) = decided.get(&r) {
            spans.push_under(Some(frame), "sbed.decide", due, at, Some(r));
        }
    }
}

/// Times the wire codec over the workload's own frames: encoding every
/// event into a frame, and decoding every frame back into an event.
fn report_codec(ctx: &mut Ctx, set: &[NetFixture]) -> Res<()> {
    let origin = Instant::now();
    let now = |ctx: &Ctx| {
        ctx.spans
            .as_ref()
            .map_or_else(|| nanos_since(origin), |s| s.now())
    };
    let (mut encode_ns, mut decode_ns) = (0u64, 0u64);
    for nf in set {
        let t0 = now(ctx);
        let mut bytes = 0usize;
        for (i, ev) in nf.events.iter().enumerate() {
            let frame = wire::encode_frame(KIND_EVENT, i as u64, &ev.encode());
            bytes += std::hint::black_box(frame).len();
        }
        let t1 = now(ctx);
        let mut decoded = 0usize;
        for f in nf.frames.iter().take(nf.n_events()) {
            let (frame, _) = wire::decode_frame(f)?;
            std::hint::black_box(WireEvent::decode(&frame.payload)?);
            decoded += 1;
        }
        let t2 = now(ctx);
        ctx.report.check(decoded == nf.n_events() && bytes > 0, || {
            "wire codec did not round-trip every frame".into()
        });
        if let Some(s) = ctx.spans.as_mut() {
            s.push("sbed.encode", t0, t1, None);
            s.push("sbed.decode", t1, t2, None);
        }
        encode_ns += t1 - t0;
        decode_ns += t2 - t1;
    }
    ctx.report
        .metric("sbed.encode_s", encode_ns as f64 / 1e9, "s");
    ctx.report
        .metric("sbed.decode_s", decode_ns as f64 / 1e9, "s");
    Ok(())
}
