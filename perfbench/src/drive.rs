//! Feeding a trace through `StepScorer` one event at a time, timing
//! each `step_*` call.
//!
//! A call that appends at least one stage-2 `ScoredLaunch` flushed a
//! batch; its duration is the decision latency of every stage-2 row it
//! appended (one sample per decision). When
//! tracing, every `EventStream::next` and every step call becomes a
//! span, and a call that flushed is named `streamd.flush` instead of
//! its event kind.

use crate::fixture::Fixture;
use crate::report::Report;
use crate::spans::{nanos_since, Spans};
use crate::Res;
use obskit::Recorder;
use std::time::Instant;
use streamd::serve::{LaunchFacts, NullSink, ScoredLaunch, ServeConfig, StepScorer};
use titan_sim::engine::TelemetryQueryEngine;
use titan_sim::events::{EventStream, TraceEvent};
use titan_sim::schedule::ApRunId;
use titan_sim::topology::NodeId;

/// One replay of the whole trace.
#[derive(Debug, Default)]
pub struct Pass {
    /// Scored launch-nodes in emission order.
    pub scored: Vec<ScoredLaunch>,
    /// Durations of the step calls that flushed a stage-2 batch, once
    /// per stage-2 row the call scored.
    pub decide_ns: Vec<u64>,
    /// Wall time from the first event to the end of `step_finish`.
    pub wall_ns: u64,
    /// Part of `wall_ns` spent re-querying telemetry for the trace.
    pub requery_ns: u64,
    /// (aprun, node) pairs re-queried.
    pub requery_pairs: u64,
}

/// Replays the fixture's trace through a fresh `StepScorer` built with
/// `ServeConfig::window`. With `spans`, records the spans described in
/// the module docs; with `requery`, also calls
/// `TelemetryQueryEngine::query` again on each flushed batch's stage-2
/// (aprun, node) pairs.
pub fn pass(
    fx: &Fixture,
    mut spans: Option<&mut Spans>,
    rec: &mut Recorder,
    requery: Option<&TelemetryQueryEngine<'_>>,
) -> Res<Pass> {
    let trace = &fx.trace;
    let origin = Instant::now();
    let now = |spans: &Option<&mut Spans>| match spans {
        Some(s) => s.now(),
        None => nanos_since(origin),
    };
    let cfg = ServeConfig::window(fx.window.0, fx.window.1);
    let new_at = now(&spans);
    let mut step = StepScorer::new(&fx.artifact, &cfg, trace.config().topology, Some(trace))?;
    if let Some(s) = spans.as_deref_mut() {
        let end = s.now();
        s.push("streamd.new", new_at, end, None);
    }
    let catalog = trace.catalog();
    let mut out: Vec<ScoredLaunch> = Vec::new();
    let mut sink = NullSink;
    let mut p = Pass::default();
    let mut stream = EventStream::new(trace)?;

    let start = now(&spans);
    loop {
        let next_at = now(&spans);
        let event = stream.next();
        if let Some(s) = spans.as_deref_mut() {
            let end = s.now();
            s.push("sim.replay", next_at, end, None);
        }
        let before = out.len();
        let (kind, t0) = match event {
            None => {
                let t0 = now(&spans);
                step.step_finish(&mut out, &mut sink, rec)?;
                ("streamd.finish", t0)
            }
            Some(TraceEvent::Tick { minute }) => {
                let t0 = now(&spans);
                step.step_tick(minute, &mut out, &mut sink, rec)?;
                ("streamd.tick", t0)
            }
            Some(TraceEvent::Launch { minute, aprun }) => {
                let run = trace.aprun(aprun)?;
                let profile = catalog.profile(run.app_id)?;
                let facts = LaunchFacts {
                    minute,
                    aprun: aprun.0,
                    app: run.app_id.0,
                    runtime_min: run.runtime_min(),
                    core_util: profile.core_util,
                    mem_util: profile.mem_util,
                    nodes: &run.nodes,
                };
                let t0 = now(&spans);
                step.step_launch(&facts, &mut out, &mut sink, rec)?;
                ("streamd.launch", t0)
            }
            Some(TraceEvent::SbeVisible {
                minute,
                node,
                app,
                count,
                ..
            }) => {
                let t0 = now(&spans);
                step.step_sbe(minute, node, app, count, rec)?;
                ("streamd.sbe", t0)
            }
        };
        let t1 = now(&spans);
        let emitted = out.get(before..).unwrap_or(&[]);
        let decisions = emitted.iter().filter(|s| s.stage2).count();
        let flushed = decisions > 0;
        // One sample per stage-2 decision the call made.
        p.decide_ns.extend(std::iter::repeat_n(t1 - t0, decisions));
        if let Some(s) = spans.as_deref_mut() {
            s.push(if flushed { "streamd.flush" } else { kind }, t0, t1, None);
            if let (true, Some(qe)) = (flushed, requery) {
                let pairs: Vec<(ApRunId, NodeId)> = emitted
                    .iter()
                    .filter(|s| s.stage2)
                    .map(|s| (ApRunId(s.aprun), NodeId(s.node)))
                    .collect();
                let q0 = s.now();
                std::hint::black_box(qe.query(&pairs)?);
                let q1 = s.now();
                s.push("sim.telemetry_query", q0, q1, None);
                p.requery_ns += q1 - q0;
                p.requery_pairs += pairs.len() as u64;
            }
        }
        if kind == "streamd.finish" {
            break;
        }
    }
    p.wall_ns = now(&spans) - start;
    p.scored = out;
    Ok(p)
}

/// The launch-nodes a pass must score: every node of every launch
/// inside the scoring window, sorted by (aprun, node).
pub fn expected_requests(fx: &Fixture) -> Res<Vec<(u32, u32)>> {
    let (from, until) = fx.window;
    let mut out = Vec::new();
    for event in EventStream::new(&fx.trace)? {
        if let TraceEvent::Launch { minute, aprun } = event {
            if minute >= from && minute < until {
                let run = fx.trace.aprun(aprun)?;
                out.extend(run.nodes.iter().map(|n| (aprun.0, n.0)));
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Checks one pass's output: every in-window launch-node scored exactly
/// once, every probability finite and in [0, 1], and (when
/// `offenders_fixed`) stage 2 reached exactly for the artifact's
/// offender nodes.
pub fn check_scored(
    report: &mut Report,
    fx: &Fixture,
    expected: &[(u32, u32)],
    scored: &[ScoredLaunch],
    offenders_fixed: bool,
) {
    let mut keys: Vec<(u32, u32)> = scored.iter().map(|s| (s.aprun, s.node)).collect();
    keys.sort_unstable();
    report.check(keys == expected, || {
        format!(
            "scored {} launch-nodes, expected each of {} exactly once",
            keys.len(),
            expected.len()
        )
    });
    let bad_prob = scored
        .iter()
        .filter(|s| !(s.probability.is_finite() && (0.0..=1.0).contains(&s.probability)))
        .count();
    report.check(bad_prob == 0, || {
        format!("{bad_prob} probabilities outside [0, 1]")
    });
    if offenders_fixed {
        let wrong_stage = scored
            .iter()
            .filter(|s| s.stage2 != fx.artifact.is_offender(s.node))
            .count();
        report.check(wrong_stage == 0, || {
            format!("{wrong_stage} launch-nodes took the wrong stage")
        });
    }
}

/// A scored row as comparable bits.
fn row_bits(s: &ScoredLaunch) -> (u64, u32, u32, u32, u32, bool, bool) {
    (
        s.minute,
        s.aprun,
        s.app,
        s.node,
        s.probability.to_bits(),
        s.predicted,
        s.stage2,
    )
}

/// Rows sorted the way `streamd::serve` reports them.
pub fn sorted_bits(scored: &[ScoredLaunch]) -> Vec<(u64, u32, u32, u32, u32, bool, bool)> {
    let mut rows: Vec<_> = scored.iter().map(row_bits).collect();
    rows.sort_unstable_by_key(|r| (r.0, r.1, r.3));
    rows
}
