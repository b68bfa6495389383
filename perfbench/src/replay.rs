//! `replay-telemetry`: a closed loop replaying dense tiny-topology
//! traces through `StepScorer` with a `FeatureSpec::all()` GBDT, as fast
//! as possible. Each flush queries telemetry for its batch, so the
//! causal-telemetry cost shows here and nowhere else.

use crate::drive;
use crate::fixture::{self, Fixture, Shape};
use crate::{report_decide, report_setup, stats, with_serial_threads, Ctx, Res};
use obskit::Recorder;
use std::time::{Duration, Instant};
use streamd::serve::{serve, NullSink, ServeConfig, StepScorer};
use titan_sim::engine::TelemetryQueryEngine;

/// Sub-traces per run, and their shape.
const SUB_TRACES: usize = 40;
const SHAPE: Shape = Shape::TinyDense { days: 8 };

/// Sub-traces the traced run's per-layer passes cover.
const TRACED_SUB_TRACES: usize = 12;

/// Untraced passes over every fixture of `set`, in cycles, for at
/// least `min_cycles` cycles and `budget`. Returns the pooled decisions
/// per second (each sub-trace at its median pass time) and the decision
/// samples of each cycle.
fn measure(
    ctx: &mut Ctx,
    set: &[Fixture],
    expected: &[Vec<(u32, u32)>],
    budget: Duration,
    min_cycles: usize,
) -> Res<(f64, Vec<Vec<u64>>)> {
    let start = Instant::now();
    let mut work = vec![0.0; set.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut cycles: Vec<Vec<u64>> = Vec::new();
    loop {
        let mut decide = Vec::new();
        for (k, (fx, exp)) in set.iter().zip(expected).enumerate() {
            let p = drive::pass(fx, None, &mut Recorder::null(), None)?;
            ctx.report.ops(p.scored.len() as u64, 0);
            drive::check_scored(&mut ctx.report, fx, exp, &p.scored, true);
            work[k] = p.scored.len() as f64;
            times[k].push(p.wall_ns as f64 / 1e9);
            decide.extend_from_slice(&p.decide_ns);
        }
        cycles.push(decide);
        if cycles.len() >= min_cycles && start.elapsed() >= budget {
            break;
        }
    }
    let rate = stats::pooled_rate(&work, &times).ok_or("no pass was timed")?;
    eprintln!(
        "perfbench: {} cycles over {} traces, {rate:.0} decisions/s",
        cycles.len(),
        set.len()
    );
    Ok((rate, cycles))
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let (set, s) = fixture::build_set(ctx, SHAPE, SUB_TRACES, |fx| {
        let t = Instant::now();
        let cfg = ServeConfig::window(fx.window.0, fx.window.1);
        let topology = fx.trace.config().topology;
        drop(StepScorer::new(
            &fx.artifact,
            &cfg,
            topology,
            Some(&fx.trace),
        )?);
        Ok(t.elapsed().as_secs_f64())
    })?;
    report_setup(ctx, &s);
    let expected = set
        .iter()
        .map(drive::expected_requests)
        .collect::<Res<Vec<_>>>()?;

    if !ctx.traced {
        let budget = ctx.budget(1.0);
        let (rate, decide) = measure(ctx, &set, &expected, budget, crate::MIN_CYCLES)?;
        ctx.report.metric("scored_per_s", rate, "1/s");
        report_decide(ctx, &decide);
        return Ok(());
    }

    // Traced: an untraced reference, a traced pass with telemetry
    // re-queries, the serve parity check, and a one-worker pass, all
    // over the same leading sub-traces.
    let set = &set[..TRACED_SUB_TRACES.min(set.len())];
    let expected = &expected[..set.len()];
    let (untraced, decide) = measure(ctx, set, expected, Duration::ZERO, 1)?;
    report_decide(ctx, &decide);

    let mut rec = Recorder::new();
    let mut traced_scored = 0u64;
    let mut traced_ns = 0u64;
    let (mut requery_ns, mut requery_pairs) = (0u64, 0u64);
    let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
    let from = spans.now();
    let mut passes = Vec::new();
    for fx in set {
        let qe = TelemetryQueryEngine::new(&fx.trace)?;
        let p = drive::pass(fx, Some(&mut *spans), &mut rec, Some(&qe))?;
        traced_scored += p.scored.len() as u64;
        traced_ns += p.wall_ns - p.requery_ns;
        requery_ns += p.requery_ns;
        requery_pairs += p.requery_pairs;
        passes.push(p);
    }
    let unattributed = spans.unattributed_share(from, spans.now());
    for ((fx, exp), p) in set.iter().zip(expected).zip(&passes) {
        ctx.report.ops(p.scored.len() as u64, 0);
        drive::check_scored(&mut ctx.report, fx, exp, &p.scored, true);
        let cfg = ServeConfig::window(fx.window.0, fx.window.1);
        let served = serve(&fx.trace, &fx.artifact, &cfg, &mut NullSink)?;
        let same = drive::sorted_bits(&served.scored) == drive::sorted_bits(&p.scored);
        ctx.report.check(same, || {
            "traced replay output differs from streamd::serve".into()
        });
    }
    report_pass_layers(ctx, &rec);
    let traced_rate = traced_scored as f64 / (traced_ns.max(1) as f64 / 1e9);
    let r = &mut ctx.report;
    r.metric("trace.unattributed_share", unattributed, "ratio");
    r.metric("trace.overhead", untraced / traced_rate, "ratio");
    r.metric("sim.telemetry_query_s", requery_ns as f64 / 1e9, "s");
    r.metric("sim.telemetry_pairs", requery_pairs as f64, "count");
    let flush_s = r.value("streamd.flush_s").unwrap_or(0.0);
    if flush_s > 0.0 {
        r.metric(
            "sim.telemetry_flush_share",
            requery_ns as f64 / 1e9 / flush_s,
            "ratio",
        );
    }

    let (serial, _) = with_serial_threads(|| measure(ctx, set, expected, Duration::ZERO, 1))?;
    ctx.report
        .metric("parkit.serial_scored_per_s", serial, "1/s");
    ctx.report
        .metric("parkit.serial_over_auto", serial / untraced, "ratio");
    report_compile(ctx, &set[0])?;
    Ok(())
}

/// Span name, self-time metric, and call-count metric of each layer a
/// traced `StepScorer` pass records.
const PASS_LAYERS: &[(&str, &str, Option<&str>)] = &[
    ("sim.replay", "sim.replay_s", None),
    ("streamd.tick", "streamd.tick_s", Some("streamd.tick_calls")),
    (
        "streamd.launch",
        "streamd.launch_s",
        Some("streamd.launch_calls"),
    ),
    ("streamd.sbe", "streamd.sbe_s", Some("streamd.sbe_calls")),
    (
        "streamd.flush",
        "streamd.flush_s",
        Some("streamd.flush_calls"),
    ),
];

/// Per-layer metrics of traced `StepScorer` passes: span self times and
/// call counts, plus the program's own counters from `rec`.
pub fn report_pass_layers(ctx: &mut Ctx, rec: &Recorder) {
    let Some(spans) = ctx.spans.as_ref() else {
        return;
    };
    let self_ns = spans.self_ns();
    let rows: Vec<_> = PASS_LAYERS
        .iter()
        .map(|&(span, secs, calls)| {
            let s = self_ns.get(span).copied().unwrap_or(0) as f64 / 1e9;
            (secs, s, calls, spans.total(span).0 as f64)
        })
        .collect();
    for (secs_name, secs, calls_name, calls) in rows {
        ctx.report.metric(secs_name, secs, "s");
        if let Some(c) = calls_name {
            ctx.report.metric(c, calls, "count");
        }
    }
    report_counters(ctx, rec);
}

/// The program's own streamd counters from `rec`.
fn report_counters(ctx: &mut Ctx, rec: &Recorder) {
    let requests = rec.counter("streamd.requests") as f64;
    let stage2 = rec.counter("streamd.stage2_scored") as f64;
    let r = &mut ctx.report;
    r.metric("streamd.requests", requests, "count");
    r.metric(
        "streamd.batches",
        rec.counter("streamd.batches") as f64,
        "count",
    );
    r.metric(
        "streamd.batch_rows_mean",
        rec.histogram("streamd.batch_rows")
            .map_or(0.0, |h| h.mean()),
        "rows",
    );
    r.metric(
        "streamd.stage2_share",
        if requests > 0.0 {
            stage2 / requests
        } else {
            0.0
        },
        "ratio",
    );
}

/// Times `PipelineArtifact::compile` (median of three).
pub fn report_compile(ctx: &mut Ctx, fx: &Fixture) -> Res<()> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(fx.artifact.compile()?);
        times.push(t.elapsed().as_secs_f64());
    }
    ctx.report
        .metric("mlkit.compile_s", stats::median(&times).unwrap_or(0.0), "s");
    Ok(())
}
