//! `adapt`: a closed loop running `driftd::adapt::run_adapt` over
//! scaled-topology traces with `no_telemetry` champions and the pinned
//! `AdaptConfig`. Flushes are tiny, so per-call thread fan-out, the
//! sidecar's mirror feature engine, and retrains dominate.

use crate::drive;
use crate::fixture::{self, Fixture, Shape};
use crate::replay::{report_compile, report_pass_layers};
use crate::{report_decide, report_setup, stats, with_serial_threads, Ctx, Res};
use driftd::adapt::{run_adapt, AdaptConfig, AdaptReport};
use obskit::Recorder;
use std::time::{Duration, Instant};
use streamd::serve::{serve, NullSink, ServeConfig};

/// Sub-traces per run, and their shape. Two weeks per trace keep most
/// flushes above one row, where the default thread policy fans out.
const SUB_TRACES: usize = 30;
const SHAPE: Shape = Shape::ScaledNoTelemetry { days: 15 };

/// Sub-traces the traced run's per-layer measurements cover.
const TRACED_SUB_TRACES: usize = 4;

/// What repeated `run_adapt` cycles over a set produced.
struct Cycles {
    /// Pooled decisions per second, each sub-trace at its median time.
    rate: f64,
    /// Sum over sub-traces of their median `run_adapt` time.
    cycle_s: f64,
    /// Per sub-trace: (drift log, scores fingerprint) of the first
    /// cycle.
    fingerprints: Vec<(String, u64)>,
    /// Per sub-trace: the first cycle's report.
    first: Vec<AdaptReport>,
}

/// Runs `run_adapt` over every fixture of `set` in cycles, for at least
/// `min_cycles` cycles and `budget`, checking every output and that
/// every cycle repeats the first.
fn adapt_cycles(
    ctx: &mut Ctx,
    set: &[Fixture],
    expected: &[Vec<(u32, u32)>],
    budget: Duration,
    min_cycles: usize,
) -> Res<Cycles> {
    let start = Instant::now();
    let mut work = vec![0.0; set.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); set.len()];
    let mut first: Vec<AdaptReport> = Vec::new();
    let mut cycles = 0;
    loop {
        for (k, (fx, exp)) in set.iter().zip(expected).enumerate() {
            let cfg = AdaptConfig::window(fx.window.0, fx.window.1);
            let t = Instant::now();
            let r = run_adapt(
                &fx.trace,
                &fx.artifact,
                &cfg,
                &mut NullSink,
                &mut Recorder::null(),
            )?;
            times[k].push(t.elapsed().as_secs_f64());
            work[k] = r.scored.len() as f64;
            ctx.report.ops(r.scored.len() as u64, 0);
            drive::check_scored(&mut ctx.report, fx, exp, &r.scored, false);
            match first.get(k) {
                None => first.push(r),
                Some(f) => {
                    let same = f.drift_log() == r.drift_log() && f.scores_fnv == r.scores_fnv;
                    ctx.report
                        .check(same, || "run_adapt repeated differently".into());
                }
            }
        }
        cycles += 1;
        if cycles >= min_cycles && start.elapsed() >= budget {
            break;
        }
    }
    let promotions: usize = first.iter().map(|r| r.promotions.len()).sum();
    ctx.report.check(promotions > 0, || {
        "no promotion fired: the retrain path was not exercised".into()
    });
    let rate = stats::pooled_rate(&work, &times).ok_or("run_adapt was never timed")?;
    let cycle_s = times.iter().filter_map(|t| stats::median(t)).sum();
    eprintln!(
        "perfbench: {cycles} adapt cycles over {} traces, {rate:.0} decisions/s, {promotions} promotions",
        set.len()
    );
    Ok(Cycles {
        rate,
        cycle_s,
        fingerprints: first
            .iter()
            .map(|r| (r.drift_log(), r.scores_fnv))
            .collect(),
        first,
    })
}

/// Untraced `StepScorer` passes over the same inputs, in cycles: the
/// stage-2 decision latency of the serving core `run_adapt` drives.
fn decide_passes(
    ctx: &mut Ctx,
    set: &[Fixture],
    expected: &[Vec<(u32, u32)>],
    budget: Duration,
    min_cycles: usize,
) -> Res<Vec<Vec<u64>>> {
    let start = Instant::now();
    let mut cycles = Vec::new();
    loop {
        let mut decide = Vec::new();
        for (fx, exp) in set.iter().zip(expected) {
            let p = drive::pass(fx, None, &mut Recorder::null(), None)?;
            drive::check_scored(&mut ctx.report, fx, exp, &p.scored, true);
            decide.extend_from_slice(&p.decide_ns);
        }
        cycles.push(decide);
        if cycles.len() >= min_cycles && start.elapsed() >= budget {
            break;
        }
    }
    Ok(cycles)
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let (set, s) = fixture::build_set(ctx, SHAPE, SUB_TRACES, |_| Ok(0.0))?;
    report_setup(ctx, &s);
    let expected = set
        .iter()
        .map(drive::expected_requests)
        .collect::<Res<Vec<_>>>()?;

    if !ctx.traced {
        let cycles = adapt_cycles(ctx, &set, &expected, ctx.budget(0.7), crate::MIN_CYCLES)?;
        let decide = decide_passes(ctx, &set, &expected, ctx.budget(0.3), crate::MIN_CYCLES)?;
        ctx.report.metric("scored_per_s", cycles.rate, "1/s");
        report_decide(ctx, &decide);
        return Ok(());
    }

    let set = &set[..TRACED_SUB_TRACES.min(set.len())];
    let expected = &expected[..set.len()];
    let untraced = adapt_cycles(ctx, set, expected, ctx.budget(0.2), crate::MIN_CYCLES)?;
    let sum =
        |f: &dyn Fn(&AdaptReport) -> usize| untraced.first.iter().map(f).sum::<usize>() as f64;
    let counts = [
        ("driftd.verdicts", sum(&|r| r.verdicts.len())),
        ("driftd.retrains", sum(&|r| r.retrains.len())),
        ("driftd.promotions", sum(&|r| r.promotions.len())),
        ("driftd.pairs", sum(&|r| r.n_pairs as usize)),
    ];
    for (name, v) in counts {
        ctx.report.metric(name, v, "count");
    }

    // One traced cycle, reading the program's own counters.
    let mut rec = Recorder::new();
    let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
    let from = spans.now();
    let mut traced_scored = 0usize;
    let mut same = true;
    for (fx, fp) in set.iter().zip(&untraced.fingerprints) {
        let cfg = AdaptConfig::window(fx.window.0, fx.window.1);
        let id = spans.open("driftd.adapt");
        let r = run_adapt(&fx.trace, &fx.artifact, &cfg, &mut NullSink, &mut rec)?;
        spans.close(id);
        traced_scored += r.scored.len();
        same &= (r.drift_log(), r.scores_fnv) == *fp;
    }
    let to = spans.now();
    let unattributed = spans.unattributed_share(from, to);
    let traced_rate = traced_scored as f64 / ((to - from) as f64 / 1e9);
    ctx.report.check(same, || {
        "traced run_adapt differs from the untraced runs".into()
    });
    ctx.report
        .metric("trace.overhead", untraced.rate / traced_rate, "ratio");
    ctx.report
        .metric("trace.unattributed_share", unattributed, "ratio");

    // Plain serving of the same traces, artifacts and windows.
    let mut plain = Vec::new();
    for _ in 0..3 {
        let mut cycle = 0.0;
        for fx in set {
            let cfg = ServeConfig::window(fx.window.0, fx.window.1);
            let id = ctx.spans.as_mut().map(|s| s.open("streamd.serve"));
            let t = Instant::now();
            std::hint::black_box(serve(&fx.trace, &fx.artifact, &cfg, &mut NullSink)?);
            cycle += t.elapsed().as_secs_f64();
            if let (Some(s), Some(id)) = (ctx.spans.as_mut(), id) {
                s.close(id);
            }
        }
        plain.push(cycle);
    }
    let plain_s = stats::median(&plain).unwrap_or(0.0);
    ctx.report.metric("driftd.adapt_s", untraced.cycle_s, "s");
    ctx.report.metric("driftd.plain_s", plain_s, "s");
    ctx.report.metric(
        "driftd.adapt_over_plain",
        untraced.cycle_s / plain_s,
        "ratio",
    );

    // Per-call layer timings on the serving core, then its decisions.
    for (fx, exp) in set.iter().zip(expected) {
        let spans = ctx.spans.as_mut().ok_or("traced run without spans")?;
        let p = drive::pass(fx, Some(spans), &mut Recorder::null(), None)?;
        drive::check_scored(&mut ctx.report, fx, exp, &p.scored, true);
    }
    report_pass_layers(ctx, &rec);
    let decide = decide_passes(ctx, set, expected, Duration::ZERO, 1)?;
    report_decide(ctx, &decide);

    // One worker: same scores and drift logs, and its throughput.
    let budget = ctx.budget(0.2);
    let serial =
        with_serial_threads(|| adapt_cycles(ctx, set, expected, budget, crate::MIN_CYCLES))?;
    ctx.report
        .check(serial.fingerprints == untraced.fingerprints, || {
            "SBE_THREADS=1 run_adapt differs from the default-thread runs".into()
        });
    ctx.report
        .metric("parkit.serial_scored_per_s", serial.rate, "1/s");
    ctx.report.metric(
        "parkit.serial_over_auto",
        serial.rate / untraced.rate,
        "ratio",
    );
    report_compile(ctx, &set[0])?;
    Ok(())
}
