//! Workload inputs: a simulated trace and a shipped champion artifact,
//! built from the workload seed through the public entry points.

use crate::spans::Spans;
use crate::stats::median;
use crate::{Ctx, Res, Setup};
use mlkit::gbdt::Gbdt;
use mlkit::model::Classifier;
use sbepred::datasets::DsSplit;
use sbepred::features::{FeatureExtractor, FeatureSpec};
use sbepred::samples::build_samples;
use sbepred::twostage::prepare_with_extractor;
use sbepred::PredError;
use std::time::Instant;
use streamd::artifact::{PipelineArtifact, PipelineModel};
use titan_sim::config::SimConfig;
use titan_sim::trace::TraceSet;

/// The champion's model seed (the `repro train` default). The workload
/// seed varies the trace; the fit stays reproducible per trace.
const MODEL_SEED: u64 = 7;

/// Topology, length and feature set of one workload's sub-traces.
///
/// A run pools many short traces from derived seeds: one trace's cost
/// depends strongly on its seed (how many nodes turn into offenders,
/// how much drift fires), and pooling independent traces keeps a run's
/// figures comparable across seeds.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// 64-node topology, `jobs_per_day` = 120, all features.
    TinyDense { days: u32 },
    /// 1,600-node scaled topology, no telemetry features.
    ScaledNoTelemetry { days: u32 },
}

impl Shape {
    fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Shape::TinyDense { days } => {
                let mut cfg = SimConfig::tiny(seed);
                cfg.workload.jobs_per_day = 120.0;
                cfg.days = days;
                cfg
            }
            Shape::ScaledNoTelemetry { days } => {
                let mut cfg = SimConfig::scaled(seed);
                cfg.days = days;
                cfg
            }
        }
    }

    fn spec(self) -> FeatureSpec {
        match self {
            Shape::TinyDense { .. } => FeatureSpec::all(),
            Shape::ScaledNoTelemetry { .. } => FeatureSpec::no_telemetry(),
        }
    }
}

/// A workload's inputs.
pub struct Fixture {
    pub trace: TraceSet,
    pub artifact: PipelineArtifact,
    /// The scoring window: from the champion's training cut to the end
    /// of the trace.
    pub window: (u64, u64),
}

/// Where one set-up spent its time, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub prepare_s: f64,
    pub fit_s: f64,
}

/// Generates the trace, prepares DS1 features, and fits the champion
/// GBDT with the `repro train` hyper-parameters (120 trees, depth 5).
/// `None` when the trace has no offender node to train stage 2 on.
fn build(
    shape: Shape,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Res<Option<(Fixture, SetupTimes)>> {
    let cfg = shape.sim_config(seed);
    let (trace, generate_s) = stage(&mut spans, "sim.generate", || {
        Ok(titan_sim::engine::generate(&cfg)?)
    })?;

    let spec = shape.spec();
    let (prepared, prepare_s) = stage(&mut spans, "features.prepare", || {
        let samples = build_samples(&trace)?;
        let fx = FeatureExtractor::new(&trace, &samples)?;
        let split = DsSplit::ds1(&trace)?;
        let prepared = match prepare_with_extractor(&fx, &samples, &split, &spec) {
            Ok(p) => p,
            // A typed refusal of unusable data: no champion can be
            // trained on this trace, so it is not a workload input.
            Err(PredError::InvalidInput { .. }) => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let offenders: Vec<u32> = fx
            .history()
            .offender_nodes_before(split.train_end_min())
            .into_iter()
            .map(|n| n.0)
            .collect();
        Ok(Some((split, prepared, offenders)))
    })?;
    let Some((split, prepared, offenders)) = prepared else {
        return Ok(None);
    };

    let (model, fit_s) = stage(&mut spans, "mlkit.fit", || {
        let mut model = Gbdt::new()
            .n_trees(120)
            .max_depth(5)
            .learning_rate(0.1)
            .min_samples_leaf(20)
            .subsample(0.8)
            .pos_weight(2.0)
            .seed(MODEL_SEED);
        model.fit(&prepared.train)?;
        Ok(model)
    })?;

    let artifact = PipelineArtifact::new(
        spec,
        offenders,
        prepared.scaler.clone(),
        PipelineModel::Gbdt(model),
        split.train_end_min(),
        split.name(),
    );
    let window = (split.train_end_min(), cfg.total_minutes());
    let times = SetupTimes {
        generate_s,
        prepare_s,
        fit_s,
    };
    Ok(Some((
        Fixture {
            trace,
            artifact,
            window,
        },
        times,
    )))
}

/// Builds `count` sub-fixtures from seeds derived from `seed`, skipping
/// traces with nothing to train on. `finish` runs the workload's last
/// set-up step on each (building the scorer or spawning the daemon) and
/// returns the time that step took, so it can tear down untimed. Each
/// sub-fixture's set-up is timed on its own; the returned medians
/// describe one set-up.
pub fn build_set(
    ctx: &mut Ctx,
    shape: Shape,
    count: usize,
    mut finish: impl FnMut(&Fixture) -> Res<f64>,
) -> Res<(Vec<Fixture>, Setup)> {
    let mut set = Vec::with_capacity(count);
    let mut totals = Vec::new();
    let mut parts: Vec<(SetupTimes, f64)> = Vec::new();
    let first = ctx
        .seed
        .checked_mul(1_000)
        .ok_or("--seed must be below 2^64 / 1000")?;
    for sub in (first..first + 1_000).take(count * 4) {
        if set.len() == count {
            break;
        }
        let span = ctx.spans.as_mut().map(|s| s.open("setup"));
        let t = Instant::now();
        let built = build(shape, sub, ctx.spans.as_mut())?;
        let Some((fx, times)) = built else {
            eprintln!("perfbench: sub-seed {sub} has no offender to train on; skipped");
            if let (Some(s), Some(id)) = (ctx.spans.as_mut(), span) {
                s.close(id);
            }
            continue;
        };
        let built_s = t.elapsed().as_secs_f64();
        let last = finish(&fx)?;
        totals.push(built_s + last);
        if let (Some(s), Some(id)) = (ctx.spans.as_mut(), span) {
            s.close(id);
        }
        parts.push((times, last));
        set.push(fx);
    }
    if set.len() < count {
        return Err(format!(
            "only {} of {count} sub-traces could train a champion",
            set.len()
        )
        .into());
    }
    let med = |f: &dyn Fn(&(SetupTimes, f64)) -> f64| {
        median(&parts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let setup = Setup {
        setup_s: median(&totals).unwrap_or(0.0),
        times: SetupTimes {
            generate_s: med(&|p| p.0.generate_s),
            prepare_s: med(&|p| p.0.prepare_s),
            fit_s: med(&|p| p.0.fit_s),
        },
        last_step_s: med(&|p| p.1),
    };
    eprintln!(
        "perfbench: {count} sub-traces, set-up median {:.3} s (min {:.3}, max {:.3})",
        setup.setup_s,
        totals.iter().copied().fold(f64::INFINITY, f64::min),
        totals.iter().copied().fold(0.0, f64::max),
    );
    Ok((set, setup))
}

/// Runs `f` inside a span named `name` (when tracing) and returns its
/// result with its wall time in seconds.
fn stage<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    f: impl FnOnce() -> Res<T>,
) -> Res<(T, f64)> {
    let id = spans.as_deref_mut().map(|s| s.open(name));
    let t = Instant::now();
    let out = f()?;
    let secs = t.elapsed().as_secs_f64();
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.close(id);
    }
    Ok((out, secs))
}
