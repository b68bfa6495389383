//! The repository benchmark: one named workload per invocation.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-telemetry|net-open|adapt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are generated from `--seed`; the system is
//! called only through its public entry points with their default
//! configs. Every run checks the system's outputs, then prints as its
//! last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its
//! spans to `.bench_out/<workload>.spans.json`. See `README.md`.

mod adapt;
mod drive;
mod fixture;
mod net;
mod openloop;
mod replay;
mod report;
mod spans;
mod stats;

use fixture::SetupTimes;
use report::Report;
use spans::Spans;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("scored_per_s", "1/s"),
    ("decide_p50_ms", "ms"),
    ("decide_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics: printed by every traced run. A metric of a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.generate_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.telemetry_query_s", "s"),
    ("sim.telemetry_pairs", "count"),
    ("sim.telemetry_flush_share", "ratio"),
    ("features.prepare_s", "s"),
    ("mlkit.fit_s", "s"),
    ("mlkit.compile_s", "s"),
    ("streamd.tick_s", "s"),
    ("streamd.tick_calls", "count"),
    ("streamd.launch_s", "s"),
    ("streamd.launch_calls", "count"),
    ("streamd.sbe_s", "s"),
    ("streamd.sbe_calls", "count"),
    ("streamd.flush_s", "s"),
    ("streamd.flush_calls", "count"),
    ("streamd.requests", "count"),
    ("streamd.batches", "count"),
    ("streamd.batch_rows_mean", "rows"),
    ("streamd.stage2_share", "ratio"),
    ("parkit.serial_scored_per_s", "1/s"),
    ("parkit.serial_over_auto", "ratio"),
    ("sbed.spawn_s", "s"),
    ("sbed.encode_s", "s"),
    ("sbed.decode_s", "s"),
    ("sbed.session_s", "s"),
    ("sbed.transport_s", "s"),
    ("sbed.ack_p50_ms", "ms"),
    ("sbed.ack_p99_ms", "ms"),
    ("sbed.send_lag_p99_ms", "ms"),
    ("sbed.overloads", "count"),
    ("sbed.rejected", "count"),
    ("driftd.adapt_s", "s"),
    ("driftd.plain_s", "s"),
    ("driftd.adapt_over_plain", "ratio"),
    ("driftd.verdicts", "count"),
    ("driftd.retrains", "count"),
    ("driftd.promotions", "count"),
    ("driftd.pairs", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("decide.p99_ms", "ms"),
    ("decide.samples", "count"),
];

/// Measurement cycles per run at least: per-item times are reported at
/// their median over cycles.
pub const MIN_CYCLES: usize = 3;

/// Decision samples per latency group for p50 and p95: p95 has ten
/// samples beyond it.
pub const GROUP_SAMPLES: usize = 200;

/// Decision samples per latency group for p99: ten samples beyond it.
pub const P99_GROUP_SAMPLES: usize = 1_000;

/// One invocation's arguments and accumulated results.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub report: Report,
    pub spans: Option<Spans>,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Medians over a run's set-ups (one per sub-trace).
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub setup_s: f64,
    pub times: SetupTimes,
    /// Median of the workload-specific last step (scorer build or
    /// daemon spawn).
    pub last_step_s: f64,
}

/// Records the set-up metrics shared by every workload.
pub fn report_setup(ctx: &mut Ctx, s: &Setup) {
    let r = &mut ctx.report;
    r.metric("setup_s", s.setup_s, "s");
    r.metric("sim.generate_s", s.times.generate_s, "s");
    r.metric("features.prepare_s", s.times.prepare_s, "s");
    r.metric("mlkit.fit_s", s.times.fit_s, "s");
}

/// Records the decision-latency metrics from nanosecond samples in the
/// order measured. The samples are split into consecutive groups and
/// each figure is the median over groups of the group's percentile, so
/// a burst of outside interference (a stalled virtual CPU) moves a few
/// groups and not the result:
///
/// - `decide_p50_ms` and `decide_p95_ms` over groups of
///   [`GROUP_SAMPLES`] (p95 is the highest percentile with ten samples
///   beyond it in such a group);
/// - `decide.p99_ms` over groups of [`P99_GROUP_SAMPLES`].
///
/// Fewer than [`GROUP_SAMPLES`] samples fail the run's checks.
pub fn report_decide(ctx: &mut Ctx, runs: &[Vec<u64>]) {
    let ms = |size: usize| -> Vec<Vec<f64>> {
        stats::group_samples(runs, size)
            .iter()
            .map(|g| g.iter().map(|&ns| ns as f64 / 1e6).collect())
            .collect()
    };
    let n: usize = runs.iter().map(Vec::len).sum();
    let groups = ms(GROUP_SAMPLES);
    let t = stats::median_tail(&groups, 95.0);
    ctx.report.check(t.is_some(), || {
        format!("{n} decision samples cannot support p95 in groups of {GROUP_SAMPLES}")
    });
    if let Some(t) = t {
        ctx.report.metric("decide_p50_ms", t.p50, "ms");
        ctx.report.metric("decide_p95_ms", t.tail, "ms");
        eprintln!(
            "perfbench: decide {n} samples in {} groups, p50 {:.4} ms, p95 {:.4} ms",
            groups.len(),
            t.p50,
            t.tail
        );
    }
    if let Some(t) = stats::median_tail(&ms(P99_GROUP_SAMPLES), 99.0) {
        ctx.report.metric("decide.p99_ms", t.tail, "ms");
    }
    ctx.report.metric("decide.samples", n as f64, "count");
}

/// Runs `f` with the default thread policy pinned to one worker
/// (`SBE_THREADS=1`), restoring the previous setting afterwards. Call
/// only while no other thread of this process is running.
pub fn with_serial_threads<T>(f: impl FnOnce() -> T) -> T {
    let previous = std::env::var_os("SBE_THREADS");
    std::env::set_var("SBE_THREADS", "1");
    let out = f();
    match previous {
        Some(v) => std::env::set_var("SBE_THREADS", v),
        None => std::env::remove_var("SBE_THREADS"),
    }
    out
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}").into()),
                })
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}").into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn run() -> Res<String> {
    let args = parse_args()?;
    let origin = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        report: Report::default(),
        spans: args.traced.then(|| Spans::new(origin)),
    };
    match args.workload.as_str() {
        "replay-telemetry" => replay::run(&mut ctx)?,
        "net-open" => net::run(&mut ctx)?,
        "adapt" => adapt::run(&mut ctx)?,
        other => {
            return Err(
                format!("unknown workload {other} (replay-telemetry|net-open|adapt)").into(),
            )
        }
    }
    let rss = peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    ctx.report.metric("peak_rss_mb", rss, "MB");
    let ok = ctx.report.ok_frac();
    ctx.report.metric("ok_frac", ok, "ratio");

    if let Some(spans) = &ctx.spans {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.spans.json", args.workload));
        std::fs::write(&path, spans.to_json(&args.workload, args.seed))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.spans().len(),
            path.display()
        );
        for (name, ns) in spans.self_ns() {
            eprintln!("perfbench: self {name:<28} {:>10.4} s", ns as f64 / 1e9);
        }
    }

    let wanted = if args.traced { PER_LAYER } else { END_TO_END };
    if args.traced {
        // Layers the workload does not exercise read 0.
        for &(name, unit) in PER_LAYER {
            if ctx.report.value(name).is_none() {
                ctx.report.metric(name, 0.0, unit);
            }
        }
    }
    let missing = ctx.report.select(wanted);
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {missing:?}").into());
    }
    ctx.report
        .to_json()
        .ok_or_else(|| "a metric cannot be printed (bad name, unit or value)".into())
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            std::process::exit(1);
        }
    }
}
