//! Metric collection and the one-line JSON result.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: at most 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The run's verdict and metrics.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted (events, frames, runs, output checks).
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    /// Descriptions of failed output checks.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Records one metric. A later value under the same name replaces
    /// the earlier one.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, value, unit));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Counts one output check, recording `what` when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// Keeps only the metrics named in `names`, in that order; names
    /// without a recorded value are returned as missing.
    pub fn select(&mut self, names: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        let mut kept = Vec::new();
        let mut missing = Vec::new();
        for &(name, _) in names {
            match self.metrics.iter().find(|(n, _, _)| *n == name) {
                Some(m) => kept.push(*m),
                None => missing.push(name),
            }
        }
        self.metrics = kept;
        missing
    }

    /// The result line. `None` when a metric name, unit or value cannot
    /// be printed as valid JSON under the benchmark's naming rules.
    pub fn to_json(&self) -> Option<String> {
        let correct = self.check_failures.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !valid_name(name) || !valid_unit(unit) || !value.is_finite() {
                return None;
            }
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        out.push_str("}}");
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "sbed.ack_p99_ms",
            "trace.overhead",
            "a-b_c.d",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "ünï",
            "p99%",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("ms"));
        assert!(!valid_unit("per second") && !valid_unit(""));
    }

    #[test]
    fn every_declared_metric_name_is_valid() {
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_the_open_loop_rate() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, crate::END_TO_END.len() + crate::PER_LAYER.len());
        let rate = format!("{} frames/s", crate::net::OPEN_LOOP_FPS);
        assert!(json.contains(&rate), "net-open's why must state {rate}");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.ops(10, 1);
        r.metric("setup_s", 0.25, "s");
        r.metric("setup_s", 0.5, "s");
        let line = r.to_json().expect("printable");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!((r.ok_frac() - 0.9).abs() < 1e-12);
        r.metric("bad name", 1.0, "s");
        assert!(r.to_json().is_none());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "scores differ".into());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r
            .to_json()
            .expect("printable")
            .starts_with("{\"correct\": false"));
    }
}
