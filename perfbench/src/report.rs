//! The run's result: named metrics with units, printed for people first
//! and then as the one-line JSON object that closes standard output.

use crate::stats::{Outcomes, Percentile};
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the figure rests on, e.g. `n=210, 10 beyond`.
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub outcomes: Outcomes,
    /// Violations that fail the run besides wrong bags: nondeterministic
    /// counts, refused percentiles.
    pub problems: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.add_noted(name, value, unit, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, note });
    }

    /// Add a percentile, or record why it cannot be reported.
    pub fn add_percentile(&mut self, name: &str, label: &str, p: Result<Percentile, String>) {
        match p {
            Ok(p) => self.add_noted(
                name,
                p.value,
                "ms",
                format!("{label}, n={}, {} beyond", p.samples, p.beyond),
            ),
            Err(why) => self.problems.push(format!("{name}: {why}")),
        }
    }

    pub fn correct(&self) -> bool {
        self.outcomes.failed() == 0 && self.problems.is_empty()
    }

    /// Human-readable lines: every metric with unit and evidence, then the
    /// failure accounting and anything that failed the run.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
            let _ = writeln!(out, "{:<34} {:>16.4} {}{note}", m.name, m.value, m.unit);
        }
        let o = &self.outcomes;
        let _ = writeln!(
            out,
            "{:<34} {:>16.4} share  ({} failed of {} attempted)",
            "failure_rate",
            o.failure_rate(),
            o.failed(),
            o.attempted
        );
        for line in o.wrong.iter().chain(&o.errors).chain(&self.problems) {
            let _ = writeln!(out, "FAILED {line}");
        }
        out
    }

    /// The closing JSON object. Non-finite values cannot be written as
    /// JSON numbers, so they fail the run instead.
    pub fn json(&mut self) -> String {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not a finite number", m.name))
            .collect();
        self.problems.extend(bad);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            // A run that fails before its first execution (say, the server
            // does not start) still reports one attempt, the failed one.
            self.outcomes.attempted.max(1),
            self.outcomes.failed(),
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;

    #[test]
    fn json_carries_every_metric_and_the_accounting() {
        let mut r = Report::default();
        r.add("setup_s", 1.25, "s");
        r.outcomes.attempted = 3;
        let json = r.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn refused_percentile_and_non_finite_values_fail_the_run() {
        let mut r = Report::default();
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        r.add_percentile("query_ms_tail", "p95", tail(&few, 0.95));
        assert!(r.metrics.is_empty());
        assert!(!r.correct());

        let mut r = Report::default();
        r.add("ratio", f64::NAN, "x");
        assert!(r.json().contains("\"correct\": false"));
    }

    #[test]
    fn wrong_bag_names_the_query() {
        let mut r = Report::default();
        r.outcomes.attempted = 1;
        r.outcomes.wrong.push("tpch/q3: wrong bag".into());
        assert!(r.human().contains("FAILED tpch/q3: wrong bag"));
        assert!(r.json().contains("\"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
