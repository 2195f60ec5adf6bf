//! The result of one benchmark run and its rendering.
//!
//! Standard output carries, in order: a `context` line (workload, seed, build profile and
//! host fingerprint), a `digest` line (the simulated counts, which must repeat exactly for a
//! seed), `summary` lines (the workload's own rates, such as CS grants or checker states per
//! second, with sample counts and `error_rate`), and — always last — the one-line JSON
//! result: `correct`, `attempted`, `failed` and the metrics with their units.  Failed output
//! checks are listed on standard error.

use crate::catalogue;
use crate::host::{build_profile, json_string, Host};
use std::collections::BTreeMap;

/// Per-layer samples of a traced run, one per pass; each metric reports its median.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one pass's value of a catalogued per-layer metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Records every metric's median.
    pub fn report(self, report: &mut Report) {
        for (name, values) in self.0 {
            report.metric(name, crate::stats::median(&values).unwrap_or(0.0));
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    digest: Vec<(&'static str, u64)>,
    summary: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one attempted operation (a job, or a run-level output check) and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failures.push(message);
        }
    }

    /// Records a catalogued metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalogue::unit_of(name).is_some(),
            "uncatalogued metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a metric only if it was not recorded yet (used to zero unexercised layers).
    pub fn default_metric(&mut self, name: &'static str, value: f64) {
        self.metrics.entry(name).or_insert(value);
    }

    /// Appends one simulated count to the digest.
    pub fn digest(&mut self, name: &'static str, value: u64) {
        self.digest.push((name, value));
    }

    /// Appends one human-readable figure.
    pub fn summary(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.summary.push((name.into(), value, unit));
    }

    /// Prints the run's output and returns the number of failed operations; `expected` is
    /// the catalogue section this mode must report.
    pub fn print(
        mut self,
        workload: &str,
        seed: u64,
        traced: bool,
        host: &Host,
        expected: &[(&'static str, &'static str)],
    ) -> usize {
        println!(
            "context {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"profile\": \"{}\", {}}}",
            json_string(workload),
            u8::from(traced),
            build_profile(),
            host.json_fields()
        );
        let digest: Vec<String> = self
            .digest
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        println!(
            "digest {{\"workload\": {}, \"seed\": {seed}, {}}}",
            json_string(workload),
            digest.join(", ")
        );
        let mut entries = Vec::new();
        for (name, unit) in expected {
            let value = match self.metrics.get(name) {
                Some(value) if value.is_finite() => *value,
                Some(value) => {
                    self.failures
                        .push(format!("metric {name} is not finite ({value})"));
                    0.0
                }
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            entries.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(failed).max(1);
        self.summary("error_rate", failed as f64 / attempted as f64, "ratio");
        for (name, value, unit) in &self.summary {
            println!("summary {name} = {value} {unit}");
        }
        for failure in &self.failures {
            eprintln!("FAILED: {failure}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            entries.join(", ")
        );
        self.failures.len()
    }
}
