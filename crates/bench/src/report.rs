//! The machine-readable benchmark report and the CI regression gate.
//!
//! `repro --json` serializes a [`BenchReport`]; the committed
//! `BENCH_baseline.json` at the repository root is one of these, and the
//! `bench_diff` binary [`compare`]s a fresh report against it in the
//! `bench-gate` CI job.
//!
//! The report is a flat object with an `experiments` array and a
//! `metrics` map, written by hand and read through
//! [`td_telemetry::json`]; the extractor reads only that shape.
//!
//! ## Gating rules
//!
//! * every baseline **experiment** must exist in the current report and
//!   have `"ok": true` — a reproduction row going red is always a
//!   failure, whatever the timings say;
//! * a **metric** whose name starts with `ratio_` is dimensionless
//!   (time/time on the same machine in the same process) and must stay
//!   within ± [`DEFAULT_THRESHOLD`] of the baseline value — ratios
//!   transfer across machines, which is what lets a baseline recorded in
//!   one container gate runs on another;
//! * any other metric (`time_*`, counts) is informational: recorded for
//!   trend archaeology in the workflow artifacts, never gated.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use td_telemetry::json::{quote, Json};

/// Relative tolerance for gated `ratio_*` metrics (±30%).
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// A machine-readable benchmark/reproduction report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// `(experiment id, matched-the-paper)` rows, in run order.
    pub experiments: Vec<(String, bool)>,
    /// Named scalar metrics. `ratio_*` names are gated in CI.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Serializes to the canonical JSON shape (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiments\": [\n");
        for (i, (id, ok)) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{\"id\": {}, \"ok\": {ok}}}{comma}", quote(id));
        }
        out.push_str("  ],\n  \"metrics\": {\n");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "    {}: {value}{comma}", quote(name));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a report previously produced by [`BenchReport::to_json`].
    pub fn parse(src: &str) -> Result<BenchReport, String> {
        let value = Json::parse(src)?;
        let mut report = BenchReport::default();
        let top = value.as_obj().ok_or("top level is not an object")?;
        if let Some(experiments) = top.get("experiments") {
            for row in experiments
                .as_arr()
                .ok_or("`experiments` is not an array")?
            {
                let row = row.as_obj().ok_or("experiment row is not an object")?;
                let id = row
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("experiment row without string `id`")?;
                let ok = row
                    .get("ok")
                    .and_then(Json::as_bool)
                    .ok_or("experiment row without boolean `ok`")?;
                report.experiments.push((id.to_string(), ok));
            }
        }
        if let Some(metrics) = top.get("metrics") {
            for (name, value) in metrics.as_obj().ok_or("`metrics` is not an object")? {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("metric `{name}` is not a number"))?;
                report.metrics.insert(name.clone(), value);
            }
        }
        Ok(report)
    }

    /// True if the metric participates in the CI gate.
    pub fn is_gated(name: &str) -> bool {
        name.starts_with("ratio_")
    }
}

/// Compares `current` against `baseline` under the gating rules; returns
/// the list of human-readable failures (empty = gate passes).
pub fn compare(baseline: &BenchReport, current: &BenchReport, threshold: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let current_experiments: BTreeMap<&str, bool> = current
        .experiments
        .iter()
        .map(|(id, ok)| (id.as_str(), *ok))
        .collect();
    for (id, _) in &baseline.experiments {
        match current_experiments.get(id.as_str()) {
            None => failures.push(format!("experiment `{id}` missing from current report")),
            Some(false) => failures.push(format!("experiment `{id}` no longer matches the paper")),
            Some(true) => {}
        }
    }
    for (name, &base) in baseline
        .metrics
        .iter()
        .filter(|(n, _)| BenchReport::is_gated(n))
    {
        match current.metrics.get(name) {
            None => failures.push(format!("gated metric `{name}` missing from current report")),
            Some(&cur) => {
                // Relative to the baseline magnitude; a zero baseline
                // gates on absolute drift instead.
                let scale = base.abs().max(1e-12);
                let drift = (cur - base).abs() / scale;
                if !drift.is_finite() || drift > threshold {
                    failures.push(format!(
                        "metric `{name}` drifted {:+.1}% (baseline {base:.4}, current {cur:.4}, \
                         allowed ±{:.0}%)",
                        (cur - base) / scale * 100.0,
                        threshold * 100.0
                    ));
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            experiments: vec![("FIG1 schema".into(), true), ("EX1".into(), true)],
            metrics: [
                ("ratio_scale_a".to_string(), 30.0),
                ("time_repro_s".to_string(), 0.8),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn json_roundtrips() {
        let report = sample();
        let parsed = BenchReport::parse(&report.to_json()).unwrap();
        assert_eq!(report, parsed);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(BenchReport::parse("{} trailing").is_err());
        assert!(BenchReport::parse(r#"{"metrics": {"x": "nan"}}"#).is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = sample();
        assert!(compare(&report, &report, DEFAULT_THRESHOLD).is_empty());
    }

    #[test]
    fn drift_and_regressions_fail_the_gate() {
        let baseline = sample();
        let mut current = sample();
        // 50% drift on a gated ratio fails…
        current.metrics.insert("ratio_scale_a".into(), 45.0);
        let failures = compare(&baseline, &current, DEFAULT_THRESHOLD);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ratio_scale_a"));
        // …but the same drift on an informational metric does not.
        let mut current = sample();
        current.metrics.insert("time_repro_s".into(), 100.0);
        assert!(compare(&baseline, &current, DEFAULT_THRESHOLD).is_empty());
        // 20% drift is inside the default ±30% envelope.
        let mut current = sample();
        current.metrics.insert("ratio_scale_a".into(), 36.0);
        assert!(compare(&baseline, &current, DEFAULT_THRESHOLD).is_empty());
        // A red experiment or a vanished one fails.
        let mut current = sample();
        current.experiments[1].1 = false;
        assert_eq!(compare(&baseline, &current, DEFAULT_THRESHOLD).len(), 1);
        let mut current = sample();
        current.experiments.pop();
        assert_eq!(compare(&baseline, &current, DEFAULT_THRESHOLD).len(), 1);
        // A missing gated metric fails.
        let mut current = sample();
        current.metrics.remove("ratio_scale_a");
        assert_eq!(compare(&baseline, &current, DEFAULT_THRESHOLD).len(), 1);
    }
}
