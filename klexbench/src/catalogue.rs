//! The metric catalogue: every name the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the tests below keep the
//! two in step and hold every name and unit to the result-line grammar.

/// The serve-mix job classes, one per preset the clients draw from.
pub const JOB_CLASSES: [&str; 6] = [
    "figure2",
    "figure3-ss",
    "theorem2",
    "churn-campaign",
    "theorem1",
    "checker-safety",
];

/// End-to-end metrics, reported by every untraced run (`--trace 0`) of every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_p1_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`) of every workload.  A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("treenet.daemon_ns", "ns"),
    ("treenet.tick_ns", "ns"),
    ("treenet.deliver_ns", "ns"),
    ("treenet.activations", "count"),
    ("treenet.deliveries", "count"),
    ("treenet.ticks", "count"),
    ("treenet.messages_sent", "count"),
    ("treenet.grants", "count"),
    ("treenet.delivery_share", "ratio"),
    ("treenet.messages_per_grant", "ratio"),
    ("treenet.snapshot_overhead_pct", "%"),
    ("treenet.snapshot_cuts", "count"),
    ("treenet.snapshot_clean_share", "ratio"),
    ("treenet.trace_events", "count"),
    ("analysis.decode_us", "us"),
    ("analysis.compile_s", "s"),
    ("analysis.monitor_s", "s"),
    ("analysis.waiting_scan_ms", "ms"),
    ("analysis.render_us", "us"),
    ("analysis.harness_trials_per_s", "1/s"),
    ("checker.configurations", "count"),
    ("checker.transitions", "count"),
    ("checker.lassos", "count"),
    ("checker.delta_s", "s"),
    ("checker.parallel_s", "s"),
    ("checker.parallel_vs_delta", "ratio"),
    ("checker.liveness_s", "s"),
    ("checker.summary_s", "s"),
    ("checker.arena_bytes", "bytes"),
    ("serve.healthz_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.run_rows_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.run_rows_ms.figure2", "ms"),
    ("serve.run_rows_ms.figure3-ss", "ms"),
    ("serve.run_rows_ms.theorem2", "ms"),
    ("serve.run_rows_ms.churn-campaign", "ms"),
    ("serve.run_rows_ms.theorem1", "ms"),
    ("serve.run_rows_ms.checker-safety", "ms"),
    ("serve.overhead_ms.figure2", "ms"),
    ("serve.overhead_ms.figure3-ss", "ms"),
    ("serve.overhead_ms.theorem2", "ms"),
    ("serve.overhead_ms.churn-campaign", "ms"),
    ("serve.overhead_ms.theorem1", "ms"),
    ("serve.overhead_ms.checker-safety", "ms"),
    ("serve.jobs", "count"),
    ("serve.daemon_rss_mb_per_1k_jobs", "MB"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "ratio"),
    ("trace.clock_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.passes", "count"),
    ("trace.wall_s", "s"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    /// A metric name: starts with a letter or digit, then at most 63 more of letters, digits,
    /// `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let bytes = name.as_bytes();
        !bytes.is_empty()
            && bytes.len() <= 64
            && bytes[0].is_ascii_alphanumeric()
            && bytes
                .iter()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        for good in [
            "setup_s",
            "treenet.daemon_ns",
            "serve.overhead_ms.figure3-ss",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        for class in JOB_CLASSES {
            assert_eq!(unit_of(&format!("serve.overhead_ms.{class}")), Some("ms"));
            assert_eq!(unit_of(&format!("serve.run_rows_ms.{class}")), Some("ms"));
        }
    }

    fn array(value: &Value) -> Option<&Vec<Value>> {
        match value {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(array)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).expect("bound"))
            .collect();
        assert!(
            bounds.iter().all(|&b| b > 0.0 && b <= 0.25),
            "bounds {bounds:?}"
        );
        let setup_bound = bounds[0];
        assert!(
            bounds.iter().all(|&b| b <= setup_bound),
            "setup_s has the largest bound"
        );
    }
}
