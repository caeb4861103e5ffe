//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root must name exactly these metrics;
//! the `manifest` test checks it.

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "req/s"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("net.call_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("queue.admit_us", "us"),
    ("queue.wait_ms", "ms"),
    ("queue.coalesce", "count"),
    ("pool.commit_snapshot_ms", "ms"),
    ("recover.chain_txn_ms", "ms"),
    ("recover.bst_txn_ms", "ms"),
    ("recover.oa_txn_ms", "ms"),
    ("recover.bracket_share", "fraction"),
    ("integrity.resync_ms", "ms"),
    ("integrity.scrub_ms", "ms"),
    ("journal.snapshot_ms", "ms"),
    ("chaining.kernel_us", "us"),
    ("chaining.oracle_ms", "ms"),
    ("chaining.rounds", "count"),
    ("bst.kernel_us", "us"),
    ("bst.oracle_ms", "ms"),
    ("open_addressing.lookup_us", "us"),
    ("open_addressing.kernel_us", "us"),
    ("wal.append_us", "us"),
    ("wal.commit_us", "us"),
    ("wal.appends_per_req", "count"),
    ("checkpoint.full_ms", "ms"),
    ("delta.write_ms", "ms"),
    ("trace.unaccounted_share", "fraction"),
    ("trace.throughput_rps", "req/s"),
    ("trace.untraced_throughput_rps", "req/s"),
    ("trace.overhead_share", "fraction"),
];

/// A metric name: starts with a letter or digit, at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: at most 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its value and unit, in catalogue order.
///
/// # Panics
/// Panics when `values` misses a catalogued metric or names one that is not
/// catalogued, or a value is not finite.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &[(&'static str, f64)],
) -> String {
    for (name, _) in values {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_unit_uses_the_allowed_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("req per s"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let values: Vec<(&'static str, f64)> = END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect();
        let line = render_result(true, 10, 0, END_TO_END, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        // Whole numbers keep a decimal point, so the value stays a float.
        let line = render_result(true, 1, 0, &[("setup_s", "s")], &[("setup_s", 2.0)]);
        assert!(line.contains("\"value\": 2.0"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_refused() {
        render_result(true, 1, 0, END_TO_END, &[("setup_s", 1.0)]);
    }
}
