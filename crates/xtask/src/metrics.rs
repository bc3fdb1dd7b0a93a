//! `xtask validate-metrics`: shape validation for emitted metrics files,
//! plus the optional `--catalog` cross-check against the metric table in
//! docs/OBSERVABILITY.md.
//!
//! Failure classes map to distinct process exit codes so CI logs (and the
//! error-path tests) can tell them apart without parsing messages:
//! unreadable/malformed JSON → 3, wrong document shape → 4, a metric
//! emitted but not declared in the catalog → 5.

use serde::Value;
use std::collections::BTreeSet;
use std::path::Path;

/// A validate-metrics failure, classified by exit code.
#[derive(Debug)]
pub enum MetricsError {
    /// The file cannot be read or is not valid JSON (exit 3).
    Parse(String),
    /// The JSON parses but does not have the documented shape (exit 4).
    Shape(String),
    /// A metric is emitted but missing from the catalog (exit 5).
    Undeclared {
        /// The emitted-but-undeclared metric name.
        metric: String,
    },
}

impl MetricsError {
    /// The process exit code this failure class maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            MetricsError::Parse(_) => 3,
            MetricsError::Shape(_) => 4,
            MetricsError::Undeclared { .. } => 5,
        }
    }
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::Parse(msg) => write!(f, "{msg}"),
            MetricsError::Shape(msg) => write!(f, "{msg}"),
            MetricsError::Undeclared { metric } => write!(
                f,
                "metric `{metric}` is emitted but not declared in the catalog (docs/OBSERVABILITY.md)"
            ),
        }
    }
}

/// Parses the metric catalog out of a markdown file: every table row
/// whose first cell is backticked (`` | `name` | kind | … ``) declares
/// one metric name. Returns [`MetricsError::Parse`] when the file is
/// unreadable and [`MetricsError::Shape`] when no names are found (an
/// empty catalog would silently approve everything).
pub fn load_catalog(path: &Path) -> Result<BTreeSet<String>, MetricsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| MetricsError::Parse(format!("read catalog: {e}")))?;
    let names = parse_catalog(&text);
    if names.is_empty() {
        return Err(MetricsError::Shape(format!(
            "catalog {} declares no metrics (no `| \\`name\\` |` table rows)",
            path.display()
        )));
    }
    Ok(names)
}

fn parse_catalog(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix('|') else {
            continue;
        };
        let cell = rest.trim_start();
        let Some(after_tick) = cell.strip_prefix('`') else {
            continue;
        };
        if let Some(end) = after_tick.find('`') {
            let name = &after_tick[..end];
            if !name.is_empty() {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Validates one emitted metrics file — a single registry snapshot
/// (`results/metrics/<run>.json`). With a catalog, every metric must be
/// declared in it. A document carrying a `schema` key is some other
/// format and is rejected as [`MetricsError::Shape`], never skipped.
/// Returns the number of metrics checked.
pub fn validate_metrics_file(
    path: &Path,
    catalog: Option<&BTreeSet<String>>,
) -> Result<usize, MetricsError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| MetricsError::Parse(format!("read: {e}")))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| MetricsError::Parse(format!("parse: {e}")))?;
    let Value::Object(fields) = &doc else {
        return Err(MetricsError::Shape(format!(
            "expected a JSON object, got {}",
            doc.kind()
        )));
    };
    if fields.iter().any(|(k, _)| k == "schema") {
        return Err(MetricsError::Shape(
            "a `schema` key marks a non-snapshot document; only registry snapshots are validated"
                .into(),
        ));
    }
    validate_snapshot(&doc, catalog)
}

/// Checks the documented snapshot shape (and catalog membership when a
/// catalog is supplied); returns the metric count.
fn validate_snapshot(
    snapshot: &Value,
    catalog: Option<&BTreeSet<String>>,
) -> Result<usize, MetricsError> {
    let shape = |msg: String| MetricsError::Shape(msg);
    let name = snapshot
        .get_field("name")
        .map_err(|e| shape(e.to_string()))?;
    if !matches!(name, Value::Str(_)) {
        return Err(shape(format!(
            "`name` must be a string, got {}",
            name.kind()
        )));
    }
    let mut metrics = 0usize;
    for (section, check) in [
        ("counters", is_u64 as fn(&Value) -> bool),
        ("gauges", is_number_or_null),
        ("histograms", is_histogram),
    ] {
        let Value::Object(entries) = snapshot
            .get_field(section)
            .map_err(|e| shape(e.to_string()))?
        else {
            return Err(shape(format!("`{section}` must be an object")));
        };
        for (metric, value) in entries {
            if !check(value) {
                return Err(shape(format!("`{section}.{metric}` has the wrong shape")));
            }
            if let Some(declared) = catalog {
                if !declared.contains(metric) && !declared_as_tenant_template(metric, declared) {
                    return Err(MetricsError::Undeclared {
                        metric: metric.clone(),
                    });
                }
            }
            metrics += 1;
        }
    }
    Ok(metrics)
}

/// Per-tenant metrics are a *template* family: the engine mints one
/// `serve.tenant.<label>.<suffix>` slice per configured tenant, so the
/// catalog cannot enumerate concrete labels. A name that parses under
/// the template grammar is declared iff the catalog carries the literal
/// `serve.tenant.<label>.<suffix>` template row for its suffix.
fn declared_as_tenant_template(metric: &str, declared: &BTreeSet<String>) -> bool {
    sisg_obs::names::split_tenant_metric(metric)
        .is_some_and(|(_, suffix)| declared.contains(&format!("serve.tenant.<label>.{suffix}")))
}

fn is_u64(v: &Value) -> bool {
    matches!(v, Value::U64(_))
}

fn is_number_or_null(v: &Value) -> bool {
    matches!(
        v,
        Value::U64(_) | Value::I64(_) | Value::F64(_) | Value::Null
    )
}

/// A histogram entry: count/sum/max totals plus p50/p90/p99 quantiles
/// (null when the histogram is empty).
fn is_histogram(v: &Value) -> bool {
    let Value::Object(fields) = v else {
        return false;
    };
    ["count", "sum", "max"]
        .iter()
        .all(|k| fields.iter().any(|(n, fv)| n == k && is_u64(fv)))
        && ["p50", "p90", "p99"]
            .iter()
            .all(|k| fields.iter().any(|(n, fv)| n == k && is_number_or_null(fv)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(text: &str) -> Value {
        serde_json::from_str(text).expect("parse")
    }

    #[test]
    fn validate_snapshot_accepts_the_documented_shape() {
        let good = snapshot(
            r#"{
              "name": "run",
              "counters": {"sgns.pairs_total": 12},
              "gauges": {"sgns.lr": 0.01, "bad_day": null},
              "histograms": {
                "sgns.train.us": {"count": 1, "sum": 9, "max": 9,
                                  "p50": 9.0, "p90": 9.0, "p99": null}
              }
            }"#,
        );
        assert_eq!(validate_snapshot(&good, None).expect("valid"), 4);
    }

    #[test]
    fn validate_snapshot_rejects_malformed_sections() {
        for bad in [
            r#"{"name": 3, "counters": {}, "gauges": {}, "histograms": {}}"#,
            r#"{"name": "r", "gauges": {}, "histograms": {}}"#,
            r#"{"name": "r", "counters": {"c": -1}, "gauges": {}, "histograms": {}}"#,
            r#"{"name": "r", "counters": {}, "gauges": {"g": "x"}, "histograms": {}}"#,
            r#"{"name": "r", "counters": {}, "gauges": {}, "histograms": {"h": {"count": 1}}}"#,
        ] {
            let doc = snapshot(bad);
            let err = validate_snapshot(&doc, None).expect_err("accepted");
            assert!(matches!(err, MetricsError::Shape(_)), "wrong class: {bad}");
        }
    }

    #[test]
    fn catalog_check_flags_undeclared_metrics_with_exit_5() {
        let doc = snapshot(
            r#"{"name": "r", "counters": {"made.up_total": 1}, "gauges": {}, "histograms": {}}"#,
        );
        let declared: BTreeSet<String> = ["sgns.pairs_total".to_string()].into_iter().collect();
        let err = validate_snapshot(&doc, Some(&declared)).expect_err("accepted");
        assert!(matches!(&err, MetricsError::Undeclared { metric } if metric == "made.up_total"));
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn catalog_check_passes_declared_metrics() {
        let doc = snapshot(
            r#"{"name": "r", "counters": {"sgns.pairs_total": 1}, "gauges": {}, "histograms": {}}"#,
        );
        let declared: BTreeSet<String> = ["sgns.pairs_total".to_string()].into_iter().collect();
        assert_eq!(validate_snapshot(&doc, Some(&declared)).expect("valid"), 1);
    }

    #[test]
    fn tenant_template_rows_declare_every_label_instantiation() {
        let declared: BTreeSet<String> = [
            "serve.tenant.<label>.requests_total".to_string(),
            "serve.tenant.<label>.request.ns".to_string(),
        ]
        .into_iter()
        .collect();
        // Any well-formed label instantiates a declared template row.
        let doc = snapshot(
            r#"{"name": "r",
                "counters": {"serve.tenant.head_heavy.requests_total": 3},
                "gauges": {},
                "histograms": {"serve.tenant.head_heavy.request.ns":
                  {"count": 1, "sum": 9, "max": 9, "p50": 9.0, "p90": 9.0, "p99": 9.0}}}"#,
        );
        assert_eq!(validate_snapshot(&doc, Some(&declared)).expect("valid"), 2);
        // A suffix outside the template family is still undeclared…
        let bad_suffix = snapshot(
            r#"{"name": "r", "counters": {"serve.tenant.head_heavy.invented_total": 1},
                "gauges": {}, "histograms": {}}"#,
        );
        assert!(matches!(
            validate_snapshot(&bad_suffix, Some(&declared)).expect_err("accepted"),
            MetricsError::Undeclared { .. }
        ));
        // …as is a declared suffix whose template row is absent from the
        // catalog, or a malformed label.
        let only_requests: BTreeSet<String> =
            ["serve.tenant.<label>.requests_total".to_string()].into();
        let shed = snapshot(
            r#"{"name": "r", "counters": {"serve.tenant.head_heavy.shed_total": 1},
                "gauges": {}, "histograms": {}}"#,
        );
        assert!(validate_snapshot(&shed, Some(&only_requests)).is_err());
        let bad_label = snapshot(
            r#"{"name": "r", "counters": {"serve.tenant.Bad-Label.requests_total": 1},
                "gauges": {}, "histograms": {}}"#,
        );
        assert!(validate_snapshot(&bad_label, Some(&declared)).is_err());
    }

    #[test]
    fn parse_catalog_reads_backticked_table_cells() {
        let md = "\
# Catalog\n\
| Metric | Kind | Meaning |\n\
|---|---|---|\n\
| `a.total` | counter | Things. |\n\
| `b.us` | histogram | Latency. |\n\
prose mentioning `not.a.row` stays out\n";
        let names = parse_catalog(md);
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            vec!["a.total".to_string(), "b.us".to_string()]
        );
    }

    #[test]
    fn the_real_catalog_declares_every_obs_name() {
        // The shipped docs/OBSERVABILITY.md must cover the compiled-in
        // metric name registry, or the CI catalog check would reject a
        // fresh snapshot.
        let root = crate::workspace_root();
        let declared = load_catalog(&root.join("docs/OBSERVABILITY.md")).expect("catalog");
        for name in sisg_obs::names::ALL {
            assert!(declared.contains(*name), "`{name}` missing from catalog");
        }
        // The per-tenant template family must be declared suffix by
        // suffix, or a tenanted engine's snapshot would fail the CI
        // catalog check.
        for suffix in sisg_obs::names::SERVE_TENANT_SUFFIXES {
            let row = format!("serve.tenant.<label>.{suffix}");
            assert!(declared.contains(&row), "`{row}` missing from catalog");
        }
    }

    #[test]
    fn error_classes_map_to_distinct_exit_codes() {
        assert_eq!(MetricsError::Parse(String::new()).exit_code(), 3);
        assert_eq!(MetricsError::Shape(String::new()).exit_code(), 4);
        assert_eq!(
            MetricsError::Undeclared {
                metric: String::new()
            }
            .exit_code(),
            5
        );
    }
}
