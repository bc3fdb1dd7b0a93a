//! Point-in-time registry exports and their JSON serialization.
//!
//! The writer is hand-rolled (no serde dependency, keeping `obs` at the
//! bottom of the crate graph); the output is plain JSON that the vendored
//! `serde_json` parser — and any real JSON tool — can read back. The schema
//! is documented in `docs/OBSERVABILITY.md`.

use std::io;
use std::path::Path;

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (exact).
    pub max: u64,
    /// Estimated median (`None` when empty).
    pub p50: Option<f64>,
    /// Estimated 90th percentile.
    pub p90: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

/// A point-in-time capture of every registered metric.
///
/// # Examples
///
/// ```
/// sisg_obs::registry().counter("doc.snapshot.events_total").inc();
/// let snap = sisg_obs::registry().snapshot("doc-run");
/// assert_eq!(snap.name, "doc-run");
/// assert!(snap.counters.iter().any(|(name, _)| name == "doc.snapshot.events_total"));
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Run label (typically the bench binary name).
    pub name: String,
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Guarantee valid JSON (no `inf`/`NaN` literals) and round-trip
        // through the vendored parser, which reads plain decimal floats.
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{}", v));
        }
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

impl Snapshot {
    /// Serializes the snapshot as pretty-printed JSON.
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"name\": ");
        push_escaped(&mut out, &self.name);
        out.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_escaped(&mut out, name);
            out.push_str(&format!(": {v}"));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n  \"gauges\": {"
        } else {
            "\n  },\n  \"gauges\": {"
        });
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_escaped(&mut out, name);
            out.push_str(": ");
            push_f64(&mut out, *v);
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n  \"histograms\": {"
        } else {
            "\n  },\n  \"histograms\": {"
        });
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_escaped(&mut out, name);
            out.push_str(&format!(
                ": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": ",
                h.count, h.sum, h.max
            ));
            push_opt_f64(&mut out, h.p50);
            out.push_str(", \"p90\": ");
            push_opt_f64(&mut out, h.p90);
            out.push_str(", \"p99\": ");
            push_opt_f64(&mut out, h.p99);
            out.push_str(" }");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n}\n"
        } else {
            "\n  }\n}\n"
        });
        out
    }

    /// Writes the snapshot to `path` as JSON, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }

    /// Every metric name in the snapshot (counters, gauges, histograms),
    /// in order. The catalog cross-check test compares this against
    /// `docs/OBSERVABILITY.md`.
    pub fn metric_names(&self) -> Vec<&str> {
        self.counters
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(self.gauges.iter().map(|(n, _)| n.as_str()))
            .chain(self.histograms.iter().map(|(n, _)| n.as_str()))
            .collect()
    }
}

/// Convenience: snapshot the global registry under `run_name` and write it
/// to `path`.
///
/// # Examples
///
/// ```no_run
/// sisg_obs::write_snapshot(std::path::Path::new("results/metrics/demo.json"), "demo")
///     .expect("writable results dir");
/// ```
pub fn write_snapshot(path: &Path, run_name: &str) -> io::Result<()> {
    crate::registry().snapshot(run_name).write(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let snap = Snapshot {
            name: "t".into(),
            counters: vec![("a.total".into(), 3)],
            gauges: vec![("g".into(), 0.5)],
            histograms: vec![(
                "h.us".into(),
                HistogramSnapshot {
                    count: 2,
                    sum: 30,
                    max: 20,
                    p50: Some(10.0),
                    p90: Some(20.0),
                    p99: None,
                },
            )],
        };
        let json = snap.to_json();
        assert!(json.contains("\"a.total\": 3"));
        assert!(json.contains("\"g\": 0.5"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"p99\": null"));
        assert_eq!(snap.metric_names(), ["a.total", "g", "h.us"]);
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let snap = Snapshot {
            name: "empty".into(),
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    #[test]
    fn non_finite_gauges_become_null() {
        let snap = Snapshot {
            name: "nan".into(),
            counters: vec![],
            gauges: vec![("bad".into(), f64::NAN)],
            histograms: vec![],
        };
        assert!(snap.to_json().contains("\"bad\": null"));
    }
}
