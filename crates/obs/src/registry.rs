//! The process-global metric registry.

use crate::lock;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Owns every metric in the process, keyed by name.
///
/// Handles are `&'static`: the registry leaks each metric's allocation once
/// at first registration so recording never touches the registry lock.
/// Names are dot-separated lowercase (`layer.metric_total`, `span.us`); the
/// full catalog lives in [`crate::names`] and `docs/OBSERVABILITY.md`.
///
/// # Examples
///
/// ```
/// let reg = sisg_obs::registry();
/// let c = reg.counter("doc.registry.requests_total");
/// // Same name, same handle:
/// assert!(std::ptr::eq(c, reg.counter("doc.registry.requests_total")));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = lock(&self.counters);
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_string(), c);
        c
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = lock(&self.gauges);
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        map.insert(name.to_string(), g);
        g
    }

    /// Returns the histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(name.to_string(), h);
        h
    }

    /// Captures the current value of every registered metric under a run
    /// label. Ordering is deterministic (name-sorted).
    pub fn snapshot(&self, run_name: &str) -> Snapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        max: h.max(),
                        p50: h.quantile(0.50),
                        p90: h.quantile(0.90),
                        p99: h.quantile(0.99),
                    },
                )
            })
            .collect();
        Snapshot {
            name: run_name.to_string(),
            counters,
            gauges,
            histograms,
        }
    }

    /// Zeroes every registered metric (handles stay valid). Test and
    /// bench-harness aid so consecutive measured phases don't bleed into
    /// each other; production code never resets.
    pub fn reset(&self) {
        for c in lock(&self.counters).values() {
            c.reset();
        }
        for g in lock(&self.gauges).values() {
            g.reset();
        }
        for h in lock(&self.histograms).values() {
            h.reset();
        }
    }
}

/// The process-global registry every instrumented crate records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_singletons_per_name() {
        let reg = Registry::default();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert!(std::ptr::eq(a, b));
        let g1 = reg.gauge("y");
        let g2 = reg.gauge("y");
        assert!(std::ptr::eq(g1, g2));
        let h1 = reg.histogram("z");
        let h2 = reg.histogram("z");
        assert!(std::ptr::eq(h1, h2));
    }

    #[test]
    fn snapshot_reflects_recordings_in_sorted_order() {
        let reg = Registry::default();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.gauge("g.v").set(1.5);
        reg.histogram("h.us").record(10);
        let snap = reg.snapshot("test-run");
        assert_eq!(snap.name, "test-run");
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "b.second"]);
        assert_eq!(snap.counters[0].1, 1);
        assert_eq!(snap.gauges[0], ("g.v".to_string(), 1.5));
        assert_eq!(snap.histograms[0].1.count, 1);
        reg.reset();
        assert_eq!(reg.snapshot("after").counters[0].1, 0);
        assert_eq!(reg.snapshot("after").histograms[0].1.count, 0);
    }
}
