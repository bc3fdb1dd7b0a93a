//! The metric and workload catalogue: every name the benchmark may print,
//! with its unit. `BENCHMARK.json` at the repository root lists the same
//! names; a unit test keeps the two from drifting apart.

use std::collections::BTreeMap;

/// The six workloads, in the order one pass runs them.
pub const WORKLOADS: [&str; 6] = [
    "train_local",
    "train_dist",
    "serve_hot",
    "serve_cold_brute",
    "serve_cold_quant",
    "stream_fresh",
];

/// End-to-end metrics `(name, unit)`, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("quality_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The timings of the measured window. They are end-to-end measurements,
/// but they do not repeat within 10 % on the reference host (README,
/// "Noise"), so they carry no bound and are listed with the per-layer
/// metrics; both kinds of run print them.
pub const WINDOW_TIMINGS: [&str; 5] = [
    "ops_per_s",
    "ops_per_s_best_slice",
    "latency_p50_us",
    "latency_p50_us_best_slice",
    "latency_p90_us",
];

/// Per-layer metrics `(name, unit)`, printed by the traced run. A metric
/// of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("ops_per_s", "1/s"),
    ("ops_per_s_best_slice", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p50_us_best_slice", "us"),
    ("latency_p90_us", "us"),
    ("corpus.generate_s", "s"),
    ("corpus.enrich_s", "s"),
    ("corpus.enrich_tokens_per_s", "1/s"),
    ("embedding.dot_ns", "ns"),
    ("embedding.fused_step_ns", "ns"),
    ("embedding.scan_rows_per_s", "1/s"),
    ("embedding.dot_q8_ns", "ns"),
    ("embedding.quant_bytes_per_item", "B"),
    ("sgns.train_s", "s"),
    ("sgns.pairs_total", "count"),
    ("sgns.pairs_per_s", "1/s"),
    ("sgns.tokens_per_s", "1/s"),
    ("sgns.subsample_drop_share", "ratio"),
    ("sgns.avg_loss", "loss"),
    ("dist.prepare_s", "s"),
    ("dist.partition_s", "s"),
    ("dist.train_s", "s"),
    ("dist.remote_pair_share", "ratio"),
    ("dist.item_remote_pair_share", "ratio"),
    ("dist.cut_share", "ratio"),
    ("dist.pair_imbalance", "ratio"),
    ("dist.comm_bytes_per_pair", "B"),
    ("dist.sync_rounds", "count"),
    ("core.list_build_s", "s"),
    ("core.cold_vector_us", "us"),
    ("core.direct_candidates_us_p50", "us"),
    ("ann.qhnsw_build_s", "s"),
    ("ann.qhnsw_search_us_p50", "us"),
    ("ann.hops_per_search", "count"),
    ("ann.link_bytes_per_item", "B"),
    ("serve.snapshot_build_s", "s"),
    ("serve.engine_start_s", "s"),
    ("serve.submit_us_p50", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.server_request_ns_p50", "ns"),
    ("serve.server_request_ns_p99", "ns"),
    ("serve.queue_residual_us_p50", "us"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.warm_share", "ratio"),
    ("serve.cold_miss_share", "ratio"),
    ("serve.brute_unexplained_share", "ratio"),
    ("serve.client_latency_p99_us", "us"),
    ("serve.shed_total", "count"),
    ("serve.failed_total", "count"),
    ("serve.install_us_p50", "us"),
    ("serve.swaps_total", "count"),
    ("serve.cache_clears_total", "count"),
    ("serve.query_latency_p50_us", "us"),
    ("serve.query_latency_p99_us", "us"),
    ("stream.fold_us_p50", "us"),
    ("stream.fold_train_share", "ratio"),
    ("stream.freeze_ms_p50", "ms"),
    ("stream.publish_ms_p50", "ms"),
    ("stream.busy_share", "ratio"),
    ("stream.backlog_max_batches", "count"),
    ("stream.generator_lag_us_p99", "us"),
    ("stream.events_total", "count"),
    ("stream.publishes_total", "count"),
    ("stream.vocab_admitted_total", "count"),
    ("eval.hitrate_s", "s"),
    ("host.steal_share", "ratio"),
    ("trace.spans_total", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Values of per-layer metrics gathered during one run.
#[derive(Debug, Default)]
pub struct LayerMetrics {
    values: BTreeMap<&'static str, f64>,
}

impl LayerMetrics {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    /// Panics when `name` is not in [`PER_LAYER`] — a typo in a workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a catalogued per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(seen.insert(w), "{w} collides with a metric name");
        }
        for name in WINDOW_TIMINGS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    /// `BENCHMARK.json` must declare exactly this catalogue.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares a different number of names"
        );
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a catalogued")]
    fn unknown_layer_metric_is_rejected() {
        LayerMetrics::default().set("serve.typo", 1.0);
    }
}
