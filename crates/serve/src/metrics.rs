//! Cached obs-registry handles for the engine's `serve.*` metrics.
//!
//! The registry is the single source of truth for request accounting,
//! which is recorded once, in the request's tenant slice;
//! [`EngineStats`](crate::EngineStats) sums deltas of those slices rather
//! than keeping a second set of counters.

use sisg_obs::{names, registry, Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// `&'static` metric handles, fetched once per process so the request path
/// pays only relaxed atomic increments.
pub(crate) struct ServeMetrics {
    pub(crate) swaps: &'static Counter,
    pub(crate) cache_clears: &'static Counter,
    /// Nanosecond-resolution service time — typical requests finish in
    /// well under a microsecond, so a whole-µs histogram degenerates
    /// (every percentile 0). See `names::SERVE_REQUEST_NS`.
    pub(crate) request_ns: &'static Histogram,
    pub(crate) quant_cold_searches: &'static Counter,
    pub(crate) quant_reranked: &'static Counter,
    pub(crate) quant_bytes_per_item: &'static Gauge,
    pub(crate) cold_index_build_ms: &'static Histogram,
}

/// Per-tenant slices of the `serve.*` family — the only per-request
/// counters — resolved once per engine start from the tenant's
/// catalog-validated label (`serve.tenant.<label>.<suffix>`; see
/// `sisg_obs::names`).
#[derive(Clone, Copy)]
pub(crate) struct TenantMetrics {
    pub(crate) requests: &'static Counter,
    pub(crate) shed: &'static Counter,
    pub(crate) warm_hits: &'static Counter,
    pub(crate) cold_items: &'static Counter,
    pub(crate) cold_users: &'static Counter,
    pub(crate) cache_hits: &'static Counter,
    pub(crate) request_ns: &'static Histogram,
}

impl TenantMetrics {
    pub(crate) fn for_label(label: &str) -> Self {
        let counter = |suffix| registry().counter(&names::tenant_metric(label, suffix));
        TenantMetrics {
            requests: counter("requests_total"),
            shed: counter("shed_total"),
            warm_hits: counter("warm_hits_total"),
            cold_items: counter("cold_item_requests_total"),
            cold_users: counter("cold_user_requests_total"),
            cache_hits: counter("cache_hits_total"),
            request_ns: registry().histogram(&names::tenant_metric(label, "request.ns")),
        }
    }
}

pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        swaps: registry().counter(names::SERVE_SWAPS_TOTAL),
        cache_clears: registry().counter(names::SERVE_CACHE_CLEARS_TOTAL),
        request_ns: registry().histogram(names::SERVE_REQUEST_NS),
        quant_cold_searches: registry().counter(names::SERVE_QUANT_COLD_SEARCHES_TOTAL),
        quant_reranked: registry().counter(names::SERVE_QUANT_RERANKED_TOTAL),
        quant_bytes_per_item: registry().gauge(names::SERVE_QUANT_BYTES_PER_ITEM),
        cold_index_build_ms: registry().histogram(names::SERVE_COLD_INDEX_BUILD_MS),
    })
}
