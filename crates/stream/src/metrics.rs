//! Cached obs-registry handles for the `stream.*` metric family.

use sisg_obs::{names, registry, Counter, Histogram};
use std::sync::OnceLock;

/// `&'static` metric handles, fetched once per process so the ingest path
/// pays only relaxed atomic increments.
pub(crate) struct StreamMetrics {
    pub(crate) events: &'static Counter,
    pub(crate) batches: &'static Counter,
    pub(crate) publishes: &'static Counter,
    pub(crate) vocab_admitted: &'static Counter,
    /// Event-to-servable latency: arrival stamp (virtual ticks in replay,
    /// real µs for a wall-clock caller — one tick = 1 µs) to the publication that
    /// made the event's updates servable.
    pub(crate) freshness_us: &'static Histogram,
}

pub(crate) fn stream_metrics() -> &'static StreamMetrics {
    static M: OnceLock<StreamMetrics> = OnceLock::new();
    M.get_or_init(|| StreamMetrics {
        events: registry().counter(names::STREAM_EVENTS_TOTAL),
        batches: registry().counter(names::STREAM_BATCHES_TOTAL),
        publishes: registry().counter(names::STREAM_PUBLISHES_TOTAL),
        vocab_admitted: registry().counter(names::STREAM_VOCAB_ADMITTED_TOTAL),
        freshness_us: registry().histogram(names::STREAM_FRESHNESS_US),
    })
}
