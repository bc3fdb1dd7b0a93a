#![warn(missing_docs)]
//! Observability for the SISG reproduction: counters, gauges, log-bucketed
//! latency histograms, and span timers — with zero external dependencies,
//! matching the workspace's offline compat policy.
//!
//! # Design
//!
//! - A process-global [`Registry`] hands out `&'static` metric handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]). Lookup takes a mutex once;
//!   callers cache the handle so the hot path is a single relaxed atomic op.
//! - [`Histogram`] uses quarter-log2 buckets (4 sub-buckets per octave,
//!   ≤ 12.5% mid-point error) so p50/p90/p99 extraction never sorts samples
//!   and recording never allocates.
//! - [`Span`] wraps [`Stopwatch`] and records its duration into the
//!   `<name>.us` histogram on [`Span::finish`]; an optional process-global
//!   JSON-lines sink ([`set_span_sink`]) additionally appends one line per
//!   finished span.
//!
//! Instrumented crates must never record per training pair: they accumulate
//! locally and flush per chunk / epoch / request, which is what keeps the
//! measured overhead on the SGD kernel and serving path below the 2% budget
//! (`crates/bench/tests/obs_overhead.rs` enforces this).
//!
//! # Examples
//!
//! ```
//! use sisg_obs::{registry, span};
//!
//! // Counters and gauges: grab a handle once, then it's one atomic op.
//! let pairs = registry().counter("example.pairs_total");
//! pairs.add(128);
//! assert_eq!(pairs.get(), 128);
//!
//! let lr = registry().gauge("example.lr");
//! lr.set(0.0234);
//! assert!((lr.get() - 0.0234).abs() < 1e-12);
//!
//! // Spans time a scope and feed the `<name>.us` histogram.
//! let s = span("example.step");
//! let elapsed = s.finish();
//! assert!(elapsed.as_nanos() > 0);
//!
//! // Snapshots serialize the whole registry to JSON.
//! let snap = registry().snapshot("demo");
//! assert!(snap.to_json().contains("example.pairs_total"));
//! ```

mod fnv;
mod metrics;
pub mod names;
mod registry;
mod snapshot;
mod span;

pub use fnv::Fnv1a;
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{registry, Registry};
pub use snapshot::{write_snapshot, HistogramSnapshot, Snapshot};
pub use span::{clear_span_sink, set_span_sink, span, Span, Stopwatch};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning instead of panicking: metrics
/// must never take the serving path down, even if a recording thread died.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
