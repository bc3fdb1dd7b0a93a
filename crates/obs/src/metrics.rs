//! The three metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All recording is a handful of relaxed atomic operations; nothing here
//! allocates or locks after construction. Each metric sits on its own two
//! cache lines (`align(128)`): the registry allocates them one by one, so
//! two metrics that different threads write would otherwise share a line
//! (a counter add cost 17 ns instead of 1 ns beside another thread's hot
//! counter in `obs_overhead.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: 8 exact buckets for values `0..=7`, then
/// 4 sub-buckets per power-of-two octave up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 252;

/// A monotonically increasing event count.
///
/// # Examples
///
/// ```
/// let c = sisg_obs::registry().counter("doc.counter.events_total");
/// c.inc();
/// c.add(9);
/// assert_eq!(c.get(), 10);
/// ```
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Self {
            cell: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter (relaxed; safe from any thread).
    #[inline]
    pub fn add(&self, n: u64) {
        // ORDERING: Relaxed — metric cells are independent monotone stats; readers
        // tolerate slightly-stale values and no other memory is published through
        // them, so no acquire/release pairing is needed anywhere in this module.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.cell.load(Ordering::Relaxed)
    }

    /// Zeroes the counter. Test / bench-harness aid; production code never
    /// resets.
    pub fn reset(&self) {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.cell.store(0, Ordering::Relaxed);
    }
}

/// A last-written `f64` value.
///
/// Stored as raw bits in an `AtomicU64`; `set`/`get` are single atomic ops.
///
/// # Examples
///
/// ```
/// let g = sisg_obs::registry().gauge("doc.gauge.depth");
/// g.set(3.5);
/// assert!((g.get() - 3.5).abs() < 1e-12);
/// ```
#[derive(Debug)]
#[repr(align(128))]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Self {
            bits: AtomicU64::new(0),
        }
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first `set`).
    #[inline]
    pub fn get(&self) -> f64 {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Zeroes the gauge. Test / bench-harness aid.
    pub fn reset(&self) {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A lock-free latency/size histogram with quarter-log2 buckets.
///
/// Values `0..=7` land in exact buckets; larger values share a bucket with
/// at most 25% spread (4 sub-buckets per power-of-two octave), so quantile
/// estimates carry ≤ 12.5% mid-point error. Recording is 4 relaxed atomic
/// ops and never allocates.
///
/// # Examples
///
/// ```
/// let h = sisg_obs::registry().histogram("doc.histogram.us");
/// for v in [1u64, 2, 3, 100, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 200);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((2.0..=4.0).contains(&p50), "p50 {p50} should sit near 3");
/// ```
#[derive(Debug)]
#[repr(align(128))]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Maps a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 3 since v >= 8
        let sub = ((v >> (msb - 2)) & 0b11) as usize;
        8 + (msb - 3) * 4 + sub
    }
}

/// Inclusive lower bound of bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let octave = 3 + (idx - 8) / 4;
        let sub = ((idx - 8) % 4) as u64;
        (1u64 << octave) + sub * (1u64 << (octave - 2))
    }
}

/// Exclusive upper bound of bucket `idx` (`u64::MAX` for the last bucket).
fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(idx + 1)
    }
}

/// The value a bucket reports for quantile estimation: exact for the
/// `0..=7` buckets, the bucket mid-point otherwise.
fn bucket_representative(idx: usize) -> f64 {
    if idx < 8 {
        idx as f64
    } else {
        let lo = bucket_lower(idx);
        let hi = bucket_upper(idx);
        lo as f64 + (hi - lo) as f64 / 2.0
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty standalone histogram. Most callers want
    /// [`crate::Registry::histogram`] instead, which names and retains it.
    pub fn new() -> Self {
        Self {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        // ORDERING: Relaxed — bucket/count/sum/max are each independently atomic;
        // a snapshot may observe a count without its sum (documented slack for
        // in-flight observations), so no release pairing is required.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in whole microseconds (the unit every `*.us`
    /// histogram in the catalog uses).
    ///
    /// Only suitable when observations are reliably ≥ 1µs: sub-µs
    /// durations truncate to 0 and collapse into bucket 0, flattening
    /// every percentile to zero. Sub-µs paths (e.g. `serve.request.ns`)
    /// use [`Histogram::record_duration_ns`] instead.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records a duration in whole nanoseconds — the unit of `*.ns`
    /// histograms, whose observations are routinely below a microsecond.
    /// At ns resolution the exact `0..=7` buckets cover only sub-8ns
    /// noise and real observations land in the quarter-log2 octaves, so
    /// quantiles stay non-degenerate (see the regression test below).
    #[inline]
    pub fn record_duration_ns(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wraps only past `u64::MAX` total).
    #[inline]
    pub fn sum(&self) -> u64 {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (exact, not bucketed).
    #[inline]
    pub fn max(&self) -> u64 {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        self.max.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`), or `None` when
    /// the histogram is empty. Exact for values `< 8`, bucket mid-point
    /// (≤ 12.5% relative error) above.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        let mut total = 0u64;
        for (slot, bucket) in counts.iter_mut().zip(self.buckets.iter()) {
            // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
            *slot = bucket.load(Ordering::Relaxed);
            total += *slot;
        }
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_representative(idx));
            }
        }
        Some(bucket_representative(HISTOGRAM_BUCKETS - 1))
    }

    /// Per-bucket count (test aid; `idx < HISTOGRAM_BUCKETS`).
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.buckets
            .get(idx)
            // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
            .map(|b| b.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Zeroes all state. Test / bench-harness aid.
    pub fn reset(&self) {
        // ORDERING: Relaxed — same independent-stat-cell argument as Counter::add.
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v + 1);
        }
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Consecutive buckets tile [0, u64::MAX) without gaps or overlaps.
        for idx in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(idx),
                bucket_lower(idx + 1),
                "gap/overlap at bucket {idx}"
            );
            assert!(bucket_lower(idx) < bucket_upper(idx));
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn every_value_lands_inside_its_bucket_bounds() {
        let mut probes: Vec<u64> = (0..64)
            .flat_map(|s| {
                let base = 1u64 << s;
                [
                    base,
                    base + base / 3,
                    base + base / 2,
                    base.saturating_mul(2).saturating_sub(1),
                ]
            })
            .collect();
        probes.extend([0, 1, 7, 8, 9, 1000, 123_456_789, u64::MAX]);
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < HISTOGRAM_BUCKETS, "index overflow for {v}");
            assert!(
                bucket_lower(idx) <= v,
                "{v} below lower bound of bucket {idx}"
            );
            assert!(
                v < bucket_upper(idx) || bucket_upper(idx) == u64::MAX,
                "{v} above upper bound of bucket {idx}"
            );
        }
        // u64::MAX itself is claimed by the final bucket.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_at_most_25_percent() {
        for idx in 8..HISTOGRAM_BUCKETS - 1 {
            let lo = bucket_lower(idx) as f64;
            let hi = bucket_upper(idx) as f64;
            assert!(
                hi / lo <= 1.25 + 1e-12,
                "bucket {idx} spread {} too wide",
                hi / lo
            );
        }
    }

    #[test]
    fn quantiles_match_exact_sorted_reference() {
        // A deterministic skewed sample: exact sorted-array quantiles must
        // agree with the histogram estimate to within one bucket width.
        let h = Histogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skew: mostly small, occasional large tail.
            let v = if i % 97 == 0 {
                10_000 + x % 90_000
            } else {
                x % 500
            };
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        assert_eq!(h.max(), *values.last().unwrap());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank] as f64;
            let est = h.quantile(q).unwrap();
            // Bucket mid-point error is <= 12.5%; allow the full bucket.
            let tol = (exact * 0.25).max(1.0);
            assert!(
                (est - exact).abs() <= tol,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn sub_microsecond_durations_round_trip_at_ns_resolution() {
        // Regression for the serve-latency percentile-zero bug: a known
        // sub-µs latency distribution recorded in whole µs collapses into
        // bucket 0 (all percentiles 0), while the same distribution at ns
        // resolution keeps non-zero, monotone, bucket-accurate quantiles.
        use std::time::Duration;
        let durations: Vec<Duration> = (0..1000)
            .map(|i| Duration::from_nanos(100 + (i % 10) * 150)) // 100..=1450ns
            .collect();

        let us = Histogram::new();
        let ns = Histogram::new();
        for d in &durations {
            us.record_duration(*d);
            ns.record_duration_ns(*d);
        }
        // The whole-µs histogram degenerates: p99 rounds to 0 or 1.
        assert!(us.quantile(0.99).unwrap() <= 1.0);

        // The ns histogram round-trips the distribution: each quantile is
        // non-zero, the sequence is monotone, and each estimate sits
        // within its bucket's ≤ 12.5% mid-point error of the exact value.
        let mut exact: Vec<u64> = durations.iter().map(|d| d.as_nanos() as u64).collect();
        exact.sort_unstable();
        let mut last = 0.0f64;
        for q in [0.5, 0.9, 0.99] {
            let est = ns.quantile(q).unwrap();
            assert!(est > 0.0, "p{} is zero at ns resolution", q * 100.0);
            assert!(est >= last, "quantiles must be monotone");
            last = est;
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1) - 1;
            let truth = exact[rank] as f64;
            assert!(
                (est - truth).abs() <= truth * 0.25,
                "q={q}: est {est} vs exact {truth}"
            );
        }
        assert_eq!(ns.count(), 1000);
        assert_eq!(ns.max(), *exact.last().unwrap());
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), None);
    }
}
