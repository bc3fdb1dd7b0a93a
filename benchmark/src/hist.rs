//! Pre-allocated log histogram for latency samples.
//!
//! Values are whole nanoseconds. Values below 128 land in exact buckets;
//! above that every power-of-two octave is cut into 128 equal buckets, so a
//! bucket is at most 1/128 (0.78 %) of its lower bound wide. The bucket
//! array is allocated once, so memory does not grow with run length, and
//! recording is two shifts and an increment.
//!
//! A quantile is the nearest-rank sample, located inside its bucket by
//! linear interpolation over the samples the bucket holds. Without the
//! interpolation every run would report one of a few bucket mid-points.

/// Sub-buckets per octave, as a shift: 2^7 = 128.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Largest representable exponent: values up to 2^42 ns (73 minutes).
const MAX_MSB: u32 = 41;
const BUCKETS: usize = SUB + (MAX_MSB - SUB_BITS + 1) as usize * SUB;

/// Fixed-size latency histogram; see the module docs.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = (63 - v.leading_zeros()).min(MAX_MSB);
    let shift = msb - SUB_BITS;
    // Values past the last octave saturate into the last bucket.
    let sub = ((v >> shift) as usize).min(2 * SUB - 1) - SUB;
    SUB + (msb - SUB_BITS) as usize * SUB + sub
}

/// Inclusive lower bound and width of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let octave = (idx - SUB) / SUB;
    let sub = (idx - SUB) % SUB;
    let width = 1u64 << octave;
    (((SUB + sub) as u64) << octave, width)
}

impl LogHistogram {
    /// An empty histogram with every bucket allocated.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    /// Records one sample, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forgets every sample; the buckets stay allocated.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile in nanoseconds (nearest rank, interpolated inside
    /// the bucket). `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if before + c >= rank {
                let (lower, width) = bucket_bounds(idx);
                // The bucket's `c` samples are taken to sit at the centres
                // of `c` equal slices of the bucket.
                let within = (rank - before) as f64 - 0.5;
                return Some(lower as f64 + width as f64 * within / c as f64);
            }
            before += c;
        }
        None
    }

    /// The `q`-quantile in microseconds, 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q).map_or(0.0, |ns| ns / 1e3)
    }
}

/// Nearest-rank percentile of a sorted slice: the sample at rank
/// `ceil(q · n)`. Used where a workload keeps few, exact samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even), 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_at_most_one_percent_wide_and_contiguous() {
        let mut expected_lower = 0u64;
        for idx in 0..BUCKETS {
            let (lower, width) = bucket_bounds(idx);
            assert_eq!(lower, expected_lower, "bucket {idx} leaves a gap");
            if lower >= SUB as u64 {
                assert!(
                    width as f64 / lower as f64 <= 0.01,
                    "bucket {idx}: {width}/{lower} is wider than 1 %"
                );
            }
            assert_eq!(bucket_index(lower), idx);
            assert_eq!(bucket_index(lower + width - 1), idx);
            expected_lower = lower + width;
        }
    }

    #[test]
    fn values_past_the_range_saturate() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_index(1 << 50), BUCKETS - 1);
    }

    #[test]
    fn exact_region_reports_exact_quantiles() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        // Rank 50 is the sample 50, alone in its width-1 bucket.
        assert_eq!(h.quantile_ns(0.5), Some(50.5));
        assert_eq!(h.quantile_ns(1.0), Some(100.5));
        assert_eq!(h.quantile_ns(0.0), Some(1.5));
    }

    #[test]
    fn quantiles_stay_within_one_percent_of_the_exact_sample() {
        let mut h = LogHistogram::new();
        let mut exact = Vec::new();
        // A spread of values over six orders of magnitude.
        let mut x = 137u64;
        for _ in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = 200 + (x >> 33) % 900_000_000;
            h.record(v);
            exact.push(v as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.99] {
            let want = percentile_sorted(&exact, q);
            let got = h.quantile_ns(q).expect("non-empty");
            assert!(
                (got - want).abs() / want <= 0.01,
                "q{q}: {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn interpolation_moves_with_the_count_inside_one_bucket() {
        // All samples share one bucket; the median still moves with rank.
        let (lower, width) = bucket_bounds(bucket_index(1_000_000));
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(lower);
        }
        let p50 = h.quantile_ns(0.5).expect("non-empty");
        let p90 = h.quantile_ns(0.9).expect("non-empty");
        assert!(p50 > lower as f64 && p90 > p50 && p90 < (lower + width) as f64);
    }

    #[test]
    fn a_cleared_histogram_is_empty_and_reusable() {
        let mut h = LogHistogram::new();
        h.record(1_000);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ns(0.5), None);
        h.record(7);
        assert_eq!(h.quantile_ns(0.5), Some(7.5));
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 0.91), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
