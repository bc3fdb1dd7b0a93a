//! Concurrency soundness for the obs primitives.
//!
//! Metrics use `fetch_add`: **no** update may ever be lost, from any
//! number of threads. These tests drive counters and histograms hard from
//! many threads and check exact totals.

use proptest::prelude::{prop_assert, prop_assert_eq, proptest};
use sisg_obs::{registry, Histogram, HISTOGRAM_BUCKETS};

#[test]
fn concurrent_counter_adds_are_never_lost() {
    const THREADS: usize = 8;
    const ADDS: u64 = 50_000;
    let c = registry().counter("test.concurrency.counter_total");
    c.reset();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..ADDS {
                    // Mix of inc and add so both paths are exercised.
                    if (i + t as u64).is_multiple_of(3) {
                        c.inc();
                    } else {
                        c.add(1);
                    }
                }
            });
        }
    });

    assert_eq!(c.get(), THREADS as u64 * ADDS);
}

#[test]
fn concurrent_histogram_records_preserve_count_sum_and_buckets() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 20_000;
    let h = registry().histogram("test.concurrency.hist");
    h.reset();

    // Thread t records the fixed value 10^(t % 4) + t, so every thread's
    // observations land in a known bucket and exact per-bucket counts are
    // checkable afterwards.
    let values: Vec<u64> = (0..THREADS)
        .map(|t| 10u64.pow((t % 4) as u32) + t)
        .collect();
    std::thread::scope(|scope| {
        for &v in &values {
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    h.record(v);
                }
            });
        }
    });

    assert_eq!(h.count(), THREADS * PER_THREAD);
    let expected_sum: u64 = values.iter().map(|v| v * PER_THREAD).sum();
    assert_eq!(h.sum(), expected_sum);
    assert_eq!(h.max(), *values.iter().max().unwrap());
    // Quantiles stay inside the recorded value range.
    let lo = *values.iter().min().unwrap() as f64;
    let hi = *values.iter().max().unwrap() as f64;
    for q in [0.25, 0.5, 0.9, 0.99] {
        let est = h.quantile(q).unwrap();
        assert!(
            est >= lo * 0.8 && est <= hi * 1.25,
            "q{q} estimate {est} outside [{lo}, {hi}] ± bucket width"
        );
    }
    // Per-bucket totals are exact: sum of all buckets == count.
    let bucket_total: u64 = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket_count(i)).sum();
    assert_eq!(bucket_total, h.count());
    h.reset();
}

proptest! {
    #[test]
    fn histogram_totals_are_exact_for_arbitrary_values(
        values in proptest::collection::vec(0u64..1_000_000, 1..200),
        threads in 1usize..5,
    ) {
        // Recording an arbitrary value set from several threads must lose
        // nothing: count, sum, max all exact.
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let h = &h;
                let values = &values;
                scope.spawn(move || {
                    for &v in values.iter() {
                        h.record(v);
                    }
                });
            }
        });
        let n = threads as u64 * values.len() as u64;
        prop_assert_eq!(h.count(), n);
        prop_assert_eq!(h.sum(), threads as u64 * values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let est = h.quantile(1.0).unwrap();
        let max = *values.iter().max().unwrap() as f64;
        prop_assert!(est >= max / 1.25 - 1.0 && est <= max * 1.25 + 1.0,
            "p100 {} vs max {}", est, max);
    }
}
