//! Generated fault schedules: the cluster must terminate cleanly under
//! *any* combination of drops, duplicates, delays, stalls, and crashes —
//! the no-deadlock half of the tentpole — and moderate message loss must
//! not meaningfully hurt model quality.

use proptest::prelude::*;
use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{CrashSpec, DistConfig, FaultPlan, StallSpec};
use sisg_simtest::{hit_rate_at_10, simulate, SimConfig};

fn small_dist(workers: usize) -> DistConfig {
    DistConfig {
        workers,
        dim: 4,
        window: 2,
        negatives: 2,
        epochs: 1,
        hot_set_size: 0,
        sync_interval: 1_000,
        strategy: PartitionStrategy::Hash,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn no_schedule_deadlocks_the_cluster(
        seed in 0u64..u64::MAX,
        workers in 2usize..5,
        drop_centi in 0u32..26,
        dup_centi in 0u32..16,
        delay_centi in 0u32..16,
        max_delay in 1u64..12,
        chaos in 0u32..4,
    ) {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);

        let mut plan = FaultPlan::message_faults(
            seed,
            drop_centi as f64 / 100.0,
            dup_centi as f64 / 100.0,
            delay_centi as f64 / 100.0,
        );
        plan.max_delay_ticks = max_delay;
        // `chaos` folds stalls and crashes into a quarter of the schedules
        // each, so message faults, stalls, and crashes all get composed.
        if chaos == 1 || chaos == 3 {
            plan.stalls.push(StallSpec {
                worker: 0,
                after_pairs: 32,
                ticks: 64,
            });
        }
        if chaos == 2 || chaos == 3 {
            plan.crashes.push(CrashSpec {
                worker: workers - 1,
                after_pairs: 48,
                down_ticks: 96,
            });
        }

        let sim = SimConfig::new(small_dist(workers), plan);
        let out = simulate(&enriched, &corpus.catalog, &sim);
        prop_assert!(
            out.completed,
            "schedule deadlocked: seed {seed:#x}, drop {drop_centi}%, dup {dup_centi}%, \
             delay {delay_centi}%, chaos {chaos} ({} events, {} ticks)",
            out.events,
            out.ticks
        );
        // Every scheduled pair is accounted for: trained or explicitly
        // abandoned after max_attempts, never silently lost.
        prop_assert!(out.report.pairs > 0);
    }
}

/// Training under a 10% drop rate (plus retries, dedup, and stale-response
/// discards) must land within tolerance of the fault-free model — the
/// protocol degrades capacity, not correctness.
#[test]
fn ten_percent_drop_rate_preserves_hit_rate() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let dist = DistConfig {
        workers: 3,
        dim: 16,
        window: 3,
        negatives: 3,
        epochs: 2,
        hot_set_size: 0,
        sync_interval: 1_000,
        strategy: PartitionStrategy::Hash,
        ..Default::default()
    };

    let clean = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(dist.clone(), FaultPlan::none()),
    );
    let lossy = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(dist, FaultPlan::message_faults(0xD20D, 0.10, 0.0, 0.0)),
    );
    assert!(clean.completed && lossy.completed);
    assert!(lossy.report.faults_injected > 0);
    assert!(
        lossy.report.retries > 0,
        "drops must trigger the retry path"
    );

    let hr_clean = hit_rate_at_10(&clean.store, enriched.space(), &corpus.sessions)
        .expect("store covers space");
    let hr_lossy = hit_rate_at_10(&lossy.store, enriched.space(), &corpus.sessions)
        .expect("store covers space");
    println!("HR@10 clean={hr_clean:.4} lossy={hr_lossy:.4}");
    assert!(hr_clean > 0.0, "baseline model learned nothing");
    let tolerance = (hr_clean * 0.10).max(0.05);
    assert!(
        (hr_clean - hr_lossy).abs() <= tolerance,
        "drop-rate 10% moved HR@10 beyond tolerance: clean {hr_clean:.4} vs lossy {hr_lossy:.4}"
    );
}
