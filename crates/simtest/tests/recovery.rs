//! Crash recovery: a worker killed mid-epoch restarts from its last
//! epoch-boundary checkpoint with a bumped incarnation, replays the lost
//! partial epoch, and the cluster still converges — the acceptance
//! criterion is HitRate@10 within 5% relative of the uninterrupted run.

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{CrashSpec, DistConfig, FaultPlan};
use sisg_simtest::{hit_rate_at_10, simulate, SimConfig};

fn dist() -> DistConfig {
    DistConfig {
        workers: 3,
        dim: 16,
        window: 3,
        negatives: 3,
        epochs: 2,
        hot_set_size: 0,
        sync_interval: 1_000,
        strategy: PartitionStrategy::Hash,
        ..Default::default()
    }
}

const CRASHED: usize = 1;

#[test]
fn crash_mid_epoch_recovers_within_five_percent_hit_rate() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);

    let clean = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(dist(), FaultPlan::none()),
    );
    assert!(clean.completed);
    let total_pairs = clean.report.pairs_per_worker[CRASHED];
    assert!(
        total_pairs > 8,
        "corpus too small to place a mid-epoch crash"
    );

    // Kill the worker three quarters of the way through its pair stream —
    // mid second epoch, past the epoch-boundary checkpoint it will restore.
    let mut plan = FaultPlan::none();
    plan.crashes.push(CrashSpec {
        worker: CRASHED,
        after_pairs: total_pairs * 3 / 4,
        down_ticks: 128,
    });
    let crashed = simulate(&enriched, &corpus.catalog, &SimConfig::new(dist(), plan));
    assert!(crashed.completed, "cluster never drained after the crash");
    assert_eq!(crashed.report.recoveries, 1, "exactly one restart expected");
    assert_eq!(crashed.report.faults_injected, 1);
    // The restored worker replays the checkpointed epoch from its start,
    // so it trains at least as many pairs as the uninterrupted run.
    assert!(crashed.report.pairs_per_worker[CRASHED] >= total_pairs);

    let hr_clean = hit_rate_at_10(&clean.store, enriched.space(), &corpus.sessions)
        .expect("store covers space");
    let hr_crashed = hit_rate_at_10(&crashed.store, enriched.space(), &corpus.sessions)
        .expect("store covers space");
    println!("HR@10 clean={hr_clean:.4} crashed+recovered={hr_crashed:.4}");
    assert!(hr_clean > 0.0);
    assert!(
        (hr_clean - hr_crashed).abs() <= hr_clean * 0.05,
        "recovered run outside 5% relative tolerance: clean {hr_clean:.4} vs {hr_crashed:.4}"
    );
}

#[test]
fn crash_in_first_epoch_restores_from_initial_checkpoint() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);

    let mut plan = FaultPlan::none();
    plan.crashes.push(CrashSpec {
        worker: 0,
        after_pairs: 16,
        down_ticks: 64,
    });
    let cfg = SimConfig::new(dist(), plan);
    let a = simulate(&enriched, &corpus.catalog, &cfg);
    assert!(a.completed);
    assert_eq!(a.report.recoveries, 1);

    // A crashy schedule replays just as deterministically as a clean one.
    let b = simulate(&enriched, &corpus.catalog, &cfg);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.events, b.events);
    assert_eq!(a.report, b.report);
}
