//! Engine parity: the shared-memory Hogwild runtime and the simulated
//! message-passing cluster drive the same seeded pair scan, so with the
//! hot set disabled their cross-worker pair accounting must agree
//! *exactly* — under hash over item sequences and under HBGP over
//! SI-enriched ones — and the models they produce must score
//! equivalently.
//!
//! Float bits are not compared across engines: the shared-memory runtime
//! races its unsynchronized adds, and the message-passing protocol applies
//! remote gradients at delivery time — only the *accounting* is required
//! to be identical.

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{train_distributed, DistConfig, FaultPlan};
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

#[test]
fn runtime_and_sim_agree_on_accounting_and_quality() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let config = dist();
    let dim = config.dim as u64;

    let (rt_store, rt_report) = train_distributed(&enriched, &corpus.catalog, &config);
    let sim = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(config, FaultPlan::none()),
    );
    assert!(sim.completed);

    // Identical seeded scans => identical per-worker pair loads and
    // identical cross-worker traffic in both engines.
    assert_eq!(
        sim.report.pairs_per_worker, rt_report.pairs_per_worker,
        "sim vs shared-memory per-worker pair accounting diverged"
    );
    assert_eq!(sim.report.remote_pairs, rt_report.remote_pairs);
    assert!(
        sim.report.remote_pairs > 1_000,
        "hash partition must go remote"
    );
    // Message ledger of a fault-free run: one request + one response per
    // remote pair, input vector out + gradient back at dim × 4 bytes each,
    // and nothing retransmitted, replayed or abandoned.
    assert_eq!(sim.report.messages, 2 * sim.report.remote_pairs);
    assert_eq!(
        sim.report.payload_bytes,
        sim.report.remote_pairs * 2 * dim * 4
    );
    assert_eq!(sim.report.retries, 0, "fault-free run must not retransmit");
    assert_eq!(sim.report.requests_deduped, 0);
    assert_eq!(sim.report.gave_up, 0);

    // Same data, same schedule, same hyperparameters: both models must
    // retrieve equally well.
    let hr_rt =
        hit_rate_at_10(&rt_store, enriched.space(), &corpus.sessions).expect("store covers space");
    let hr_sim =
        hit_rate_at_10(&sim.store, enriched.space(), &corpus.sessions).expect("store covers space");
    println!("HR@10 runtime={hr_rt:.4} sim={hr_sim:.4}");
    assert!(hr_rt > 0.0 && hr_sim > 0.0);
    let tolerance = (hr_rt.max(hr_sim) * 0.10).max(0.05);
    assert!(
        (hr_rt - hr_sim).abs() <= tolerance,
        "sim vs runtime HR@10 beyond tolerance: {hr_sim:.4} vs {hr_rt:.4}"
    );
}

/// HBGP over SI-enriched sequences: the scans see SI tokens and a
/// category-coherent owner map, and still agree pair for pair.
#[test]
fn hbgp_over_enriched_sequences_agrees_on_accounting() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let config = DistConfig {
        strategy: PartitionStrategy::Hbgp { beta: 1.2 },
        ..dist()
    };
    let (_, rt_report) = train_distributed(&enriched, &corpus.catalog, &config);
    let sim = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(config, FaultPlan::none()),
    );
    assert!(sim.completed);
    assert_eq!(
        sim.report.pairs_per_worker, rt_report.pairs_per_worker,
        "sim vs shared-memory per-worker pair accounting diverged"
    );
    assert_eq!(sim.report.remote_pairs, rt_report.remote_pairs);
    assert!(sim.report.remote_pairs > 0, "SI tokens must go remote");
    assert_eq!(sim.report.messages, 2 * sim.report.remote_pairs);
}

#[test]
fn one_simulated_worker_passes_no_messages() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let config = DistConfig {
        workers: 1,
        ..dist()
    };
    let sim = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(config, FaultPlan::none()),
    );
    assert!(sim.completed);
    assert!(sim.report.pairs > 10_000, "the run must train");
    assert_eq!(sim.report.remote_pairs, 0);
    assert_eq!(sim.report.messages, 0);
}
