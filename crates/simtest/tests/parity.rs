//! Engine parity (satellite d): the threaded channels driver, the
//! shared-memory Hogwild runtime, and the simulated cluster all scan the
//! same seeded pair streams, so with the hot set disabled their
//! cross-worker pair accounting must agree *exactly*, and the models they
//! produce must score equivalently.
//!
//! Float bits are not compared across engines: the shared-memory runtime
//! races its unsynchronized adds, and the message-passing engines apply
//! remote gradients at delivery time — only the *accounting* is required
//! to be identical. The one exception is a single worker: no messages and
//! no races, so the two message-passing drivers — which share one `TnsRun`
//! set-up and differ only in transport — must agree to the byte.

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{
    train_distributed, train_distributed_channels, ChannelReport, DistConfig, FaultPlan,
};
use sisg_embedding::codec;
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
fn channels_runtime_and_sim_agree_on_accounting_and_quality() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let config = dist();
    let n_items = corpus.config.n_items;

    let (rt_store, rt_report) =
        train_distributed(&enriched, &corpus.sessions, &corpus.catalog, &config);
    let (ch_store, ch_report) =
        train_distributed_channels(&enriched, &corpus.sessions, &corpus.catalog, &config);
    let sim = simulate(
        &enriched,
        &corpus.sessions,
        &corpus.catalog,
        &SimConfig::new(config, FaultPlan::none()),
    );
    assert!(sim.completed);

    // Identical seeded scans => identical per-worker pair loads and
    // identical cross-worker traffic, across all three engines.
    assert_eq!(
        ch_report.pairs_per_worker, rt_report.pairs_per_worker,
        "channels vs shared-memory per-worker pair accounting diverged"
    );
    assert_eq!(
        sim.report.pairs_per_worker, ch_report.pairs_per_worker,
        "sim vs channels per-worker pair accounting diverged"
    );
    assert_eq!(ch_report.remote_pairs, rt_report.remote_pairs);
    assert_eq!(sim.report.remote_pairs, ch_report.remote_pairs);
    assert_eq!(
        sim.report.remote_pairs_per_worker,
        ch_report.remote_pairs_per_worker
    );
    // Message ledger: one request + one response per remote pair, in both
    // message-passing engines.
    assert_eq!(ch_report.messages, 2 * ch_report.remote_pairs);
    assert_eq!(sim.report.messages, 2 * sim.report.remote_pairs);

    // Same data, same schedule, same hyperparameters: all three models
    // must retrieve equally well.
    let hr_rt = hit_rate_at_10(&rt_store, &corpus.sessions, n_items);
    let hr_ch = hit_rate_at_10(&ch_store, &corpus.sessions, n_items);
    let hr_sim = hit_rate_at_10(&sim.store, &corpus.sessions, n_items);
    println!("HR@10 runtime={hr_rt:.4} channels={hr_ch:.4} sim={hr_sim:.4}");
    assert!(hr_rt > 0.0 && hr_ch > 0.0 && hr_sim > 0.0);
    let tolerance = (hr_rt.max(hr_ch) * 0.10).max(0.05);
    assert!(
        (hr_rt - hr_ch).abs() <= tolerance,
        "channels vs runtime HR@10 beyond tolerance: {hr_ch:.4} vs {hr_rt:.4}"
    );
    assert!(
        (hr_sim - hr_ch).abs() <= tolerance,
        "sim vs channels HR@10 beyond tolerance: {hr_sim:.4} vs {hr_ch:.4}"
    );
}

#[test]
fn single_worker_channels_and_sim_are_byte_identical() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let config = DistConfig {
        workers: 1,
        ..dist()
    };
    let (ch_store, ch_report) =
        train_distributed_channels(&enriched, &corpus.sessions, &corpus.catalog, &config);
    let sim = simulate(
        &enriched,
        &corpus.sessions,
        &corpus.catalog,
        &SimConfig::new(config, FaultPlan::none()),
    );
    assert!(sim.completed);
    assert!(ch_report.pairs > 10_000, "the run must train");
    assert_eq!(codec::encode(&ch_store), codec::encode(&sim.store));
    // Every counter, not just the pair totals; only wall time may differ.
    let untimed = |r: ChannelReport| ChannelReport { seconds: 0.0, ..r };
    assert_eq!(untimed(ch_report), untimed(sim.report));
}
