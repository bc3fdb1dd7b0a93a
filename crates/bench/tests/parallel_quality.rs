//! HR@10 tolerance gate for parallel training: 4-worker ATNS with
//! averaged hot-set replicas must retrieve within tolerance of the same
//! run with replication off.

use sisg_core::{SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::{train_distributed, PartitionStrategy};
use sisg_distributed::DistConfig;
use sisg_eval::evaluate_hit_rates;

/// Section III-A: replicating the hot set `Q` on every worker and
/// averaging the replicas at each barrier must not cost retrieval quality
/// against the same 4-worker HBGP run with `Q` empty (every token on its
/// one owner, no averaging at all).
#[test]
fn averaged_hot_set_hr10_is_within_tolerance_of_no_replication() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(2_000, 42));
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let enriched = EnrichedCorpus::build_from_sessions(
        &split.train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        EnrichOptions::NONE,
    );
    let space = TokenSpace::new(
        corpus.config.n_items,
        corpus.catalog.cardinalities(),
        corpus.users.n_user_types(),
    );
    let hr10 = |hot_set_size: usize| -> f64 {
        let cfg = DistConfig {
            workers: 4,
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 2,
            hot_set_size,
            sync_interval: 2_000,
            strategy: PartitionStrategy::Hbgp { beta: 1.2 },
            ..Default::default()
        };
        let (store, report) = train_distributed(&enriched, &corpus.catalog, &cfg);
        assert_eq!(report.hot_set_size, hot_set_size);
        let model =
            SisgModel::from_store(Variant::Sgns, space.clone(), store).expect("store covers space");
        evaluate_hit_rates("atns", &model, &split.eval, &[10])
            .at(10)
            .expect("HR@10 present")
    };
    let averaged = hr10(128);
    let unreplicated = hr10(0);
    println!("HR@10 |Q|=128 averaged {averaged:.3}, |Q|=0 {unreplicated:.3}");
    assert!(
        unreplicated > 0.0,
        "reference HR@10 must be non-trivial: {unreplicated}"
    );
    assert!(
        averaged >= unreplicated * 0.95,
        "averaged |Q|=128 HR@10 {averaged} fell more than 5% below |Q|=0 {unreplicated}"
    );
}
