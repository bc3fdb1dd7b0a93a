//! Integration: the distributed engine must (a) learn embeddings of
//! comparable retrieval quality to the single-process trainer, and (b)
//! show the communication structure the paper's design targets.

use taobao_sisg::core::{SisgModel, Variant};
use taobao_sisg::corpus::split::{NextItemSplit, SplitStage};
use taobao_sisg::corpus::vocab::TokenSpace;
use taobao_sisg::corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus, TokenId};
use taobao_sisg::distributed::runtime::{train_distributed, PartitionStrategy};
use taobao_sisg::distributed::DistConfig;
use taobao_sisg::embedding::retrieve_top_k;
use taobao_sisg::eval::evaluate_hit_rates;
use taobao_sisg::sgns::SgnsConfig;

fn corpus() -> GeneratedCorpus {
    GeneratedCorpus::generate(CorpusConfig::tiny())
}

#[test]
fn distributed_hit_rate_is_comparable_to_single_process() {
    let corpus = corpus();
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);

    // Single-process reference (plain SGNS variant).
    let sgns = SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 5,
        epochs: 2,
        ..Default::default()
    };
    let (single, _) = SisgModel::train_on_sessions(
        &split.train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        Variant::Sgns,
        &sgns,
    )
    .expect("train");

    // Distributed run over the same (un-enriched) sequences.
    let enriched = EnrichedCorpus::build_from_sessions(
        &split.train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        EnrichOptions::NONE,
    );
    let dist_cfg = DistConfig {
        workers: 4,
        dim: 16,
        window: 3,
        negatives: 5,
        epochs: 2,
        hot_set_size: 32,
        sync_interval: 400,
        strategy: PartitionStrategy::Hbgp { beta: 1.2 },
        ..Default::default()
    };
    let (store, report) = train_distributed(&enriched, &corpus.catalog, &dist_cfg);
    let space = TokenSpace::new(
        corpus.config.n_items,
        corpus.catalog.cardinalities(),
        corpus.users.n_user_types(),
    );
    let distributed =
        SisgModel::from_store(Variant::Sgns, space, store).expect("store covers space");

    let ks = [20usize];
    let hr_single = evaluate_hit_rates("single", &single, &split.eval, &ks).hr[0];
    let hr_dist = evaluate_hit_rates("distributed", &distributed, &split.eval, &ks).hr[0];
    assert!(
        hr_dist > hr_single * 0.7,
        "distributed HR@20 {hr_dist} too far below single-process {hr_single}"
    );
    assert!(report.total_pairs() > 10_000);
}

#[test]
fn comm_structure_matches_design_claims() {
    let corpus = corpus();
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let run = |strategy, hot| {
        let cfg = DistConfig {
            workers: 4,
            dim: 8,
            window: 4,
            negatives: 2,
            epochs: 1,
            hot_set_size: hot,
            sync_interval: 500,
            strategy,
            ..Default::default()
        };
        train_distributed(&enriched, &corpus.catalog, &cfg).1
    };
    let hbgp_q = run(PartitionStrategy::Hbgp { beta: 1.2 }, 64);
    let hash_q = run(PartitionStrategy::Hash, 64);
    let hbgp_noq = run(PartitionStrategy::Hbgp { beta: 1.2 }, 0);

    // HBGP cuts cross-worker traffic relative to hashing.
    assert!(hbgp_q.remote_fraction() < hash_q.remote_fraction());
    // The hot set removes remote pairs (SI tokens dominate endpoints).
    assert!(hbgp_q.remote_fraction() < hbgp_noq.remote_fraction());
    // Sync costs exist exactly when Q does.
    assert!(hbgp_q.sync_comm_bytes > 0);
    assert_eq!(hbgp_noq.sync_comm_bytes, 0);
}

#[test]
fn distributed_store_serves_all_token_kinds() {
    let corpus = corpus();
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let cfg = DistConfig {
        workers: 2,
        dim: 8,
        window: 3,
        negatives: 2,
        epochs: 1,
        hot_set_size: 16,
        sync_interval: 500,
        ..Default::default()
    };
    let (store, _) = train_distributed(&enriched, &corpus.catalog, &cfg);
    assert_eq!(store.n_tokens(), enriched.space().len());
    // Retrieval over the full joint space works.
    let hits = retrieve_top_k(
        store.input(TokenId(0)),
        store.input_matrix(),
        (0..store.n_tokens() as u32).map(TokenId),
        5,
        Some(TokenId(0)),
    );
    assert_eq!(hits.len(), 5);
}
