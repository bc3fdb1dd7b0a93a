//! Integration: the serving layer and the extended evaluation metrics,
//! wired across crates the way a production consumer would use them.

use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::split::{NextItemSplit, SplitStage};
use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use taobao_sisg::eval::metrics::evaluate_ranking;
use taobao_sisg::eval::significance::{hit_indicators, paired_bootstrap};
use taobao_sisg::eval::ItemRetriever;
use taobao_sisg::serve::{ColdPathMode, ServeEngine, ServeEngineConfig, ServeRequest};
use taobao_sisg::sgns::SgnsConfig;

fn setup() -> (GeneratedCorpus, SisgModel, Vec<u64>) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let (model, _) = SisgModel::train(
        &corpus,
        Variant::SisgFU,
        &SgnsConfig {
            dim: 16,
            window: 3,
            negatives: 3,
            epochs: 2,
            ..Default::default()
        },
    )
    .expect("train");
    let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
    (corpus, model, clicks)
}

#[test]
fn serving_layer_matches_direct_retrieval_for_warm_items() {
    let (corpus, model, clicks) = setup();
    // Probe an item that is actually warm (zero-click items are served
    // through the Eq. 6 cold path, which legitimately differs).
    let warm = (0..corpus.config.n_items)
        .map(ItemId)
        .find(|i| clicks[i.index()] >= 1)
        .expect("some item was clicked");
    let direct: Vec<ItemId> = model.retrieve(warm, 10);
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &clicks,
        ServingConfig {
            k: 20,
            min_clicks_for_warm: 1,
        },
    )
    .expect("build");
    assert!(!svc.is_cold(warm));
    let si = *corpus.catalog.si_values(warm);
    let served: Vec<ItemId> = svc
        .candidates(warm, &si, 10)
        .expect("known item")
        .into_iter()
        .map(|r| r.item)
        .collect();
    assert_eq!(
        direct, served,
        "precomputed lists must equal live retrieval"
    );
}

/// `k` is input from outside the program. A request asking for more
/// candidates than the catalog holds gets the whole catalog, on the direct
/// service and through the engine under both cold paths — it must neither
/// overflow `k + 1` (which killed the shard's worker) nor size a heap by
/// `k` (which aborted the process).
#[test]
fn hostile_k_is_clamped_to_the_catalog_and_kills_nothing() {
    let (corpus, model, clicks) = setup();
    let n_items = corpus.config.n_items as usize;
    let n_shards = 2;
    // Threshold above every click count: the whole catalog is cold.
    let all_cold = ServingConfig {
        k: 5,
        min_clicks_for_warm: u64::MAX,
    };
    let item = ItemId(1);
    let si = *corpus.catalog.si_values(item);
    for cold_path in [
        ColdPathMode::BruteForce,
        ColdPathMode::QuantAnn { ef_search: 64 },
    ] {
        let model = SisgModel::from_store(
            model.variant(),
            model.space().clone(),
            model.store().clone(),
        )
        .expect("same store");
        let svc =
            MatchingService::build(model, corpus.users.clone(), &clicks, all_cold).expect("build");
        let whole_catalog = svc.candidates(item, &si, n_items).expect("cold item");
        assert_eq!(whole_catalog.len(), n_items - 1, "everything but itself");
        for k in [usize::MAX, 1 << 45] {
            assert_eq!(
                svc.candidates(item, &si, k).expect("clamped"),
                whole_catalog
            );
            let users = svc
                .cold_user_candidates(None, None, None, k)
                .expect("clamped");
            assert_eq!(users.len(), n_items);
        }

        let engine = ServeEngine::start(
            svc,
            ServeEngineConfig::builder()
                .n_shards(n_shards)
                .cold_path(cold_path)
                .build()
                .expect("valid config"),
        )
        .expect("engine starts");
        for k in [usize::MAX, 1 << 45] {
            let resp = engine
                .serve(ServeRequest::Candidates {
                    item,
                    si_values: si,
                    k,
                })
                .expect("hostile k on a cold item is answered");
            assert!(resp.recommendations.len() < n_items);
            let resp = engine
                .serve(ServeRequest::ColdUser {
                    gender: None,
                    age: None,
                    purchase: None,
                    k,
                })
                .expect("hostile k on the cold-user path is answered");
            assert!(resp.recommendations.len() <= n_items);
        }
        // Every worker survived: each shard still answers.
        for shard in 0..n_shards {
            let item = ItemId(shard as u32);
            let resp = engine
                .serve(ServeRequest::Candidates {
                    item,
                    si_values: *corpus.catalog.si_values(item),
                    k: 10,
                })
                .expect("shard alive");
            assert_eq!(resp.shard, shard);
            assert_eq!(resp.recommendations.len(), 10);
        }
    }
}

#[test]
fn ranking_metrics_agree_with_hit_rates() {
    let (corpus, model, clicks) = setup();
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let k = 20;
    let report = evaluate_ranking(
        "sisg",
        &model,
        &split.eval,
        k,
        &clicks,
        corpus.config.n_items,
    );
    // NDCG and MRR are bounded by HR@k (they zero on the same misses).
    let hr = taobao_sisg::eval::evaluate_hit_rates("sisg", &model, &split.eval, &[k]).hr[0];
    assert!(report.ndcg <= hr + 1e-9);
    assert!(report.mrr <= hr + 1e-9);
    assert!(report.ndcg > 0.0, "model must hit sometimes");
    assert!((0.0..=1.0).contains(&report.coverage));
    assert!((0.0..=1.0).contains(&report.tail_exposure));
}

#[test]
fn bootstrap_confirms_large_model_gaps_only() {
    let (corpus, model, _) = setup();
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let cases = &split.eval[..split.eval.len().min(400)];
    let hits = hit_indicators(&model, cases, 20);
    // Model vs itself: never significant.
    let same = paired_bootstrap(&hits, &hits, 300, 0.95, 1);
    assert!(!same.significant());
    // Model vs a strawman that always misses: decisively significant.
    let zeros = vec![0.0; hits.len()];
    let gap = paired_bootstrap(&hits, &zeros, 300, 0.95, 1);
    assert!(gap.significant());
    assert!(gap.delta > 0.1, "the model must hit more than never");
}
