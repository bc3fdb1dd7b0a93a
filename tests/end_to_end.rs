//! End-to-end integration: corpus generation → enrichment → training →
//! retrieval → evaluation, across all model families.

use taobao_sisg::cf::{CfConfig, CfModel};
use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::split::{NextItemSplit, SplitStage};
use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use taobao_sisg::eges::{EgesConfig, EgesModel, WalkConfig};
use taobao_sisg::eval::{evaluate_hit_rates, ItemRetriever};
use taobao_sisg::sgns::SgnsConfig;

fn corpus() -> GeneratedCorpus {
    GeneratedCorpus::generate(CorpusConfig::tiny())
}

fn sgns() -> SgnsConfig {
    SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 5,
        epochs: 2,
        ..Default::default()
    }
}

#[test]
fn full_offline_protocol_runs_and_si_helps() {
    let corpus = corpus();
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    assert!(split.eval.len() > 200, "protocol needs evaluation cases");

    let ks = [10usize, 50];
    let mut results = Vec::new();
    for variant in [Variant::Sgns, Variant::SisgFU, Variant::SisgFUD] {
        let (model, _) = SisgModel::train_on_sessions(
            &split.train,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            variant,
            &sgns(),
        )
        .expect("train");
        results.push(evaluate_hit_rates(variant.name(), &model, &split.eval, &ks));
    }
    let hr = |name: &str| {
        results
            .iter()
            .find(|r| r.model == name)
            .unwrap()
            .at(50)
            .unwrap()
    };
    // Headline Table III ordering on the tiny corpus.
    assert!(
        hr("SISG-F-U-D") > hr("SGNS"),
        "full SISG {} must beat plain SGNS {}",
        hr("SISG-F-U-D"),
        hr("SGNS")
    );
    for r in &results {
        assert!(r.hr.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(r.hr[0] <= r.hr[1], "HR must be monotone in K");
    }
}

#[test]
fn every_retriever_family_answers_the_same_query() {
    let corpus = corpus();
    let query = ItemId(1);
    let k = 10;

    let (sisg, _) = SisgModel::train(&corpus, Variant::SisgF, &sgns()).expect("train");
    let eges = EgesModel::train(
        &corpus,
        &EgesConfig {
            dim: 16,
            epochs: 1,
            negatives: 5,
            walk: WalkConfig {
                walks_per_node: 2,
                walk_length: 8,
                seed: 1,
            },
            ..Default::default()
        },
    );
    let cf = CfModel::train(
        &corpus.sessions,
        corpus.config.n_items,
        &CfConfig::default(),
    );

    for (name, list) in [
        ("sisg", sisg.retrieve(query, k)),
        ("eges", eges.retrieve(query, k)),
        ("cf", cf.retrieve(query, k)),
    ] {
        assert!(!list.is_empty(), "{name} returned nothing");
        assert!(list.len() <= k);
        assert!(
            !list.contains(&query),
            "{name} must not recommend the query item"
        );
        let unique: std::collections::HashSet<_> = list.iter().collect();
        assert_eq!(unique.len(), list.len(), "{name} returned duplicates");
        for item in &list {
            assert!(item.0 < corpus.config.n_items);
        }
    }
}

#[test]
fn recommender_round_trips_through_codec() {
    use taobao_sisg::embedding::codec;
    let corpus = corpus();
    let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
    let service = |model| {
        MatchingService::build(
            model,
            corpus.users.clone(),
            &clicks,
            ServingConfig::default(),
        )
        .expect("clicks cover the catalog")
    };
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFUD, &sgns()).expect("train");
    let blob = codec::encode(model.store());
    let space = model.space().clone();
    let trained = service(model);
    let store = codec::decode(&blob).expect("decode");
    let served = service(SisgModel::from_store(Variant::SisgFUD, space, store).expect("covers"));
    let cold = (0..corpus.config.n_items)
        .map(ItemId)
        .find(|&i| trained.is_cold(i));
    for q in [ItemId(0), ItemId(5), ItemId(42)].into_iter().chain(cold) {
        let si = corpus.catalog.si_values(q);
        assert_eq!(
            trained.candidates(q, si, 20).expect("catalog item"),
            served.candidates(q, si, 20).expect("catalog item"),
            "served candidates diverge for query {q:?}"
        );
    }
}

#[test]
fn directional_variant_encodes_click_order() {
    let corpus = corpus();
    // This test measures *adjacent* click transitions, so train with an
    // adjacency-scale window: wider windows legitimately also draw
    // longer-range right-context pairs (users browse back and forth),
    // which dilutes the forward-vs-reverse margin on adjacent pairs.
    let cfg = SgnsConfig {
        window: 1,
        ..sgns()
    };
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFUD, &cfg).expect("train");
    // Count frequent forward transitions; the model should usually score
    // them above their reverses.
    let mut forward_wins = 0u32;
    let mut total = 0u32;
    let mut counts = std::collections::HashMap::new();
    for s in corpus.sessions.iter() {
        for w in s.items.windows(2) {
            *counts.entry((w[0], w[1])).or_insert(0u32) += 1;
        }
    }
    for (&(a, b), &n) in &counts {
        let rev = counts.get(&(b, a)).copied().unwrap_or(0);
        if n >= 8 && n >= rev * 3 {
            total += 1;
            if model.similarity(a, b) > model.similarity(b, a) {
                forward_wins += 1;
            }
        }
    }
    assert!(
        total >= 10,
        "need enough strongly-directional pairs, got {total}"
    );
    assert!(
        forward_wins as f64 / total as f64 > 0.6,
        "directional model ranks forward above reverse in only {forward_wins}/{total}"
    );
}
