//! Integration: the two cold-start inference paths of Section IV-C,
//! exercised with genuinely withheld items and demographic-only users.

use std::collections::HashSet;
use taobao_sisg::core::cold_start::average_user_types;
use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::{Corpus, CorpusConfig, GeneratedCorpus, ItemId, UserTypeId};
use taobao_sisg::sgns::SgnsConfig;

fn setup() -> (GeneratedCorpus, Vec<ItemId>, MatchingService) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    // Withhold ten items entirely.
    let withheld: Vec<ItemId> = (0..10).map(|i| ItemId(390 + i)).collect();
    let cold: HashSet<ItemId> = withheld.iter().copied().collect();
    let mut train = Corpus::new();
    for s in corpus.sessions.iter() {
        if !s.items.iter().any(|it| cold.contains(it)) {
            train.push(s.user, s.items);
        }
    }
    let (model, _) = SisgModel::train_on_sessions(
        &train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        Variant::SisgFU,
        &SgnsConfig {
            dim: 16,
            window: 3,
            negatives: 5,
            epochs: 2,
            ..Default::default()
        },
    )
    .expect("train");
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &train.item_clicks(corpus.config.n_items),
        ServingConfig::default(),
    )
    .expect("clicks cover the catalog");
    assert!(
        withheld.iter().all(|&i| svc.is_cold(i)),
        "no training clicks"
    );
    (corpus, withheld, svc)
}

#[test]
fn withheld_items_get_category_coherent_neighbors() {
    let (corpus, withheld, svc) = setup();
    let k = 10;
    let mut coherent = 0usize;
    let mut total = 0usize;
    for &item in &withheld {
        let recs = svc
            .candidates(item, corpus.catalog.si_values(item), k)
            .expect("valid SI");
        assert_eq!(recs.len(), k);
        assert!(
            recs.iter().all(|r| !withheld.contains(&r.item)),
            "cold recommendations should be trained items"
        );
        let cat = corpus.catalog.leaf_category(item);
        coherent += recs
            .iter()
            .filter(|r| corpus.catalog.leaf_category(r.item) == cat)
            .count();
        total += k;
    }
    let rate = coherent as f64 / total as f64;
    assert!(
        rate > 0.5,
        "only {rate:.2} of cold-item neighbors share the leaf category"
    );
}

#[test]
fn cold_item_beats_untrained_vector() {
    let (corpus, withheld, svc) = setup();
    // The withheld item's own (untrained, random-init) vector retrieves
    // junk; Eq. (6) retrieves its category. Compare coherence.
    let item = withheld[0];
    let cat = corpus.catalog.leaf_category(item);
    let k = 10;
    let untrained = svc.model().similar_items(item, k);
    let coherent_untrained = untrained
        .iter()
        .filter(|n| corpus.catalog.leaf_category(ItemId(n.token.0)) == cat)
        .count();
    let cold = svc
        .candidates(item, corpus.catalog.si_values(item), k)
        .expect("valid SI");
    let coherent_cold = cold
        .iter()
        .filter(|r| corpus.catalog.leaf_category(r.item) == cat)
        .count();
    assert!(
        coherent_cold > coherent_untrained,
        "Eq. 6 ({coherent_cold}/{k}) must beat the untrained vector \
         ({coherent_untrained}/{k})"
    );
}

#[test]
fn cold_user_vectors_average_matching_types_only() {
    let (_, _, svc) = setup();
    // Averaging all female types must differ from all male types.
    let f = svc
        .cold_user_candidates(Some(0), None, None, 15)
        .expect("female types exist");
    let m = svc
        .cold_user_candidates(Some(1), None, None, 15)
        .expect("male types exist");
    assert_eq!((f.len(), m.len()), (15, 15));
    assert_ne!(
        f.iter().map(|r| r.item).collect::<Vec<_>>(),
        m.iter().map(|r| r.item).collect::<Vec<_>>(),
        "gender-conditioned recommendations must differ"
    );
    // Impossible demographics yield a typed error, not garbage.
    assert!(svc
        .cold_user_candidates(Some(0), Some(99), None, 5)
        .is_err());
}

#[test]
fn averaging_is_linear_in_inputs() {
    let (_, _, svc) = setup();
    let model = svc.model();
    let types: Vec<UserTypeId> = (0..3).map(UserTypeId).collect();
    let avg = average_user_types(model, &types).expect("known types");
    let mut manual = vec![0.0f32; model.store().dim()];
    for &ut in &types {
        let v = model.token_input(model.space().user_type(ut));
        for (m, &x) in manual.iter_mut().zip(v) {
            *m += x / 3.0;
        }
    }
    for (a, b) in avg.iter().zip(&manual) {
        assert!((a - b).abs() < 1e-5, "averaging mismatch: {a} vs {b}");
    }
}
