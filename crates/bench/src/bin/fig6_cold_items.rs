//! Regenerates **Figure 6**: cold-start item recommendation via Eq. (6).
//!
//! The figure compares, for one item, the recommendations from its trained
//! vector against those from the SI-vector sum. We quantify over many
//! probe items: (a) list overlap between the two retrieval modes, (b) the
//! leaf-category coherence of each list, and (c) next-item HR for *actually
//! cold* items — items whose sessions were withheld from training — where
//! the trained vector is untrained noise and Eq. (6) must do all the work.

use sisg_bench::{describe_item, env_usize, offline_corpus, offline_sgns_config, with_sessions};
use sisg_core::{MatchingService, ServingConfig, SiAggregation, SisgModel, Variant};
use sisg_corpus::{Corpus, ItemId};
use sisg_eval::ExperimentTable;
use std::collections::HashSet;

const K: usize = 20;

fn main() {
    let corpus = offline_corpus();
    let sgns = offline_sgns_config();

    // Hold out a slice of items entirely: drop every session containing
    // them, exactly what "no training data available" means.
    let n_cold = env_usize("SISG_COLD_ITEMS", 50) as u32;
    let cold_items: Vec<ItemId> = (0..n_cold)
        .map(|i| ItemId(corpus.config.n_items - 1 - i * 7 % corpus.config.n_items))
        .collect();
    let cold_set: HashSet<ItemId> = cold_items.iter().copied().collect();
    let mut train_sessions = Corpus::new();
    let mut dropped = 0usize;
    for s in corpus.sessions.iter() {
        if s.items.iter().any(|it| cold_set.contains(it)) {
            dropped += 1;
        } else {
            train_sessions.push(s.user, s.items);
        }
    }
    eprintln!(
        "withheld {} items ({} sessions dropped); training SISG-F-U...",
        cold_set.len(),
        dropped
    );
    let clicks = train_sessions.item_clicks(corpus.config.n_items);
    let train_bundle = with_sessions(&corpus, train_sessions);
    let (model, _) = SisgModel::train(&train_bundle, Variant::SisgFU, &sgns).expect("train");
    // One training click makes an item warm, so the withheld items (no
    // clicks at all) are exactly what the service answers through Eq. (6).
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &clicks,
        ServingConfig {
            k: K,
            min_clicks_for_warm: 1,
        },
    )
    .expect("clicks cover the catalog");
    let eq6 = |q: &[f32], n: usize| svc.model().similar_items_to_vector(q, n);

    // (a)+(b): warm probes — trained vector vs Eq. (6) SI-sum vector.
    let mut overlap_sum = 0usize;
    let mut coh_trained = 0usize;
    let mut coh_cold = 0usize;
    let mut probes = 0usize;
    for raw in (0..corpus.config.n_items).step_by(37) {
        let probe = ItemId(raw);
        if cold_set.contains(&probe) {
            continue;
        }
        let trained: Vec<ItemId> = svc
            .model()
            .similar_items(probe, K)
            .into_iter()
            .map(|n| ItemId(n.token.0))
            .collect();
        let si = *corpus.catalog.si_values(probe);
        let cold: Vec<ItemId> = svc
            .cold_item_candidates_with(probe, &si, K, SiAggregation::Sum, eq6)
            .expect("catalog SI")
            .into_iter()
            .map(|r| r.item)
            .collect();
        assert_eq!(cold.len(), K, "an Eq. 6 list for probe {probe} is short");
        let a: HashSet<ItemId> = trained.iter().copied().collect();
        overlap_sum += cold.iter().filter(|i| a.contains(i)).count();
        let cat = corpus.catalog.leaf_category(probe);
        coh_trained += trained
            .iter()
            .filter(|&&i| corpus.catalog.leaf_category(i) == cat)
            .count();
        coh_cold += cold
            .iter()
            .filter(|&&i| corpus.catalog.leaf_category(i) == cat)
            .count();
        probes += 1;
    }

    let mut table = ExperimentTable::new(
        "Figure 6 — trained-vector vs SI-sum (Eq. 6) retrieval",
        &["metric", "value"],
    );
    table.push_row(vec!["probes".into(), probes.to_string()]);
    table.push_row(vec![
        format!("mean top-{K} overlap (trained vs SI-sum)"),
        format!("{:.2}", overlap_sum as f64 / probes as f64),
    ]);
    table.push_row(vec![
        "category coherence, trained vector".into(),
        format!("{:.1}%", 100.0 * coh_trained as f64 / (probes * K) as f64),
    ]);
    table.push_row(vec![
        "category coherence, SI-sum vector".into(),
        format!("{:.1}%", 100.0 * coh_cold as f64 / (probes * K) as f64),
    ]);

    // (c): genuinely cold items — can Eq. (6) retrieve sensible neighbors?
    let mut cold_coherence = 0usize;
    let mut cold_probes = 0usize;
    for &item in &cold_items {
        let si = *corpus.catalog.si_values(item);
        let recs = svc.candidates(item, &si, K).expect("catalog SI");
        let cat = corpus.catalog.leaf_category(item);
        cold_coherence += recs
            .iter()
            .filter(|r| corpus.catalog.leaf_category(r.item) == cat)
            .count();
        cold_probes += 1;
    }
    table.push_row(vec![
        "category coherence for WITHHELD items (Eq. 6 only)".into(),
        format!(
            "{:.1}%",
            100.0 * cold_coherence as f64 / (cold_probes * K) as f64
        ),
    ]);
    print!("{}", table.render());

    // A concrete example, like the figure's single-item panel.
    let example = cold_items[0];
    println!("\nexample cold item: {}", describe_item(&corpus, example));
    let si = *corpus.catalog.si_values(example);
    let example_recs = svc.candidates(example, &si, 5).expect("catalog SI");
    for (rank, r) in example_recs.iter().enumerate() {
        println!("  {}. {}", rank + 1, describe_item(&corpus, r.item));
    }

    sisg_bench::finish("fig6_cold_items", &table);
}
