//! Cold start, both sides (Section IV-C):
//!
//! - **items**: new products enter the catalog with metadata but no
//!   interactions — Eq. (6) infers their embedding from SI vectors;
//! - **users**: first-time visitors have demographics but no history —
//!   averaging the matching user-type vectors gives them a taste vector.
//!
//! Run with: `cargo run --release --example cold_start`

use std::collections::HashSet;
use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::schema::ItemFeature;
use taobao_sisg::corpus::{Corpus, CorpusConfig, GeneratedCorpus, ItemId};
use taobao_sisg::sgns::SgnsConfig;

fn main() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(1_000, 13));

    // Withhold 20 items entirely, as if they launch tomorrow.
    let launching: HashSet<ItemId> = (0..20).map(|i| ItemId(900 + i)).collect();
    let mut train = Corpus::new();
    for s in corpus.sessions.iter() {
        if !s.items.iter().any(|it| launching.contains(it)) {
            train.push(s.user, s.items);
        }
    }
    println!(
        "training on {} of {} sessions (sessions touching launching items removed)",
        train.len(),
        corpus.sessions.len()
    );
    let sgns = SgnsConfig {
        dim: 32,
        window: 3,
        negatives: 5,
        epochs: 2,
        ..Default::default()
    };
    let (model, _) = SisgModel::train_on_sessions(
        &train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        Variant::SisgFU,
        &sgns,
    )
    .expect("valid config");
    // Launching items have no training clicks, so the service marks them
    // cold and answers them through Eq. (6).
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &train.item_clicks(corpus.config.n_items),
        ServingConfig::default(),
    )
    .expect("clicks cover the catalog");

    println!("\n== cold items: Eq. (6) inference ==");
    let mut coherent = 0usize;
    let mut total = 0usize;
    for &item in launching.iter().take(3) {
        let si = corpus.catalog.si_values(item);
        println!(
            "launching item {} (leaf_category_{}):",
            item.0,
            si[ItemFeature::LeafCategory.slot()]
        );
        for r in svc.candidates(item, si, 5).expect("catalog item") {
            println!(
                "  -> item {:<5} leaf_category_{} (score {:.3})",
                r.item.0,
                corpus.catalog.si_values(r.item)[ItemFeature::LeafCategory.slot()],
                r.score
            );
        }
    }
    for &item in &launching {
        let si = corpus.catalog.si_values(item);
        for r in svc.candidates(item, si, 10).expect("catalog item") {
            total += 1;
            if corpus.catalog.leaf_category(r.item) == corpus.catalog.leaf_category(item) {
                coherent += 1;
            }
        }
    }
    println!(
        "category-coherent neighbors for all {} launching items: {:.0}%",
        launching.len(),
        100.0 * coherent as f64 / total as f64
    );

    println!("\n== cold users: averaged user-type vectors ==");
    for (label, gender, age) in [
        ("female, 19-25", 0u8, 1u8),
        ("male, 19-25", 1, 1),
        ("male, 61+", 1, 6),
    ] {
        match svc.cold_user_candidates(Some(gender), Some(age), None, 5) {
            Ok(recs) => {
                let items: Vec<u32> = recs.iter().map(|r| r.item.0).collect();
                println!("  {label:<16} -> items {items:?}");
            }
            Err(e) => println!("  {label:<16} -> {e}"),
        }
    }
}
