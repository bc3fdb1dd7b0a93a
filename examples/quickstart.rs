//! Quickstart: generate a Taobao-like corpus, train the full SISG model
//! (SISG-F-U-D), and ask the three production questions — similar items,
//! cold-item candidates, cold-user candidates.
//!
//! Run with: `cargo run --release --example quickstart`

use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use taobao_sisg::sgns::SgnsConfig;

fn main() {
    // A small synthetic corpus: 1000 items, ~100k clicks, full SI catalog.
    println!("generating corpus...");
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(1_000, 7));
    println!(
        "  {} items, {} users ({} user types), {} sessions, {} clicks",
        corpus.config.n_items,
        corpus.config.n_users,
        corpus.users.n_user_types(),
        corpus.sessions.len(),
        corpus.sessions.total_clicks()
    );

    // Train the paper's best variant: item SI + user types + directional
    // windows with asymmetric input·output similarity.
    println!("training SISG-F-U-D...");
    let sgns = SgnsConfig {
        dim: 32,
        window: 3,
        negatives: 5,
        epochs: 2,
        ..Default::default()
    };
    let (model, report) = SisgModel::train(&corpus, Variant::SisgFUD, &sgns).expect("valid config");
    println!(
        "  trained on {} enriched tokens, {} positive pairs",
        report.tokens, report.stats.pairs
    );
    // Directionality: the reverse similarity generally differs.
    let fwd = model.similarity(ItemId(3), ItemId(5));
    let back = model.similarity(ItemId(5), ItemId(3));
    println!("asymmetry: sim(3->5) = {fwd:.4}, sim(5->3) = {back:.4}");

    // The matching stage: a top-K list per warm item, with items clicked
    // fewer than `min_clicks_for_warm` times marked cold.
    let svc = MatchingService::build(
        model,
        corpus.users.clone(),
        &corpus.sessions.item_clicks(corpus.config.n_items),
        ServingConfig::default(),
    )
    .expect("clicks cover the catalog");

    // 1. The matching-stage query: candidates after a click.
    let clicked = ItemId(3);
    let si = corpus.catalog.si_values(clicked);
    println!("\ntop-5 items to show after a click on item {clicked}:");
    for r in svc.candidates(clicked, si, 5).expect("catalog item") {
        println!("  item {:<6} score {:.4}", r.item.0, r.score);
    }

    // 2. Cold item (Eq. 6): an item with too few clicks for a trained
    // vector is answered from its metadata alone.
    match (0..corpus.config.n_items)
        .map(ItemId)
        .find(|&i| svc.is_cold(i))
    {
        Some(cold) => {
            let si = corpus.catalog.si_values(cold);
            println!("\ncandidates for cold item {cold}, from SI alone (Eq. 6):");
            for r in svc.candidates(cold, si, 5).expect("catalog item") {
                println!("  item {:<6} score {:.4}", r.item.0, r.score);
            }
        }
        None => println!("\nno cold item in this catalog"),
    }

    // 3. Cold user (Figure 4): a new female user, age 19-25.
    println!("\ncold-user candidates for (female, 19-25):");
    match svc.cold_user_candidates(Some(0), Some(1), None, 5) {
        Ok(recs) => {
            for r in recs {
                println!("  item {:<6} score {:.4}", r.item.0, r.score);
            }
        }
        Err(e) => println!("  no candidates: {e}"),
    }
}
