//! The production matching-stage lifecycle the paper describes:
//!
//! 1. a daily training job learns embeddings from yesterday's sessions;
//! 2. the embedding artifact is serialized (the paper recomputes billions
//!    of vectors daily and ships them to serving);
//! 3. a serving process reloads the artifact and answers candidate-set
//!    queries, here compared head-to-head against the CF baseline on a
//!    simulated click stream.
//!
//! Run with: `cargo run --release --example matching_stage`

use taobao_sisg::cf::{CfConfig, CfModel};
use taobao_sisg::core::{SisgModel, Variant};
use taobao_sisg::corpus::split::{NextItemSplit, SplitStage};
use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus};
use taobao_sisg::embedding::codec;
use taobao_sisg::eval::{evaluate_hit_rates, ItemRetriever};
use taobao_sisg::sgns::SgnsConfig;

fn main() {
    println!("== daily training job ==");
    // Sparser than the default ratio (30 clicks/item instead of 100):
    // item-to-item CF thrives on dense co-occurrence, so sparsity is where
    // the paper's embedding approach earns its keep — mirroring the real
    // system, where most of a billion items are long-tail.
    let mut config = CorpusConfig::scaled(2_000, 11);
    config.n_sessions /= 3;
    let corpus = GeneratedCorpus::generate(config);
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let sgns = SgnsConfig {
        dim: 32,
        window: 3,
        negatives: 5,
        epochs: 2,
        ..Default::default()
    };
    let (model, report) = SisgModel::train_on_sessions(
        &split.train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        Variant::SisgFUD,
        &sgns,
    )
    .expect("valid config");
    println!(
        "trained {} tokens in {:.1}s ({:.0} tokens/s)",
        report.tokens,
        report.stats.seconds,
        report.stats.tokens_per_second()
    );

    println!("\n== artifact hand-off ==");
    let blob = codec::encode(model.store());
    println!("serialized embedding artifact: {} KB", blob.len() / 1_000);
    let reloaded = codec::decode(&blob).expect("artifact decodes");
    let serving = SisgModel::from_store(Variant::SisgFUD, model.space().clone(), reloaded)
        .expect("artifact covers the token space");

    println!("\n== serving: SISG vs CF on held-out next clicks ==");
    let cf = CfModel::train(&split.train, corpus.config.n_items, &CfConfig::default());
    let ks = [1, 10, 50];

    // The paper's motivation is sparsity: CF is excellent on hot items but
    // has nothing to say for the long tail. Split the evaluation by query
    // popularity to see both regimes.
    let freq = split.train.item_clicks(corpus.config.n_items);
    let tail: Vec<_> = split
        .eval
        .iter()
        .copied()
        .filter(|c| freq[c.query.index()] <= 15)
        .collect();
    println!(
        "{} eval cases total, {} with a long-tail query item (<=15 clicks)",
        split.eval.len(),
        tail.len()
    );
    for (label, cases) in [("all queries", &split.eval), ("tail queries", &tail)] {
        let sisg_hr = evaluate_hit_rates("SISG-F-U-D", &serving, cases, &ks);
        let cf_hr = evaluate_hit_rates("CF", &cf, cases, &ks);
        println!("\n  [{label}]");
        println!(
            "  {:>12}  {:>8}  {:>8}  {:>8}",
            "model", "HR@1", "HR@10", "HR@50"
        );
        for r in [&sisg_hr, &cf_hr] {
            println!(
                "  {:>12}  {:>8.4}  {:>8.4}  {:>8.4}",
                r.model, r.hr[0], r.hr[1], r.hr[2]
            );
        }
    }

    // Sanity check that serialization round-tripped the actual model: the
    // served candidates must match the in-memory model's.
    let q = split.eval[0].query;
    assert_eq!(model.retrieve(q, 10), serving.retrieve(q, 10));
    println!("\nserved candidates verified identical to the training-job model");
}
