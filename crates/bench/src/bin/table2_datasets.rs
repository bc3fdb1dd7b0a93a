//! Regenerates **Table II**: statistics of the three dataset scales.
//!
//! Taobao25M / Taobao100M / Taobao800M are scaled down by 1000× to 25k /
//! 100k / 800k items (override with `SISG_TABLE2_SCALES`, a comma-separated
//! item-count list). All Table II ratios are preserved: ~8 SI per item,
//! ~9 tokens per click, positive pairs from the window sampler, training
//! pairs = positives × (1 + 20 negatives).

use sisg_bench::env_u64;
use sisg_corpus::{CorpusConfig, DatasetStats, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_eval::ExperimentTable;

fn scales() -> Vec<u32> {
    std::env::var("SISG_TABLE2_SCALES")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![25_000, 100_000, 800_000])
}

fn main() {
    let seed = env_u64("SISG_SEED", 42);
    let window = 5;
    let negatives = 20; // the paper's production ratio

    let mut table = ExperimentTable::new(
        "Table II — dataset statistics (paper scales / 1000)",
        &[
            "dataset",
            "#Items",
            "#SI",
            "#User types",
            "#Tokens",
            "#Positive pairs",
            "#Training pairs",
        ],
    );

    let mut asymmetry: Option<f64> = None;
    for items in scales() {
        let name = format!("taobao-{}k", items / 1000);
        eprintln!("generating {name} ({items} items)...");
        let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(items, seed));
        if asymmetry.is_none() {
            // Section II-C estimates ~20% of item pairs have significantly
            // different forward/backward click counts; measure it on the
            // smallest corpus.
            asymmetry = Some(sisg_corpus::stats::asymmetry_rate(&corpus, 8, 2.0));
        }
        let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
        let stats = DatasetStats::compute(&name, &corpus, &enriched, window, negatives);
        table.push_row(vec![
            stats.name.clone(),
            stats.n_items.to_string(),
            stats.n_si.to_string(),
            stats.n_user_types.to_string(),
            format!("{:.2e}", stats.n_tokens as f64),
            format!("{:.2e}", stats.n_positive_pairs as f64),
            format!("{:.2e}", stats.n_training_pairs as f64),
        ]);
    }

    print!("{}", table.render());
    if let Some(rate) = asymmetry {
        println!(
            "\nbehavior asymmetry: {:.1}% of frequent item pairs are strongly \
             one-directional (paper Section II-C estimates ~20%)",
            rate * 100.0
        );
    }
    println!(
        "paper reference (Taobao25M): #Items 2.55e7, #Tokens 2.3e10, \
         #Positive 2.0e11, #Training 4.2e12 (at 20 negatives)"
    );
    sisg_bench::finish("table2_datasets", &table);
}
