//! Ablation: **β (HBGP imbalance bound) sweep** (DESIGN.md §4).
//!
//! β trades balance for cut size: small β forces balanced partitions at
//! the cost of splitting hot category clusters apart; large β lets heavy
//! categories co-locate (small cut) but loads one worker. The paper picks
//! β = 1.2 "empirically" — this sweep shows what that choice buys.

use sisg_bench::{env_u64, env_usize};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::partition::assign_all;
use sisg_distributed::HbgpPartitioner;
use sisg_eval::ExperimentTable;

fn main() {
    let items = env_usize("SISG_FIG7_ITEMS", 4_000) as u32;
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(items, env_u64("SISG_SEED", 42)));
    // The balance cap binds when per-worker capacity is comparable to the
    // largest leaf categories — at this catalog size that means many
    // workers, matching the paper's production 32.
    let workers = env_usize("SISG_FIG7_WORKERS", 32);
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let space = TokenSpace::new(
        corpus.config.n_items,
        corpus.catalog.cardinalities(),
        corpus.users.n_user_types(),
    );
    let item_freqs = &enriched.vocab().freqs()[..corpus.config.n_items as usize];

    let mut table = ExperimentTable::new(
        format!("Ablation — HBGP beta sweep ({workers} workers, {items} items)"),
        &["beta", "cut fraction", "item-load imbalance"],
    );
    for beta in [1.0f64, 1.05, 1.2, 1.5, 2.0, 4.0] {
        let partitioner = HbgpPartitioner {
            beta,
            ..Default::default()
        };
        let map = assign_all(
            &partitioner,
            &corpus.sessions,
            &corpus.catalog,
            &space,
            workers,
            env_u64("SISG_SEED", 42),
        );
        table.push_row(vec![
            format!("{beta:.2}"),
            format!("{:.4}", map.cut_fraction(&corpus.sessions)),
            format!("{:.3}", map.imbalance(item_freqs)),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper production setting: beta = 1.2");
    sisg_bench::finish("ablation_beta", &table);
}
