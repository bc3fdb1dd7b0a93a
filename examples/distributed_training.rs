//! The distributed training engine end-to-end: enrich sequences, partition
//! the dictionary with HBGP, train with ATNS across simulated workers, and
//! inspect the communication/balance accounting that motivated the design.
//!
//! Run with: `cargo run --release --example distributed_training`

use taobao_sisg::corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
use taobao_sisg::distributed::runtime::PartitionStrategy;
use taobao_sisg::distributed::{DistConfig, TrainingPipeline};

fn main() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(2_000, 5));
    println!(
        "corpus: {} items, {} clicks\n",
        corpus.config.n_items,
        corpus.sessions.total_clicks()
    );

    for (label, strategy, hot) in [
        (
            "HBGP + ATNS (production design)",
            PartitionStrategy::Hbgp { beta: 1.2 },
            256,
        ),
        ("hash partitioning, no hot set", PartitionStrategy::Hash, 0),
    ] {
        let config = DistConfig {
            workers: 4,
            dim: 32,
            window: 4,
            negatives: 5,
            epochs: 1,
            hot_set_size: hot,
            sync_interval: 2_000,
            strategy,
            ..Default::default()
        };
        let (_store, report) =
            TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, config).train();
        println!("== {label} ==");
        println!("  pairs/worker:     {:?}", report.pairs_per_worker);
        println!(
            "  remote fraction:  {:.1}%",
            report.remote_fraction() * 100.0
        );
        println!(
            "  comm: {:.1} MB pair traffic + {:.1} MB hot-set sync ({} rounds)",
            report.pair_comm_bytes as f64 / 1e6,
            report.sync_comm_bytes as f64 / 1e6,
            report.sync_rounds
        );
        println!(
            "  cut fraction {:.3}, item-load imbalance {:.2}, pair imbalance {:.2}\n",
            report.cut_fraction,
            report.imbalance,
            report.pair_imbalance()
        );
    }
    println!(
        "the production design wins on remote fraction (HBGP keeps category-\n\
         coherent sessions worker-local; ATNS keeps hot SI tokens local) at\n\
         the price of periodic replica averaging."
    );
}
