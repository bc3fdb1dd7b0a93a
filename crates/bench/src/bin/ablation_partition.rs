//! Ablation: **HBGP vs hash partitioning** (DESIGN.md §4).
//!
//! Isolates what the smart partitioner buys: the fraction of pairs that
//! need cross-worker traffic, total bytes moved, and the item-frequency
//! load balance. The paper motivates HBGP with exactly this trade-off
//! (Section III-B).

use sisg_bench::{env_u64, env_usize};
use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{DistConfig, TrainingPipeline};
use sisg_eval::ExperimentTable;

fn main() {
    let items = env_usize("SISG_FIG7_ITEMS", 4_000) as u32;
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(items, env_u64("SISG_SEED", 42)));
    let workers = env_usize("SISG_FIG7_WORKERS", 8);

    let mut table = ExperimentTable::new(
        format!("Ablation — partitioning strategy ({workers} workers, {items} items)"),
        &[
            "strategy",
            "cut fraction",
            "remote pair frac",
            "item-item remote frac",
            "pair comm (MB)",
            "item-load imbalance",
            "pair imbalance",
        ],
    );

    for (label, strategy) in [
        ("hbgp (beta=1.2)", PartitionStrategy::Hbgp { beta: 1.2 }),
        ("hash", PartitionStrategy::Hash),
    ] {
        let cfg = DistConfig {
            workers,
            dim: 32,
            window: 4,
            negatives: 5,
            epochs: 1,
            hot_set_size: 1024,
            sync_interval: 4_000,
            strategy,
            ..Default::default()
        };
        let (_, r) = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, cfg).train();
        table.push_row(vec![
            label.into(),
            format!("{:.4}", r.cut_fraction),
            format!("{:.4}", r.remote_fraction()),
            format!("{:.4}", r.item_remote_fraction()),
            format!("{:.1}", r.pair_comm_bytes as f64 / 1e6),
            format!("{:.3}", r.imbalance),
            format!("{:.3}", r.pair_imbalance()),
        ]);
        eprintln!("{label}: done ({:.1}s)", r.seconds);
    }
    print!("{}", table.render());
    println!(
        "\nexpected: HBGP slashes the cut fraction (category-coherent sessions) \
         at a modest imbalance cost bounded by beta"
    );
    sisg_bench::finish("ablation_partition", &table);
}
