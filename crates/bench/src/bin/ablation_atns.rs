//! Ablation: **ATNS hot-set size sweep** (DESIGN.md §4).
//!
//! The shared set `Q` trades pair-routing communication against replica
//! synchronization cost and staleness. Sweeping |Q| shows the knee: SI
//! tokens are so hot that a small `Q` removes most remote pairs; growing
//! `Q` further only inflates sync traffic.

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
        format!("Ablation — ATNS shared hot-set size |Q| ({workers} workers)"),
        &[
            "|Q|",
            "remote pair frac",
            "pair comm (MB)",
            "sync comm (MB)",
            "total comm (MB)",
            "pair imbalance",
        ],
    );

    for hot in [0usize, 16, 64, 256, 1024, 4096] {
        let cfg = DistConfig {
            workers,
            dim: 32,
            window: 4,
            negatives: 5,
            epochs: 1,
            hot_set_size: hot,
            sync_interval: 4_000,
            strategy: PartitionStrategy::Hbgp { beta: 1.2 },
            ..Default::default()
        };
        let (_, r) = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, cfg).train();
        table.push_row(vec![
            hot.to_string(),
            format!("{:.4}", r.remote_fraction()),
            format!("{:.1}", r.pair_comm_bytes as f64 / 1e6),
            format!("{:.1}", r.sync_comm_bytes as f64 / 1e6),
            format!("{:.1}", r.total_comm_bytes() as f64 / 1e6),
            format!("{:.3}", r.pair_imbalance()),
        ]);
        eprintln!("|Q|={hot}: done ({:.1}s)", r.seconds);
    }
    print!("{}", table.render());
    println!(
        "\nexpected: remote fraction collapses once Q covers the SI tokens \
         (they dominate pair endpoints); past the knee sync cost grows linearly"
    );
    sisg_bench::finish("ablation_atns", &table);
}
