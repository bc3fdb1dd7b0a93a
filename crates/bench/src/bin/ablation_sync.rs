//! Ablation: **hot-set synchronization semantics** (DESIGN.md §6).
//!
//! The paper synchronizes replicated hot-token vectors by *averaging* "at
//! regular intervals". Averaging divides the gradient mass accumulated
//! since the last barrier by the worker count — invisible when every hot
//! token receives billions of updates, crippling at simulation scale. This
//! run quantifies the difference against the delta-sum (parameter-server
//! push) reconciliation, and against disabling replication entirely, on
//! next-item HR.

use sisg_bench::{env_u64, env_usize};
use sisg_core::{SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::{train_distributed, PartitionStrategy};
use sisg_distributed::{DistConfig, SyncMode};
use sisg_eval::{evaluate_hit_rates, ExperimentTable};

fn main() {
    let items = env_usize("SISG_ITEMS", 2_000) as u32;
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(items, env_u64("SISG_SEED", 42)));
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let enriched = EnrichedCorpus::build_from_sessions(
        &split.train,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        EnrichOptions::NONE,
    );
    let space = TokenSpace::new(
        corpus.config.n_items,
        corpus.catalog.cardinalities(),
        corpus.users.n_user_types(),
    );
    eprintln!("corpus: {} items, {} eval cases", items, split.eval.len());

    let mut table = ExperimentTable::new(
        "Ablation — ATNS replica synchronization (4 workers, |Q|=128)",
        &["reconciliation", "HR@10", "HR@20", "sync rounds"],
    );
    for (label, hot, mode) in [
        ("delta-sum (default)", 128usize, SyncMode::DeltaSum),
        ("averaging (paper-literal)", 128, SyncMode::Average),
        ("no replication (|Q|=0)", 0, SyncMode::DeltaSum),
    ] {
        let cfg = DistConfig {
            workers: 4,
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 2,
            hot_set_size: hot,
            sync_interval: 2_000,
            sync_mode: mode,
            strategy: PartitionStrategy::Hbgp { beta: 1.2 },
            ..Default::default()
        };
        let (store, report) = train_distributed(&enriched, &split.train, &corpus.catalog, &cfg);
        let model =
            SisgModel::from_store(Variant::Sgns, space.clone(), store).expect("store covers space");
        let hr = evaluate_hit_rates(label, &model, &split.eval, &[10, 20]);
        table.push_row(vec![
            label.into(),
            format!("{:.4}", hr.hr[0]),
            format!("{:.4}", hr.hr[1]),
            report.sync_rounds.to_string(),
        ]);
        eprintln!("{label}: done");
    }
    print!("{}", table.render());
    println!(
        "\nreading: reconciliation is an effective-learning-rate dial on hot \
         tokens. Averaging ≈ LR/w (starves them when barriers are frequent \
         relative to their update count — the failure mode on very small \
         corpora); delta-sum ≈ LR×w (overshoots when each round carries many \
         redundant updates — the regime here, where averaging's damping \
         actually stabilizes hot vectors). The paper's averaging choice is \
         sound at production update densities; pick per deployment scale."
    );
    sisg_bench::finish("ablation_sync", &table);
}
