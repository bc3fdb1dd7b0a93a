//! HR@10 tolerance gate for the partitioned parallel engine (ISSUE 7 /
//! ROADMAP item 1): multi-thread partitioned training must retrieve
//! within tolerance of the exact single-threaded reference. This is the
//! quality half of the scaling acceptance; docs/PARALLELISM.md §6 says
//! what measures the throughput half.

use sisg_core::{SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::{CorpusConfig, GeneratedCorpus};
use sisg_eval::evaluate_hit_rates;
use sisg_sgns::{SgnsConfig, TrainEngine};

#[test]
fn partitioned_hr10_is_within_tolerance_of_single_thread() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(600, 42));
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let hr10 = |threads: usize| -> f64 {
        let cfg = SgnsConfig {
            dim: 24,
            window: 3,
            negatives: 5,
            epochs: 2,
            threads,
            // Pin the engine: this gate measures the partitioned path even
            // if the Auto density rule would route this corpus elsewhere.
            engine: TrainEngine::Partitioned,
            ..Default::default()
        };
        let (model, report) = SisgModel::train_on_sessions(
            &split.train,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            Variant::Sgns,
            &cfg,
        )
        .expect("train");
        assert!(report.stats.pairs > 0, "threads {threads} trained nothing");
        evaluate_hit_rates("sgns", &model, &split.eval, &[10])
            .at(10)
            .expect("HR@10 present")
    };
    let single = hr10(1);
    let partitioned = hr10(4);
    assert!(
        single > 0.0,
        "reference HR@10 must be non-trivial: {single}"
    );
    // Tolerance: the partitioned engine trades exactness for scaling
    // (local negatives, bounded replica staleness, cross-shard input
    // gradients delayed to the next merge) — it must stay within 20%
    // relative HR@10, the band the distributed ATNS experiments hold.
    assert!(
        partitioned >= single * 0.8,
        "partitioned HR@10 {partitioned} fell more than 20% below single-thread {single}"
    );
}
