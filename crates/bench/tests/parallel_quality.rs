//! HR@10 tolerance gate for multi-thread training: 4-thread Hogwild must
//! retrieve within tolerance of the exact single-threaded reference, on
//! the SI-free baseline and on the paper's full model.

use sisg_core::{SisgModel, Variant};
use sisg_corpus::split::{NextItemSplit, SplitStage};
use sisg_corpus::{CorpusConfig, GeneratedCorpus};
use sisg_eval::evaluate_hit_rates;
use sisg_sgns::SgnsConfig;

#[test]
fn hogwild_hr10_is_within_tolerance_of_single_thread() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(600, 42));
    let split = NextItemSplit::default().split(&corpus.sessions, SplitStage::Test);
    let hr10 = |variant: Variant, threads: usize| -> f64 {
        let cfg = SgnsConfig {
            dim: 24,
            window: 3,
            negatives: 5,
            epochs: 2,
            threads,
            ..Default::default()
        };
        let (model, report) = SisgModel::train_on_sessions(
            &split.train,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            variant,
            &cfg,
        )
        .expect("train");
        assert!(report.stats.pairs > 0, "threads {threads} trained nothing");
        evaluate_hit_rates(variant.name(), &model, &split.eval, &[10])
            .at(10)
            .expect("HR@10 present")
    };
    for variant in [Variant::Sgns, Variant::SisgFUD] {
        let single = hr10(variant, 1);
        let hogwild = hr10(variant, 4);
        println!("{variant:?}: HR@10 single {single:.3}, 4-thread {hogwild:.3}");
        assert!(
            single > 0.0,
            "{variant:?}: reference HR@10 must be non-trivial: {single}"
        );
        // Tolerance: Hogwild trades exactness for lock-free sharing (lost
        // updates, stale lr progress) — it must stay within 20% relative
        // HR@10, the band the distributed ATNS experiments hold.
        assert!(
            hogwild >= single * 0.8,
            "{variant:?}: 4-thread HR@10 {hogwild} fell more than 20% below single-thread {single}"
        );
    }
}
