//! Exact work budgets of the training loop.
//!
//! Time cannot be gated on a noisy host; work can, because work is
//! deterministic. Each budget below is a named constant next to the
//! formula it equals today, pinned on a tiny corpus with fixed seeds. A
//! change that makes training cheaper per unit of work leaves every
//! constant as it is; a change that does less (or more) work per pair
//! must edit the constant, and say so.

use taobao_sisg::corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use taobao_sisg::sgns::{train, SgnsConfig, TrainStats};

/// Window half-width of the pinned run (symmetric windows).
const WINDOW: usize = 3;
/// Negatives drawn for every positive pair.
const NEGATIVES: usize = 5;
/// Passes over the corpus.
const EPOCHS: usize = 2;

/// Positive pairs per epoch: with subsampling off every token survives,
/// so this is `EnrichedCorpus::count_positive_pairs(WINDOW, false)` of the
/// tiny corpus enriched with `EnrichOptions::FULL`.
const PAIRS_PER_EPOCH: u64 = 564_696;
/// Noise draws per pair: exactly `NEGATIVES`, none skipped, none redrawn.
const NOISE_DRAWS_PER_PAIR: u64 = NEGATIVES as u64;
/// Output rows stepped per pair at most: the context plus `NEGATIVES`.
/// A negative that draws the pair's own context is dropped, so the exact
/// total below sits a little under `pairs × MAX_ROWS_STEPPED_PER_PAIR`.
const MAX_ROWS_STEPPED_PER_PAIR: u64 = 1 + NEGATIVES as u64;
/// Output rows stepped over the single-threaded run (seed 7): every
/// pair's context plus its kept negatives.
const ROWS_STEPPED: u64 = 6_738_723;

fn config(threads: usize) -> SgnsConfig {
    SgnsConfig {
        dim: 8,
        window: WINDOW,
        negatives: NEGATIVES,
        epochs: EPOCHS,
        subsample: 0.0,
        seed: 7,
        threads,
        ..Default::default()
    }
}

fn run(threads: usize) -> (u64, TrainStats) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let per_epoch = enriched.count_positive_pairs(WINDOW, false);
    let (_, stats) = train(&enriched, enriched.space().len(), &config(threads));
    (per_epoch, stats)
}

#[test]
fn training_work_per_pair_is_pinned() {
    let (per_epoch, stats) = run(1);
    assert_eq!(per_epoch, PAIRS_PER_EPOCH, "pairs per epoch moved");
    assert_eq!(
        stats.pairs,
        PAIRS_PER_EPOCH * EPOCHS as u64,
        "pairs trained"
    );
    assert_eq!(
        stats.noise_draws,
        stats.pairs * NOISE_DRAWS_PER_PAIR,
        "noise draws per pair moved"
    );
    assert_eq!(
        stats.rows_stepped, ROWS_STEPPED,
        "output rows stepped moved"
    );
    assert!(stats.rows_stepped <= stats.pairs * MAX_ROWS_STEPPED_PER_PAIR);
    assert!(
        stats.rows_stepped >= stats.pairs,
        "every pair steps its context"
    );
}

/// Hogwild splits the same sequences between threads: the same pairs and
/// draws, while which negatives collide with a context follows each
/// thread's own stream.
#[test]
fn hogwild_does_the_same_work_per_pair() {
    let (_, stats) = run(2);
    assert_eq!(stats.pairs, PAIRS_PER_EPOCH * EPOCHS as u64);
    assert_eq!(stats.noise_draws, stats.pairs * NOISE_DRAWS_PER_PAIR);
    assert!(stats.rows_stepped <= stats.pairs * MAX_ROWS_STEPPED_PER_PAIR);
    assert!(stats.rows_stepped >= stats.pairs);
}
