//! Exact work budgets of the training loop and of Section III's threaded
//! runtime, its exchange included.
//!
//! Time cannot be gated on a noisy host; work can, because work is
//! deterministic. Each budget below is a named constant next to the
//! formula it equals today, pinned on a tiny corpus with fixed seeds. A
//! change that makes training cheaper per unit of work leaves every
//! constant as it is; a change that does less (or more) work per pair
//! must edit the constant, and say so.

use taobao_sisg::corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use taobao_sisg::distributed::{DistConfig, DistReport, TrainingPipeline, EXCHANGE_TOKENS};
use taobao_sisg::sgns::{train, PairKinds, SgnsConfig, TrainStats};

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
/// Those pairs by the kinds of their tokens (`PairKinds`, counted by the
/// `PairStream`): Eq. 4's enrichment turns a click sequence into mostly
/// SI↔SI work. The four sum to `PAIRS_PER_EPOCH`. No item→item pair: a
/// FULL sequence puts eight SI tokens between two clicks, more than
/// `WINDOW` positions.
const PAIR_KINDS_PER_EPOCH: PairKinds = PairKinds {
    item_item: 0,
    item_si: 118_488,
    si_si: 437_208,
    user: 9_000,
};
const _: () = assert!(PAIR_KINDS_PER_EPOCH.total() == PAIRS_PER_EPOCH);
/// Noise draws per pair: exactly `NEGATIVES`, none skipped, none redrawn.
const NOISE_DRAWS_PER_PAIR: u64 = NEGATIVES as u64;
/// Output rows stepped per pair at most: the context plus `NEGATIVES`.
/// A negative that draws the pair's own context is dropped, so the exact
/// total below sits a little under `pairs × MAX_ROWS_STEPPED_PER_PAIR`.
const MAX_ROWS_STEPPED_PER_PAIR: u64 = 1 + NEGATIVES as u64;
/// Output rows stepped over the run (seed 7): every pair's context plus
/// its kept negatives.
const ROWS_STEPPED: u64 = 6_738_723;

fn config() -> SgnsConfig {
    SgnsConfig {
        dim: 8,
        window: WINDOW,
        negatives: NEGATIVES,
        epochs: EPOCHS,
        subsample: 0.0,
        seed: 7,
        ..Default::default()
    }
}

fn run() -> (u64, TrainStats) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let per_epoch = enriched.count_positive_pairs(WINDOW, false);
    let (_, stats) = train(&enriched, enriched.space().len(), &config());
    (per_epoch, stats)
}

#[test]
fn training_work_per_pair_is_pinned() {
    let (per_epoch, stats) = run();
    assert_eq!(per_epoch, PAIRS_PER_EPOCH, "pairs per epoch moved");
    let epochs = EPOCHS as u64;
    let k = PAIR_KINDS_PER_EPOCH;
    assert_eq!(
        stats.pair_kinds,
        PairKinds {
            item_item: k.item_item * epochs,
            item_si: k.item_si * epochs,
            si_si: k.si_si * epochs,
            user: k.user * epochs,
        },
        "pairs by kind moved"
    );
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

// ---- Section III: one fixed 2-worker run of the threaded runtime ----

/// Workers of the pinned Section III run.
const DIST_WORKERS: usize = 2;
/// Embedding width of the pinned Section III run.
const DIST_DIM: usize = 8;
/// Sequences between two averagings of the hot set `Q`.
const DIST_SYNC_INTERVAL: usize = 500;
/// Sequences of the tiny corpus (`EnrichedCorpus::len`).
const DIST_SEQUENCES: usize = 1_500;
/// Pairs each worker is responsible for: its owned targets plus the hot
/// targets of its sequence shard, after subsampling (scan seed 7).
const DIST_PAIRS_PER_WORKER: [u64; DIST_WORKERS] = [130_352, 142_004];
/// Each worker's pairs by kind, `[item→item, item↔SI, SI↔SI, user]`
/// (`DistReport::pair_kinds_per_worker`); a row sums to that worker's
/// `DIST_PAIRS_PER_WORKER`. Subsampling drops SI tokens, so some clicks
/// come within `WINDOW` of each other.
const DIST_PAIR_KINDS_PER_WORKER: [[u64; 4]; DIST_WORKERS] = [
    [2_541, 55_003, 68_317, 4_491],
    [1_515, 51_542, 84_504, 4_443],
];
/// Pairs whose context another worker owns: one TNS request each.
const DIST_REMOTE_PAIRS: u64 = 121_020;
/// Requests the owners serve: exactly one per remote pair.
const DIST_REQUESTS_SERVED: u64 = DIST_REMOTE_PAIRS;
/// Bytes a cluster moves per remote pair: the target row out, the
/// gradient back.
const DIST_BYTES_PER_REMOTE_PAIR: u64 = 2 * DIST_DIM as u64 * 4;
/// Averagings of `Q`: one per started block of `DIST_SYNC_INTERVAL`
/// sequences, per epoch (one epoch).
const DIST_SYNC_ROUNDS: u64 = DIST_SEQUENCES.div_ceil(DIST_SYNC_INTERVAL) as u64;
/// Exchange blocks per epoch: inside each sync round, the runs of whole
/// sequences that first reach `EXCHANGE_TOKENS` enriched tokens, or the
/// end of the round ([`exchange_blocks_per_epoch`]).
const DIST_EXCHANGE_BLOCKS_PER_EPOCH: u64 = 92;
/// Messages of the fault-free run: a batch and its answer per ordered pair
/// of workers per block, and one set of replicas per ordered pair per
/// averaging of `Q` (one epoch).
const DIST_MESSAGES: u64 = (2 * DIST_EXCHANGE_BLOCKS_PER_EPOCH + DIST_SYNC_ROUNDS)
    * (DIST_WORKERS * (DIST_WORKERS - 1)) as u64;
/// Output rows stepped per pair at most, local or served: the context
/// plus `NEGATIVES`.
const DIST_MAX_ROWS_STEPPED_PER_PAIR: u64 = 1 + NEGATIVES as u64;
/// Output rows stepped over the whole run: every pair's context plus its
/// kept negatives, on the owners' noise streams.
const DIST_ROWS_STEPPED: u64 = 1_625_425;

/// The exchange blocks every worker cuts from `enriched` in one epoch.
fn exchange_blocks_per_epoch(enriched: &EnrichedCorpus<'_>) -> u64 {
    let n = enriched.len();
    let mut blocks = 0;
    for round in (0..n).step_by(DIST_SYNC_INTERVAL) {
        let round_end = (round + DIST_SYNC_INTERVAL).min(n);
        let mut start = round;
        while start < round_end {
            let mut tokens = 0;
            while start < round_end && tokens < EXCHANGE_TOKENS {
                tokens += enriched.sequence_len(start);
                start += 1;
            }
            blocks += 1;
        }
    }
    blocks
}

fn dist_run() -> (usize, u64, DistReport) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let config = DistConfig {
        workers: DIST_WORKERS,
        dim: DIST_DIM,
        window: WINDOW,
        negatives: NEGATIVES,
        epochs: 1,
        hot_set_size: 32,
        sync_interval: DIST_SYNC_INTERVAL,
        seed: 7,
        ..Default::default()
    };
    let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, config);
    let sequences = pipeline.enriched.len();
    let blocks = exchange_blocks_per_epoch(&pipeline.enriched);
    (sequences, blocks, pipeline.train().1)
}

#[test]
fn section_iii_work_per_pair_is_pinned() {
    let (sequences, blocks, report) = dist_run();
    assert_eq!(sequences, DIST_SEQUENCES, "sequences moved");
    assert_eq!(
        blocks, DIST_EXCHANGE_BLOCKS_PER_EPOCH,
        "exchange blocks per epoch moved"
    );
    assert_eq!(report.exchange_blocks, blocks, "blocks exchanged");
    assert_eq!(report.messages, DIST_MESSAGES, "messages per block moved");
    assert_eq!(
        report.pairs_per_worker, DIST_PAIRS_PER_WORKER,
        "pairs per worker moved"
    );
    assert_eq!(
        report.pair_kinds_per_worker, DIST_PAIR_KINDS_PER_WORKER,
        "pairs by kind per worker moved"
    );
    for (kinds, pairs) in DIST_PAIR_KINDS_PER_WORKER.iter().zip(DIST_PAIRS_PER_WORKER) {
        assert_eq!(kinds.iter().sum::<u64>(), pairs, "kinds must sum to pairs");
    }
    assert_eq!(report.remote_pairs, DIST_REMOTE_PAIRS, "remote pairs moved");
    assert_eq!(
        report.requests_served, DIST_REQUESTS_SERVED,
        "requests served per remote pair moved"
    );
    // comm_bytes_per_pair = 2·dim·4 × remote share, exactly.
    assert_eq!(
        report.pair_comm_bytes,
        report.remote_pairs * DIST_BYTES_PER_REMOTE_PAIR,
        "bytes per remote pair moved"
    );
    assert_eq!(report.sync_rounds, DIST_SYNC_ROUNDS, "sync rounds moved");
    assert_eq!(
        report.rows_stepped, DIST_ROWS_STEPPED,
        "output rows stepped moved"
    );
    let pairs = report.total_pairs();
    assert!(report.rows_stepped <= pairs * DIST_MAX_ROWS_STEPPED_PER_PAIR);
    assert!(report.rows_stepped >= pairs, "every pair steps its context");
}
