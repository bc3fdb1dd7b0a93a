//! The observability overhead guard: recording primitives must cost less
//! than 2% of the work they instrument, so turning the metrics layer on
//! never shows up in experiment numbers.
//!
//! Three ratios are guarded, one per hot path:
//!
//! 1. **Training** — a counter add / gauge set against one `train_pair`
//!    step at the paper's production shape (d=128, 20 negatives). The
//!    trainers are even cheaper than this bound suggests: they accumulate
//!    in plain locals and touch the registry once per epoch.
//! 2. **Section III phases** — the phase clock's laps and per-round
//!    histogram records against the pairs of one exchange block.
//! 3. **Serving / retrieval** — the full per-request recording bundle
//!    (stopwatch start + read, latency histogram record, two counter
//!    increments) against one ANN search over a small index, the retrieval
//!    op a production request pays for.
//!
//! Timing robustness: each cost is the minimum of several measurement
//! rounds (noise only ever inflates a round), and the thresholds sit ~10x
//! above the observed ratios on an idle machine.

use sisg_ann::{HnswConfig, QHnswIndex};
use sisg_corpus::TokenId;
use sisg_embedding::{Matrix, QuantMatrix};
use sisg_obs::{registry, Stopwatch};
use sisg_sgns::sgd::train_pair;
use sisg_sgns::sigmoid::SigmoidTable;
use std::hint::black_box;

/// Minimum-of-rounds per-op cost in nanoseconds.
fn ns_per_op<F: FnMut()>(iters: u32, rounds: u32, mut op: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let watch = Stopwatch::start();
        for _ in 0..iters {
            op();
        }
        best = best.min(watch.elapsed_seconds() * 1e9 / f64::from(iters));
    }
    best
}

/// One `train_pair` step at the production shape (d=128, 20 negatives).
fn train_pair_ns() -> f64 {
    let dim = 128;
    let mut input = Matrix::uniform_init(1000, dim, 1);
    let mut output = Matrix::uniform_init(1000, dim, 2);
    let sigmoid = SigmoidTable::new();
    let negs: Vec<TokenId> = (2..22).map(TokenId).collect();
    let mut scratch = sisg_sgns::PairScratch::new(dim);
    ns_per_op(2_000, 5, || {
        train_pair(
            &mut input,
            &mut output,
            TokenId(0),
            TokenId(1),
            black_box(&negs),
            0.025,
            &sigmoid,
            &mut scratch,
        );
    })
}

#[test]
fn counter_and_gauge_cost_under_2_percent_of_a_training_step() {
    let pair_ns = train_pair_ns();

    let counter = registry().counter("overhead.counter");
    let counter_ns = ns_per_op(1_000_000, 5, || counter.add(black_box(1)));
    let gauge = registry().gauge("overhead.gauge");
    let gauge_ns = ns_per_op(1_000_000, 5, || gauge.set(black_box(0.5)));

    assert!(counter.get() > 0, "the measured adds must actually record");
    assert!(
        counter_ns < 0.02 * pair_ns,
        "counter add must be <2% of train_pair: {counter_ns:.1}ns vs {pair_ns:.1}ns"
    );
    assert!(
        gauge_ns < 0.02 * pair_ns,
        "gauge set must be <2% of train_pair: {gauge_ns:.1}ns vs {pair_ns:.1}ns"
    );
}

#[test]
fn request_recording_bundle_under_2_percent_of_an_ann_search() {
    let vectors = Matrix::uniform_init(2_000, 32, 7);
    let index = QHnswIndex::build(QuantMatrix::from_matrix(&vectors), HnswConfig::default());
    let query: Vec<f32> = vectors.row(0).to_vec();
    let search_ns = ns_per_op(200, 5, || {
        black_box(index.search(black_box(&query), 10));
    });

    // Everything a serve worker records for one warm request
    // (`ServingSnapshot::serve`).
    let requests = registry().counter("overhead.requests");
    let hits = registry().counter("overhead.hits");
    let latency = registry().histogram("overhead.latency_us");
    let bundle_ns = ns_per_op(200_000, 5, || {
        let watch = Stopwatch::start();
        requests.inc();
        hits.inc();
        latency.record_duration(watch.elapsed());
    });

    assert!(latency.count() > 0, "the measured bundle must record");
    assert!(
        bundle_ns < 0.02 * search_ns,
        "per-request recording must be <2% of one ANN search: \
         {bundle_ns:.1}ns vs {search_ns:.1}ns"
    );
}

/// Section III's phase clock: per exchange block a worker takes five laps
/// and, at most, records five phase histograms (once per sync round),
/// against the pairs the block steps. At `tests/work_budget.rs`'s shape a
/// worker steps ~1 500 pairs per block; the guard assumes only 100.
#[test]
fn phase_clock_cost_under_2_percent_of_an_exchange_block() {
    let block_ns = 100.0 * train_pair_ns();
    let mut clock = Stopwatch::start();
    let lap_ns = ns_per_op(100_000, 5, || {
        black_box(clock.lap());
    });
    let phase = registry().histogram("overhead.phase.ns");
    let record_ns = ns_per_op(100_000, 5, || phase.record(black_box(12_345)));

    assert!(phase.count() > 0, "the measured records must record");
    let per_block_ns = 5.0 * (lap_ns + record_ns);
    assert!(
        per_block_ns < 0.02 * block_ns,
        "phase clock must be <2% of an exchange block: \
         {per_block_ns:.1}ns vs {block_ns:.1}ns"
    );
}
