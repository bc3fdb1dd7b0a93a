//! Training drivers: a single-threaded reference path and two parallel
//! engines — the ownership-partitioned one (`crate::partitioned`,
//! docs/PARALLELISM.md) and atomic Hogwild — selected per workload by
//! [`resolve_engine`] when [`SgnsConfig::engine`](crate::config::TrainEngine)
//! is `Auto` (the default).
//!
//! All drivers consume any [`Sequences`] source — enriched SISG sequences,
//! plain item sequences, or EGES random-walk corpora — and produce an
//! [`EmbeddingStore`]. Learning rate decays linearly with processed-token
//! progress, exactly as in word2vec.

use crate::config::SgnsConfig;
use crate::noise::NoiseTable;
use crate::sampler::{PairSampler, SubsampleTable, WindowMode};
use crate::sgd::{train_pair, train_pair_mut, PairScratch};
use crate::sigmoid::SigmoidTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::{EnrichedCorpus, TokenId};
use sisg_embedding::EmbeddingStore;
use sisg_obs::{names, registry, Counter, Gauge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A source of training sequences.
pub trait Sequences: Sync {
    /// Number of sequences.
    fn n_sequences(&self) -> usize;
    /// The `i`-th sequence.
    fn sequence(&self, i: usize) -> &[TokenId];

    /// Total tokens across all sequences (used for LR scheduling).
    fn total_tokens(&self) -> u64 {
        (0..self.n_sequences())
            .map(|i| self.sequence(i).len() as u64)
            .sum()
    }
}

impl Sequences for EnrichedCorpus {
    fn n_sequences(&self) -> usize {
        self.len()
    }
    fn sequence(&self, i: usize) -> &[TokenId] {
        EnrichedCorpus::sequence(self, i)
    }
    fn total_tokens(&self) -> u64 {
        EnrichedCorpus::total_tokens(self)
    }
}

impl Sequences for Vec<Vec<TokenId>> {
    fn n_sequences(&self) -> usize {
        self.len()
    }
    fn sequence(&self, i: usize) -> &[TokenId] {
        &self[i]
    }
}

/// Counters of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Positive pairs processed (negatives excluded).
    pub pairs: u64,
    /// Tokens surviving subsampling, summed over epochs.
    pub tokens: u64,
    /// Tokens seen before subsampling, summed over epochs.
    pub raw_tokens: u64,
    /// Mean negative-sampling loss over the run.
    pub avg_loss: f64,
    /// Wall-clock seconds of the training loop.
    pub seconds: f64,
}

impl TrainStats {
    /// Training throughput in tokens per second.
    pub fn tokens_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tokens as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Training throughput in positive pairs per second — what the
    /// benchmark's `train_local` workload reports as `sgns.pairs_per_s`.
    pub fn pairs_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.pairs as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fraction of corpus tokens removed by Mikolov subsampling.
    pub fn subsample_drop_rate(&self) -> f64 {
        if self.raw_tokens > 0 {
            1.0 - self.tokens as f64 / self.raw_tokens as f64
        } else {
            0.0
        }
    }
}

/// Per-chunk accumulator: the hot loop writes plain locals here and the
/// driver flushes them to the obs registry once per epoch per thread, so
/// instrumentation costs nothing inside the pair loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkStats {
    pub(crate) pairs: u64,
    /// Tokens surviving subsampling.
    pub(crate) tokens: u64,
    /// Tokens seen before subsampling.
    pub(crate) raw_tokens: u64,
    pub(crate) loss_sum: f64,
    pub(crate) loss_count: u64,
    /// Effective (decayed) learning rate at the last trained pair.
    pub(crate) last_lr: f32,
}

impl ChunkStats {
    pub(crate) fn merge(&mut self, o: &ChunkStats) {
        self.pairs += o.pairs;
        self.tokens += o.tokens;
        self.raw_tokens += o.raw_tokens;
        self.loss_sum += o.loss_sum;
        self.loss_count += o.loss_count;
        self.last_lr = o.last_lr;
    }

    pub(crate) fn avg_loss(&self) -> f64 {
        if self.loss_count > 0 {
            self.loss_sum / self.loss_count as f64
        } else {
            0.0
        }
    }

    /// Publishes this chunk's deltas to the global registry.
    pub(crate) fn flush_to_obs(&self) {
        let m = sgns_metrics();
        m.pairs.add(self.pairs);
        m.tokens.add(self.tokens);
        m.dropped.add(self.raw_tokens.saturating_sub(self.tokens));
        m.lr.set(self.last_lr as f64);
        if self.raw_tokens > 0 {
            m.drop_rate
                .set(1.0 - self.tokens as f64 / self.raw_tokens as f64);
        }
        if self.loss_count > 0 {
            // Approximate EMA across flushes; concurrent flushers may
            // interleave get/set, which only blurs the smoothing — fine
            // for a convergence-trend gauge.
            let prev = m.loss_ema.get();
            let cur = self.avg_loss();
            m.loss_ema.set(if prev == 0.0 {
                cur
            } else {
                0.8 * prev + 0.2 * cur
            });
        }
    }
}

/// Cached `&'static` handles so flushing never takes the registry lock.
struct SgnsMetrics {
    pairs: &'static Counter,
    tokens: &'static Counter,
    dropped: &'static Counter,
    loss_ema: &'static Gauge,
    lr: &'static Gauge,
    drop_rate: &'static Gauge,
}

fn sgns_metrics() -> &'static SgnsMetrics {
    static M: OnceLock<SgnsMetrics> = OnceLock::new();
    M.get_or_init(|| SgnsMetrics {
        pairs: registry().counter(names::SGNS_PAIRS_TOTAL),
        tokens: registry().counter(names::SGNS_TOKENS_TOTAL),
        dropped: registry().counter(names::SGNS_TOKENS_DROPPED_TOTAL),
        loss_ema: registry().gauge(names::SGNS_LOSS_EMA),
        lr: registry().gauge(names::SGNS_LR),
        drop_rate: registry().gauge(names::SGNS_SUBSAMPLE_DROP_RATE),
    })
}

/// Counts per-token frequencies of `seqs` over a vocabulary of `n_tokens`.
pub fn count_freqs<S: Sequences + ?Sized>(seqs: &S, n_tokens: usize) -> Vec<u64> {
    let mut freqs = vec![0u64; n_tokens];
    for i in 0..seqs.n_sequences() {
        for t in seqs.sequence(i) {
            freqs[t.index()] += 1;
        }
    }
    freqs
}

/// Trains SGNS embeddings over `seqs` with vocabulary size `n_tokens`.
///
/// With `config.threads == 1` this is the exact, deterministic reference
/// path; larger thread counts switch to the engine selected by
/// `config.engine` — per-workload auto-selection by default
/// ([`resolve_engine`]), with both engines explicitly pinnable.
///
/// ```
/// use sisg_corpus::TokenId;
/// use sisg_sgns::{train, SgnsConfig};
///
/// // Tokens 0 and 1 always co-occur.
/// let seqs: Vec<Vec<TokenId>> = (0..50)
///     .map(|_| vec![TokenId(0), TokenId(1)])
///     .collect();
/// // subsample is disabled: with a two-token vocabulary every token is
/// // "hot" and Mikolov subsampling would drop the whole corpus.
/// let cfg = SgnsConfig {
///     dim: 8, window: 1, negatives: 2, epochs: 2, subsample: 0.0,
///     ..Default::default()
/// };
/// let (store, stats) = train(&seqs, 4, &cfg);
/// assert!(stats.pairs > 0);
/// assert_eq!(store.dim(), 8);
/// ```
pub fn train<S: Sequences + ?Sized>(
    seqs: &S,
    n_tokens: usize,
    config: &SgnsConfig,
) -> (EmbeddingStore, TrainStats) {
    config.validate().expect("invalid SGNS config");
    let freqs = count_freqs(seqs, n_tokens);
    train_with_freqs(seqs, &freqs, config)
}

/// Like [`train`] but with precomputed frequencies (avoids a corpus scan
/// when the caller already has the dictionary).
pub fn train_with_freqs<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
) -> (EmbeddingStore, TrainStats) {
    let store = EmbeddingStore::new(freqs.len(), config.dim, config.seed);
    train_into(seqs, freqs, config, store)
}

/// Warm-start training: continues from an existing store instead of a
/// fresh initialization — the daily-update path, where yesterday's vectors
/// are a far better starting point than random and the job converges in a
/// fraction of the epochs.
///
/// # Panics
/// Panics when the store's token count differs from `freqs.len()` or its
/// dimensionality differs from `config.dim`.
pub fn train_into<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
    store: EmbeddingStore,
) -> (EmbeddingStore, TrainStats) {
    assert_eq!(store.n_tokens(), freqs.len(), "store/vocab size mismatch");
    assert_eq!(store.dim(), config.dim, "store/config dim mismatch");
    if config.threads <= 1 {
        train_single(seqs, freqs, config, store)
    } else {
        match resolve_engine(freqs, config) {
            crate::config::TrainEngine::Partitioned => {
                let plan = crate::partition::OwnershipPlan::balanced_by_frequency(
                    freqs,
                    config.threads,
                    if config.hot_set_size == 0 {
                        crate::partition::OwnershipPlan::auto_hot_k(freqs.len())
                    } else {
                        config.hot_set_size
                    },
                );
                crate::partitioned::train_partitioned_into(seqs, freqs, config, store, &plan)
            }
            _ => train_parallel_into(seqs, freqs, config, store),
        }
    }
}

/// Online/streaming increment: folds one bounded batch of fresh sequences
/// into an existing store at a **flat** learning rate — the entry point of
/// the `crates/stream` ingest pipeline.
///
/// Differs from [`train_into`] (the warm-start *batch* path) in exactly
/// the ways an endless stream requires:
///
/// - **Flat learning rate.** The linear word2vec decay assumes a known
///   corpus size; a stream has none, so every increment trains at
///   `config.learning_rate` throughout. Implemented by pinning
///   `min_learning_rate` to `learning_rate`, which turns the decay floor
///   into the whole schedule without touching the kernels.
/// - **Cumulative tables.** `freqs` are the stream's *cumulative* token
///   counts over everything ingested so far, not the batch's: the noise
///   and subsampling tables rebuilt from them match a from-scratch build
///   over the same event prefix exactly (the drift rule `crates/stream`
///   documents in DESIGN.md §12 and property-tests).
/// - **Quiet-interval tolerance.** An empty batch, or counts still all
///   zero, is a no-op returning zeroed stats — never a panic (a from-
///   scratch build would have nothing to train either).
///
/// Engine selection respects [`TrainEngine::Auto`](crate::config::TrainEngine)
/// through [`resolve_engine`], like every batch path; `threads <= 1` takes
/// the exact single-threaded kernel so a seeded stream replays
/// bit-identically.
///
/// # Panics
/// Like [`train_into`]: when the store's token count differs from
/// `freqs.len()` or its dimensionality differs from `config.dim`.
pub fn train_increment<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
    store: EmbeddingStore,
) -> (EmbeddingStore, TrainStats) {
    if seqs.n_sequences() == 0 || freqs.iter().all(|&f| f == 0) {
        return (store, TrainStats::default());
    }
    let flat = SgnsConfig {
        min_learning_rate: config.learning_rate,
        ..config.clone()
    };
    train_into(seqs, freqs, &flat, store)
}

/// Above this many expected updates on the single hottest row per thread
/// per merge round, `TrainEngine::Auto` picks Hogwild over the partitioned
/// engine: per-round summed deltas on such rows are dominated by the
/// correlated systematic gradient component, so every merge overshoots
/// into the trust-region clip and the hot head advances at the bounded
/// clip rate instead of its true gradient rate — Hogwild's
/// immediately-visible writes have no such bound. Calibrated on the
/// offline corpus family: partitioned-healthy workloads measure ≤ ~50,
/// the frequency-enriched ones that need Hogwild measure ≥ ~2500
/// (docs/PARALLELISM.md §5).
const HOT_ROW_ROUND_UPDATE_LIMIT: f64 = 256.0;

/// Expected post-subsampling updates on the single hottest row per thread
/// per merge round — the statistic [`resolve_engine`] thresholds.
fn hottest_row_round_updates(freqs: &[u64], config: &SgnsConfig) -> f64 {
    let subsample = SubsampleTable::new(freqs, config.subsample);
    let max_kept = freqs
        .iter()
        .enumerate()
        .map(|(i, &c)| c as f64 * subsample.keep_prob(TokenId(i as u32)) as f64)
        .fold(0.0f64, f64::max);
    // A kept occurrence contributes ~2·window row updates (input side as
    // target, output side as context); constants beyond that are absorbed
    // by the threshold.
    max_kept * 2.0 * config.window as f64
        / (config.replica_sync_rounds.max(1) as f64 * config.threads as f64)
}

/// Resolves [`TrainEngine::Auto`] against a concrete workload: returns the
/// engine `threads > 1` training will actually run (never `Auto`).
/// Explicit engine choices pass through untouched.
///
/// Two rules, both measured on the offline corpus family
/// (docs/PARALLELISM.md §5):
///
/// 1. **Hot-row density** — partitioned unless the hottest row's expected
///    update density per thread per merge round exceeds
///    [`HOT_ROW_ROUND_UPDATE_LIMIT`]; hot-dominated corpora (tiny
///    vocabularies, frequency-enriched side information) need Hogwild's
///    immediate write visibility, while partitionable corpora get the
///    deterministic non-atomic engine.
/// 2. **Directional windows** — directional training retrieves by
///    `input · output`, which leans on exactly the output rows the
///    partitioned engine trains only against owner-local negative draws;
///    the measured deficit is well outside the quality band (HR@10 0.16
///    vs Hogwild's 0.29 on the directional offline variant) even though
///    the density statistic looks healthy, so Auto routes directional
///    workloads to Hogwild.
///
/// Pure function of `(freqs, config)`, so the choice is reproducible for a
/// fixed corpus.
pub fn resolve_engine(freqs: &[u64], config: &SgnsConfig) -> crate::config::TrainEngine {
    match config.engine {
        crate::config::TrainEngine::Auto => {
            if config.window_mode == WindowMode::RightOnly
                || hottest_row_round_updates(freqs, config) > HOT_ROW_ROUND_UPDATE_LIMIT
            {
                crate::config::TrainEngine::AtomicHogwild
            } else {
                crate::config::TrainEngine::Partitioned
            }
        }
        explicit => explicit,
    }
}

struct EpochContext<'a> {
    noise: &'a NoiseTable,
    subsample: &'a SubsampleTable,
    sampler: PairSampler,
    sigmoid: &'a SigmoidTable,
    config: &'a SgnsConfig,
    /// Denominator of the linear LR schedule: epochs × total tokens.
    schedule_tokens: u64,
}

/// Per-worker reusable buffers of the chunk loop: allocated once per
/// thread, reused across every sequence and epoch — the hot loop itself
/// never allocates.
pub(crate) struct ChunkBuffers {
    pub(crate) filtered: Vec<TokenId>,
    pub(crate) negatives: Vec<TokenId>,
    /// `for_each_pair` needs the rng; pairs are drawn into this buffer
    /// first to keep a single mutable borrow of rng at a time.
    pub(crate) pair_buf: Vec<(TokenId, TokenId)>,
    pub(crate) scratch: PairScratch,
}

impl ChunkBuffers {
    pub(crate) fn new(dim: usize, negatives: usize) -> Self {
        Self {
            filtered: Vec::with_capacity(64),
            negatives: Vec::with_capacity(negatives),
            pair_buf: Vec::with_capacity(256),
            scratch: PairScratch::new(dim),
        }
    }
}

/// Processes the sequences `range` once, applying `pair_fn` to every
/// sampled pair (the Hogwild [`train_pair`] or the exact
/// [`train_pair_mut`], pre-bound to its matrices). `progress` counts
/// tokens globally across threads and epochs; all bookkeeping lands in
/// the plain-local `stats` (the caller flushes it to obs after the chunk,
/// keeping the pair loop instrumentation-free).
#[allow(clippy::too_many_arguments)]
fn run_chunk<S, F>(
    seqs: &S,
    range: std::ops::Range<usize>,
    ctx: &EpochContext<'_>,
    progress: &AtomicU64,
    rng: &mut StdRng,
    stats: &mut ChunkStats,
    buf: &mut ChunkBuffers,
    mut pair_fn: F,
) where
    S: Sequences + ?Sized,
    F: FnMut(TokenId, TokenId, &[TokenId], f32, &mut PairScratch) -> f64,
{
    for i in range {
        let seq = seqs.sequence(i);
        ctx.subsample.filter_into(seq, rng, &mut buf.filtered);
        // ORDERING: Relaxed — shared token counter for the lr decay; Hogwild
        // workers tolerate stale progress and publish nothing through it.
        let done = progress.fetch_add(seq.len() as u64, Ordering::Relaxed);
        stats.raw_tokens += seq.len() as u64;
        stats.tokens += buf.filtered.len() as u64;

        // Linear LR decay by global token progress.
        let frac = (done as f64 / ctx.schedule_tokens.max(1) as f64).min(1.0);
        let lr = (ctx.config.learning_rate as f64 * (1.0 - frac))
            .max(ctx.config.min_learning_rate as f64) as f32;
        stats.last_lr = lr;

        ctx.sampler
            .pairs_into(&buf.filtered, rng, &mut buf.pair_buf);
        for idx in 0..buf.pair_buf.len() {
            let (target, context) = buf.pair_buf[idx];
            ctx.noise
                .sample_into(&mut buf.negatives, ctx.config.negatives, rng);
            let loss = pair_fn(target, context, &buf.negatives, lr, &mut buf.scratch);
            stats.pairs += 1;
            stats.loss_sum += loss;
            stats.loss_count += 1;
        }
    }
}

pub(crate) fn train_single<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
    mut store: EmbeddingStore,
) -> (EmbeddingStore, TrainStats) {
    if freqs.iter().all(|&f| f == 0) {
        // Empty corpus: nothing to train, return the initialized store.
        return (store, TrainStats::default());
    }
    let noise = NoiseTable::from_freqs(freqs, config.noise_exponent);
    let subsample = SubsampleTable::new(freqs, config.subsample);
    let sigmoid = SigmoidTable::new();
    let ctx = EpochContext {
        noise: &noise,
        subsample: &subsample,
        sampler: PairSampler {
            window: config.window,
            mode: config.window_mode,
            dynamic: false,
        },
        sigmoid: &sigmoid,
        config,
        schedule_tokens: seqs.total_tokens() * config.epochs as u64,
    };

    let progress = AtomicU64::new(0);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7124);
    let mut total = ChunkStats::default();
    let mut buf = ChunkBuffers::new(config.dim, config.negatives);
    let span = sisg_obs::span(names::SGNS_TRAIN_SPAN);
    // Single-threaded ⇒ exclusive matrices ⇒ the exact non-atomic path
    // (bit-identical to the Hogwild path, see `crate::sgd`, but the
    // plain-slice kernels vectorize).
    let (input, output) = store.matrices_mut();
    for _epoch in 0..config.epochs {
        let mut epoch_stats = ChunkStats::default();
        run_chunk(
            seqs,
            0..seqs.n_sequences(),
            &ctx,
            &progress,
            &mut rng,
            &mut epoch_stats,
            &mut buf,
            |target, context, negatives, lr, scratch| {
                train_pair_mut(
                    input, output, target, context, negatives, lr, &sigmoid, scratch,
                )
            },
        );
        epoch_stats.flush_to_obs();
        total.merge(&epoch_stats);
    }
    let stats = TrainStats {
        pairs: total.pairs,
        tokens: total.tokens,
        raw_tokens: total.raw_tokens,
        avg_loss: total.avg_loss(),
        seconds: span.finish().as_secs_f64(),
    };
    publish_throughput(&stats);
    (store, stats)
}

/// Publishes end-of-run throughput gauges.
pub(crate) fn publish_throughput(stats: &TrainStats) {
    registry()
        .gauge(names::SGNS_PAIRS_PER_SEC)
        .set(stats.pairs_per_second());
    registry()
        .gauge(names::SGNS_TOKENS_PER_SEC)
        .set(stats.tokens_per_second());
}

/// Hogwild parallel training: threads share the matrices without locks and
/// split the sequence range per epoch.
fn train_parallel_into<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
    store: EmbeddingStore,
) -> (EmbeddingStore, TrainStats) {
    if freqs.iter().all(|&f| f == 0) {
        return (store, TrainStats::default());
    }
    let noise = NoiseTable::from_freqs(freqs, config.noise_exponent);
    let subsample = SubsampleTable::new(freqs, config.subsample);
    let sigmoid = SigmoidTable::new();
    let ctx = EpochContext {
        noise: &noise,
        subsample: &subsample,
        sampler: PairSampler {
            window: config.window,
            mode: config.window_mode,
            dynamic: false,
        },
        sigmoid: &sigmoid,
        config,
        schedule_tokens: seqs.total_tokens() * config.epochs as u64,
    };

    let progress = AtomicU64::new(0);
    let n = seqs.n_sequences();
    let threads = config.threads.min(n.max(1));
    let chunk = n.div_ceil(threads.max(1));
    let span = sisg_obs::span(names::SGNS_TRAIN_SPAN);

    let mut total = ChunkStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let range = (t * chunk).min(n)..((t + 1) * chunk).min(n);
            let store = &store;
            let ctx = &ctx;
            let progress = &progress;
            let seed = config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut thread_total = ChunkStats::default();
                let mut buf = ChunkBuffers::new(ctx.config.dim, ctx.config.negatives);
                let input = store.input_matrix();
                let output = store.output_matrix();
                for _epoch in 0..ctx.config.epochs {
                    let mut epoch_stats = ChunkStats::default();
                    run_chunk(
                        seqs,
                        range.clone(),
                        ctx,
                        progress,
                        &mut rng,
                        &mut epoch_stats,
                        &mut buf,
                        |target, context, negatives, lr, scratch| {
                            train_pair(
                                input,
                                output,
                                target,
                                context,
                                negatives,
                                lr,
                                ctx.sigmoid,
                                scratch,
                            )
                        },
                    );
                    epoch_stats.flush_to_obs();
                    thread_total.merge(&epoch_stats);
                }
                thread_total
            }));
        }
        for h in handles {
            let thread_total = h.join().expect("training thread panicked");
            total.merge(&thread_total);
        }
    });
    let stats = TrainStats {
        pairs: total.pairs,
        tokens: total.tokens,
        raw_tokens: total.raw_tokens,
        avg_loss: total.avg_loss(),
        seconds: span.finish().as_secs_f64(),
    };
    publish_throughput(&stats);
    (store, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainEngine;
    use sisg_embedding::math::cosine;

    /// Two "topics" of tokens; sequences stay within a topic. Embeddings
    /// must cluster by topic.
    fn topic_corpus(seed: u64) -> Vec<Vec<TokenId>> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = Vec::new();
        for _ in 0..400 {
            let topic = if rng.gen_bool(0.5) { 0u32 } else { 10u32 };
            let seq: Vec<TokenId> = (0..8)
                .map(|_| TokenId(topic + rng.gen_range(0u32..10)))
                .collect();
            seqs.push(seq);
        }
        seqs
    }

    fn small_config() -> SgnsConfig {
        SgnsConfig {
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 5,
            subsample: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn learns_topic_structure() {
        let seqs = topic_corpus(1);
        let (store, stats) = train(&seqs, 20, &small_config());
        assert!(stats.pairs > 1_000);
        // Within-topic similarity must exceed cross-topic similarity.
        let within = cosine(store.input(TokenId(1)), store.input(TokenId(2)));
        let cross = cosine(store.input(TokenId(1)), store.input(TokenId(12)));
        assert!(
            within > cross + 0.2,
            "within {within} should beat cross {cross}"
        );
    }

    #[test]
    fn single_thread_is_deterministic() {
        let seqs = topic_corpus(2);
        let cfg = small_config();
        let (a, _) = train(&seqs, 20, &cfg);
        let (b, _) = train(&seqs, 20, &cfg);
        assert_eq!(a.input(TokenId(5)), b.input(TokenId(5)));
        assert_eq!(a.output(TokenId(5)), b.output(TokenId(5)));
    }

    #[test]
    fn parallel_training_learns_too() {
        let seqs = topic_corpus(3);
        let cfg = small_config().with_threads(4);
        let (store, stats) = train(&seqs, 20, &cfg);
        assert!(stats.pairs > 1_000);
        let within = cosine(store.input(TokenId(3)), store.input(TokenId(4)));
        let cross = cosine(store.input(TokenId(3)), store.input(TokenId(14)));
        assert!(
            within > cross + 0.15,
            "within {within} should beat cross {cross}"
        );
    }

    #[test]
    fn directional_mode_trains() {
        // Chain corpus: 0 → 1 → 2 → 3; directional training should place
        // output(successor) near input(predecessor).
        let seqs: Vec<Vec<TokenId>> = (0..300).map(|_| (0..4).map(TokenId).collect()).collect();
        let cfg = SgnsConfig {
            window: 1,
            window_mode: WindowMode::RightOnly,
            ..small_config()
        };
        let (store, _) = train(&seqs, 4, &cfg);
        use sisg_embedding::math::dot;
        let forward = dot(store.input(TokenId(0)), store.output(TokenId(1)));
        let backward = dot(store.input(TokenId(1)), store.output(TokenId(0)));
        assert!(
            forward > backward,
            "forward {forward} must beat backward {backward}"
        );
    }

    #[test]
    fn stats_track_throughput() {
        let seqs = topic_corpus(4);
        let (_, stats) = train(&seqs, 20, &small_config());
        assert!(stats.tokens > 0);
        assert!(stats.raw_tokens >= stats.tokens);
        assert!((0.0..=1.0).contains(&stats.subsample_drop_rate()));
        assert!(stats.seconds >= 0.0);
        assert!(stats.tokens_per_second() > 0.0);
        assert!(stats.avg_loss > 0.0);
        // The run must also have published to the global registry.
        use sisg_obs::{names, registry};
        assert!(registry().counter(names::SGNS_PAIRS_TOTAL).get() >= stats.pairs);
        assert!(registry().gauge(names::SGNS_LR).get() > 0.0);
    }

    #[test]
    fn warm_start_converges_faster() {
        let seqs = topic_corpus(9);
        let mut cfg = small_config();
        cfg.epochs = 3;
        let (warm_store, _) = train(&seqs, 20, &cfg);
        // One extra epoch, warm vs cold.
        let one_epoch = SgnsConfig {
            epochs: 1,
            learning_rate: 0.01,
            ..small_config()
        };
        let freqs = count_freqs(&seqs, 20);
        let (_, warm_stats) = train_into(&seqs, &freqs, &one_epoch, warm_store);
        let (_, cold_stats) = train_with_freqs(&seqs, &freqs, &one_epoch);
        assert!(
            warm_stats.avg_loss < cold_stats.avg_loss,
            "warm start should sit at lower loss: {} vs {}",
            warm_stats.avg_loss,
            cold_stats.avg_loss
        );
    }

    #[test]
    fn increment_trains_flat_and_tolerates_quiet_intervals() {
        let seqs = topic_corpus(11);
        let freqs = count_freqs(&seqs, 20);
        let cfg = SgnsConfig {
            epochs: 1,
            learning_rate: 0.02,
            ..small_config()
        };
        let store = EmbeddingStore::new(20, cfg.dim, cfg.seed);
        let before = store.input(TokenId(1)).to_vec();
        let (store, stats) = train_increment(&seqs, &freqs, &cfg, store);
        assert!(stats.pairs > 0, "an increment with data must train");
        assert_ne!(before, store.input(TokenId(1)), "rows must move");

        // Flat schedule: bit-identical to the batch path with the decay
        // floor pinned to the base rate — the documented implementation.
        let flat = SgnsConfig {
            min_learning_rate: cfg.learning_rate,
            ..cfg.clone()
        };
        let (reference, _) = train_into(
            &seqs,
            &freqs,
            &flat,
            EmbeddingStore::new(20, cfg.dim, cfg.seed),
        );
        assert_eq!(store.input(TokenId(1)), reference.input(TokenId(1)));

        // Quiet intervals: empty batch and all-zero counts are no-ops.
        let empty: Vec<Vec<TokenId>> = Vec::new();
        let (store, stats) = train_increment(&empty, &freqs, &cfg, store);
        assert_eq!(stats.pairs, 0);
        let zeros = vec![0u64; 20];
        let (_, stats) = train_increment(&seqs, &zeros, &cfg, store);
        assert_eq!(stats.pairs, 0, "all-zero counts must not reach NoiseTable");
    }

    #[test]
    fn increment_is_deterministic_for_a_fixed_seed() {
        let seqs = topic_corpus(12);
        let freqs = count_freqs(&seqs, 20);
        let cfg = SgnsConfig {
            epochs: 1,
            ..small_config()
        };
        let run = || {
            let store = EmbeddingStore::new(20, cfg.dim, cfg.seed);
            let (store, _) = train_increment(&seqs, &freqs, &cfg, store);
            store
        };
        let (a, b) = (run(), run());
        assert_eq!(a.input(TokenId(7)), b.input(TokenId(7)));
        assert_eq!(a.output(TokenId(7)), b.output(TokenId(7)));
    }

    #[test]
    #[should_panic(expected = "store/config dim mismatch")]
    fn warm_start_rejects_dim_mismatch() {
        let seqs = topic_corpus(2);
        let freqs = count_freqs(&seqs, 20);
        let store = EmbeddingStore::new(20, 8, 1);
        let _ = train_into(&seqs, &freqs, &small_config(), store);
    }

    #[test]
    fn empty_corpus_returns_initialized_store() {
        let seqs: Vec<Vec<TokenId>> = Vec::new();
        let (store, stats) = train(&seqs, 10, &small_config());
        assert_eq!(store.n_tokens(), 10);
        assert_eq!(stats.pairs, 0);
        let (store2, _) = train(&seqs, 10, &small_config().with_threads(3));
        assert_eq!(store2.n_tokens(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid SGNS config")]
    fn invalid_config_panics() {
        let seqs = topic_corpus(5);
        let cfg = SgnsConfig {
            dim: 0,
            ..Default::default()
        };
        let _ = train(&seqs, 20, &cfg);
    }

    #[test]
    fn resolve_engine_passes_explicit_choices_through() {
        let freqs = vec![100u64; 8];
        let cfg = small_config();
        for engine in [TrainEngine::Partitioned, TrainEngine::AtomicHogwild] {
            assert_eq!(
                resolve_engine(&freqs, &cfg.clone().with_engine(engine)),
                engine
            );
        }
    }

    #[test]
    fn resolve_engine_picks_partitioned_for_flat_corpora() {
        // Flat frequency profile, generous vocabulary: the hottest row sees
        // few updates per thread per round — the partitionable regime.
        let freqs = vec![50u64; 1000];
        let cfg = small_config()
            .with_engine(TrainEngine::Auto)
            .with_threads(4);
        assert_eq!(resolve_engine(&freqs, &cfg), TrainEngine::Partitioned);
    }

    #[test]
    fn resolve_engine_picks_hogwild_for_hot_dominated_corpora() {
        // One super-hot token dominating a tiny vocabulary (the
        // frequency-enriched regime): density on the hot row far exceeds
        // the per-round limit even after subsampling.
        let mut freqs = vec![10u64; 8];
        freqs[0] = 10_000_000;
        let cfg = small_config()
            .with_engine(TrainEngine::Auto)
            .with_threads(4);
        assert_eq!(resolve_engine(&freqs, &cfg), TrainEngine::AtomicHogwild);
    }

    #[test]
    fn resolve_engine_picks_hogwild_for_directional_windows() {
        // Directional retrieval scores input·output — routed to Hogwild
        // regardless of density (see resolve_engine docs).
        let freqs = vec![50u64; 1000];
        let cfg = small_config()
            .with_engine(TrainEngine::Auto)
            .with_threads(4)
            .with_window_mode(WindowMode::RightOnly);
        assert_eq!(resolve_engine(&freqs, &cfg), TrainEngine::AtomicHogwild);
    }
}
