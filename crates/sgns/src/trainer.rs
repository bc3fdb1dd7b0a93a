//! The training driver: one exact, single-threaded pass over exclusively
//! owned matrices, bit-reproducible run to run. Parallel training —
//! vocabulary partitions, hot-row replicas, barrier reconciliation (paper
//! Section III) — lives in `crates/distributed`.
//!
//! Both entry points consume any [`Sequences`] source — enriched SISG
//! sequences, plain item sequences, or EGES random-walk corpora — and
//! produce an [`EmbeddingStore`]. Learning rate decays linearly with
//! processed-token progress, exactly as in word2vec ([`linear_lr`]); the
//! tables and the schedule are built once, in `EpochContext::new`.

use crate::config::SgnsConfig;
use crate::noise::NoiseTable;
use crate::sampler::{PairSampler, SubsampleTable};
use crate::sgd::{train_pair, PairScratch};
use crate::sigmoid::SigmoidTable;
use crate::stream::{PairKinds, PairStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{EnrichedCorpus, TokenId};
use sisg_embedding::{EmbeddingStore, Matrix};
use sisg_obs::{names, registry, Counter, Gauge};
use std::sync::OnceLock;

/// A source of training sequences. Readers expand one sequence at a time
/// into a buffer they reuse, so a source never has to hold its sequences
/// as one token array (an [`EnrichedCorpus`] expands Eq. 4 on demand).
pub trait Sequences {
    /// Number of sequences.
    fn n_sequences(&self) -> usize;
    /// Writes the `i`-th sequence into `out`, replacing its contents.
    fn sequence_into(&self, i: usize, out: &mut Vec<TokenId>);

    /// Total tokens across all sequences (used for LR scheduling).
    fn total_tokens(&self) -> u64;
    /// The token space the sequences are drawn from, which sorts pairs by
    /// kind; `None` for plain item sequences.
    fn space(&self) -> Option<&TokenSpace> {
        None
    }
}

impl Sequences for EnrichedCorpus<'_> {
    fn n_sequences(&self) -> usize {
        self.len()
    }
    fn sequence_into(&self, i: usize, out: &mut Vec<TokenId>) {
        EnrichedCorpus::sequence_into(self, i, out)
    }
    fn total_tokens(&self) -> u64 {
        EnrichedCorpus::total_tokens(self)
    }
    fn space(&self) -> Option<&TokenSpace> {
        Some(EnrichedCorpus::space(self))
    }
}

impl Sequences for Vec<Vec<TokenId>> {
    fn n_sequences(&self) -> usize {
        self.len()
    }
    fn sequence_into(&self, i: usize, out: &mut Vec<TokenId>) {
        out.clear();
        out.extend_from_slice(&self[i]);
    }
    fn total_tokens(&self) -> u64 {
        self.iter().map(|s| s.len() as u64).sum()
    }
}

/// Counters of one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Positive pairs processed (negatives excluded).
    pub pairs: u64,
    /// Negatives drawn from the noise table: `negatives` per pair.
    pub noise_draws: u64,
    /// Output rows stepped: per pair the context plus every negative that
    /// is not the context, so at most `1 + negatives` per pair.
    pub rows_stepped: u64,
    /// Tokens surviving subsampling, summed over epochs.
    pub tokens: u64,
    /// Tokens seen before subsampling, summed over epochs.
    pub raw_tokens: u64,
    /// Positive pairs by the kinds of their tokens; they sum to `pairs`.
    pub pair_kinds: PairKinds,
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

/// Per-epoch accumulator: the hot loop writes plain locals here and the
/// driver flushes them to the obs registry once per epoch, so
/// instrumentation costs nothing inside the pair loop.
#[derive(Debug, Clone, Default)]
struct EpochStats {
    pairs: u64,
    noise_draws: u64,
    rows_stepped: u64,
    /// Tokens surviving subsampling.
    tokens: u64,
    /// Tokens seen before subsampling.
    raw_tokens: u64,
    pair_kinds: PairKinds,
    loss_sum: f64,
    /// Effective (decayed) learning rate at the last trained pair.
    last_lr: f32,
}

impl EpochStats {
    fn merge(&mut self, o: &EpochStats) {
        self.pairs += o.pairs;
        self.noise_draws += o.noise_draws;
        self.rows_stepped += o.rows_stepped;
        self.tokens += o.tokens;
        self.raw_tokens += o.raw_tokens;
        self.pair_kinds.add(&o.pair_kinds);
        self.loss_sum += o.loss_sum;
        self.last_lr = o.last_lr;
    }

    fn avg_loss(&self) -> f64 {
        if self.pairs > 0 {
            self.loss_sum / self.pairs as f64
        } else {
            0.0
        }
    }

    /// Closes a run: the totals as [`TrainStats`], with the end-of-run
    /// throughput gauges published.
    fn finish(&self, seconds: f64) -> TrainStats {
        let stats = TrainStats {
            pairs: self.pairs,
            noise_draws: self.noise_draws,
            rows_stepped: self.rows_stepped,
            tokens: self.tokens,
            raw_tokens: self.raw_tokens,
            pair_kinds: self.pair_kinds,
            avg_loss: self.avg_loss(),
            seconds,
        };
        registry()
            .gauge(names::SGNS_PAIRS_PER_SEC)
            .set(stats.pairs_per_second());
        registry()
            .gauge(names::SGNS_TOKENS_PER_SEC)
            .set(stats.tokens_per_second());
        stats
    }

    /// Publishes this epoch's deltas to the global registry.
    fn flush_to_obs(&self) {
        let m = sgns_metrics();
        m.pairs.add(self.pairs);
        m.tokens.add(self.tokens);
        m.dropped.add(self.raw_tokens.saturating_sub(self.tokens));
        let kinds = &self.pair_kinds;
        for (counter, n) in
            m.kinds
                .iter()
                .zip([kinds.item_item, kinds.item_si, kinds.si_si, kinds.user])
        {
            counter.add(n);
        }
        m.lr.set(self.last_lr as f64);
        if self.raw_tokens > 0 {
            m.drop_rate
                .set(1.0 - self.tokens as f64 / self.raw_tokens as f64);
        }
        if self.pairs > 0 {
            // EMA across flushes: a convergence-trend gauge.
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
    /// `sgns.pairs.<kind>_total`, in [`PairKinds`] field order.
    kinds: [&'static Counter; 4],
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
        kinds: names::SGNS_PAIR_KINDS_TOTAL.map(|name| registry().counter(name)),
        loss_ema: registry().gauge(names::SGNS_LOSS_EMA),
        lr: registry().gauge(names::SGNS_LR),
        drop_rate: registry().gauge(names::SGNS_SUBSAMPLE_DROP_RATE),
    })
}

/// Counts per-token frequencies of `seqs` over a vocabulary of `n_tokens`.
pub fn count_freqs<S: Sequences + ?Sized>(seqs: &S, n_tokens: usize) -> Vec<u64> {
    let mut freqs = vec![0u64; n_tokens];
    let mut seq = Vec::new();
    for i in 0..seqs.n_sequences() {
        seqs.sequence_into(i, &mut seq);
        for t in &seq {
            freqs[t.index()] += 1;
        }
    }
    freqs
}

/// Trains SGNS embeddings over `seqs` with vocabulary size `n_tokens`.
///
/// The run is exact and deterministic: the same sequences, counts and
/// config give the same store, bit for bit.
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
    let store = EmbeddingStore::new(n_tokens, config.dim, config.seed);
    train_into(seqs, &freqs, config, store)
}

/// Warm-start training: continues from an existing store instead of a
/// fresh initialization — the daily-update path, where yesterday's vectors
/// are a far better starting point than random and the job converges in a
/// fraction of the epochs.
///
/// It is also the stream's per-batch fold (`crates/stream`): `freqs` are
/// then the cumulative counts of everything ingested so far, and the
/// caller sets `min_learning_rate = learning_rate`, which turns the decay
/// floor into a flat schedule. All-zero `freqs` train nothing and return
/// the store as it came.
///
/// # Panics
/// Panics when the store's token count differs from `freqs.len()` or its
/// dimensionality differs from `config.dim`.
pub fn train_into<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    config: &SgnsConfig,
    mut store: EmbeddingStore,
) -> (EmbeddingStore, TrainStats) {
    assert_eq!(store.n_tokens(), freqs.len(), "store/vocab size mismatch");
    assert_eq!(store.dim(), config.dim, "store/config dim mismatch");
    if freqs.iter().all(|&f| f == 0) {
        // Empty corpus: nothing to train, return the store as it came.
        return (store, TrainStats::default());
    }
    let ctx = EpochContext::new(freqs, config, seqs.total_tokens());
    let span = sisg_obs::span(names::SGNS_TRAIN_SPAN);
    let (input, output) = store.matrices_mut();
    let total = run_epochs(seqs, &ctx, input, output);
    let stats = total.finish(span.finish().as_secs_f64());
    (store, stats)
}

/// The word2vec learning-rate schedule, shared by every trainer in the
/// workspace: linear decay from `learning_rate` by progress `done / total`
/// (tokens or pairs, whichever the caller counts), clamped at
/// `min_learning_rate`. `done ≥ total` sits on the floor; `total == 0`
/// counts as one unit, so nothing divides by zero.
pub fn linear_lr(learning_rate: f32, min_learning_rate: f32, done: u64, total: u64) -> f32 {
    let frac = (done as f64 / total.max(1) as f64).min(1.0);
    (learning_rate as f64 * (1.0 - frac)).max(min_learning_rate as f64) as f32
}

/// What a run needs and never mutates: the tables built from the corpus
/// frequencies plus the learning-rate schedule.
struct EpochContext<'a> {
    config: &'a SgnsConfig,
    subsample: SubsampleTable,
    noise: NoiseTable,
    sampler: PairSampler,
    sigmoid: SigmoidTable,
    /// Corpus tokens per epoch; the schedule runs over `epochs ×` this.
    total_tokens: u64,
}

impl<'a> EpochContext<'a> {
    fn new(freqs: &[u64], config: &'a SgnsConfig, total_tokens: u64) -> Self {
        Self {
            config,
            subsample: SubsampleTable::new(freqs, config.subsample),
            noise: NoiseTable::from_freqs(freqs, config.noise_exponent),
            sampler: PairSampler {
                window: config.window,
                mode: config.window_mode,
            },
            sigmoid: SigmoidTable::new(),
            total_tokens,
        }
    }

    /// Learning rate after `done` tokens of the whole run.
    fn lr(&self, done: u64) -> f32 {
        linear_lr(
            self.config.learning_rate,
            self.config.min_learning_rate,
            done,
            self.total_tokens * self.config.epochs as u64,
        )
    }
}

/// The whole run: [`train_pair`] on every pair of one [`PairStream`] per
/// epoch, at the learning rate of the raw tokens before the pair's
/// sequence (`scratch.kept` holds the pair's step list, which the
/// rows-stepped count reads). Bookkeeping lands in plain locals flushed
/// to obs once per epoch, keeping the pair loop instrumentation-free.
fn run_epochs<S: Sequences + ?Sized>(
    seqs: &S,
    ctx: &EpochContext<'_>,
    input: &mut Matrix,
    output: &mut Matrix,
) -> EpochStats {
    let config = ctx.config;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7124);
    let mut negatives = Vec::with_capacity(config.negatives);
    let mut scratch = PairScratch::new(config.dim);
    let mut total = EpochStats::default();
    // Raw tokens of the epochs before this one — the decay's numerator.
    let mut done = 0u64;
    for _epoch in 0..config.epochs {
        let mut stats = EpochStats::default();
        let mut stream = PairStream::new(seqs, Some(&ctx.subsample), ctx.sampler);
        while let Some((target, context)) = stream.next(&mut rng) {
            let lr = ctx.lr(done + stream.tokens_before());
            ctx.noise
                .sample_into(&mut negatives, config.negatives, &mut rng);
            let loss = train_pair(
                input,
                output,
                target,
                context,
                &negatives,
                lr,
                &ctx.sigmoid,
                &mut scratch,
            );
            stats.pairs += 1;
            stats.noise_draws += negatives.len() as u64;
            stats.rows_stepped += scratch.kept.len() as u64;
            stats.loss_sum += loss;
            stats.last_lr = lr;
        }
        stats.raw_tokens = ctx.total_tokens;
        stats.tokens = stream.kept_tokens();
        stats.pair_kinds = stream.take_pair_kinds();
        done += ctx.total_tokens;
        stats.flush_to_obs();
        total.merge(&stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::WindowMode;
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
        let freqs = count_freqs(&seqs, 20);
        let mut cfg = small_config();
        cfg.epochs = 3;
        let (warm_store, _) = train(&seqs, 20, &cfg);
        // One extra epoch, warm vs cold.
        let one_epoch = SgnsConfig {
            epochs: 1,
            learning_rate: 0.01,
            ..small_config()
        };
        let (_, warm_stats) = train_into(&seqs, &freqs, &one_epoch, warm_store);
        let cold_store = EmbeddingStore::new(20, one_epoch.dim, one_epoch.seed);
        let (_, cold_stats) = train_into(&seqs, &freqs, &one_epoch, cold_store);
        assert!(
            warm_stats.avg_loss < cold_stats.avg_loss,
            "warm start should sit at lower loss: {} vs {}",
            warm_stats.avg_loss,
            cold_stats.avg_loss
        );
    }

    #[test]
    fn all_zero_counts_train_nothing_and_keep_the_store() {
        // A stream's quiet interval: the counts are still all zero, so
        // there is nothing to build a `NoiseTable` from.
        let seqs = topic_corpus(11);
        let store = EmbeddingStore::new(20, small_config().dim, 3);
        let before = store.input(TokenId(1)).to_vec();
        let (store, stats) = train_into(&seqs, &[0; 20], &small_config(), store);
        assert_eq!(stats.pairs, 0, "all-zero counts must not reach NoiseTable");
        assert_eq!(before, store.input(TokenId(1)));
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
    fn linear_lr_decays_to_the_floor_and_clamps() {
        let lr = |done, total| linear_lr(0.025, 0.0001, done, total);
        assert_eq!(lr(0, 1_000), 0.025, "start value");
        assert_eq!(lr(500, 1_000), 0.0125, "midpoint");
        assert_eq!(lr(999, 1_000), 0.0001, "floor");
        assert_eq!(lr(1_000, 1_000), 0.0001, "done = total");
        assert_eq!(lr(5_000, 1_000), 0.0001, "done > total");
        // total == 0 counts as one unit: no NaN, start value then floor.
        assert_eq!(lr(0, 0), 0.025);
        assert_eq!(lr(1, 0), 0.0001);
    }
}
