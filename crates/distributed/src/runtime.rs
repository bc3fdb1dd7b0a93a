//! The TNS/ATNS training runtime — Algorithm 1 of the paper, with threads
//! as workers.
//!
//! Faithfulness notes (what maps to what):
//!
//! - **Worker = thread.** Every worker scans the whole behavior-sequence
//!   corpus and independently samples pairs, *ignoring* pairs whose target
//!   it does not manage — exactly the structure of Algorithm 1, lines 1–6.
//! - **TNS routing.** For a pair `(v_i, v_j)` owned by worker `A`, the
//!   output-vector update and the negatives happen conceptually on
//!   `A' = owner(v_j)`: negatives are drawn from `A'`'s local noise
//!   distribution over `P_{A'} ∪ Q` (Section III-C), and when `A ≠ A'` the
//!   run ships one input vector there and one gradient back — we count
//!   those bytes instead of serializing them, since all matrices live in
//!   shared memory.
//! - **ATNS.** Tokens in the shared hot set `Q` are replicated per worker
//!   ([`crate::hotset::ReplicaSet`]); pairs whose *target* is hot are
//!   processed by the worker whose sequence shard they fall in (spreading
//!   the hot load), touch only local replicas, and the replicas are
//!   averaged at a barrier every `sync_interval` sequences. Hot tokens are
//!   additionally down-sampled more aggressively.
//! - **HBGP vs hash** is selected by [`PartitionStrategy`].

use crate::hbgp::HbgpPartitioner;
use crate::hotset::{HotSet, ReplicaSet};
use crate::partition::{assign_all, HashPartitioner, PartitionMap};
use crate::protocol::{local_noise_tables, noise_seed, scan_seed};
use crate::report::DistReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog, TokenId};
use sisg_embedding::matrix::RowPtr;
use sisg_embedding::EmbeddingStore;
use sisg_obs::names as obs_names;
use sisg_sgns::sgd::steps;
use sisg_sgns::sigmoid::SigmoidTable;
use sisg_sgns::{linear_lr, NoiseTable, PairSampler, PairScratch, SubsampleTable, WindowMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Which item partitioner the run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// Heuristic Balanced Graph Partitioning with the given β.
    Hbgp {
        /// Maximum allowed imbalance (paper production value: 1.2).
        beta: f64,
    },
    /// Round-robin hashing (the ablation baseline).
    Hash,
}

/// Configuration of one distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// Number of simulated workers (threads).
    pub workers: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Window half-width over enriched tokens.
    pub window: usize,
    /// Symmetric or right-only windows.
    pub window_mode: WindowMode,
    /// Negatives per positive.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linear decay).
    pub learning_rate: f32,
    /// Learning-rate floor.
    pub min_learning_rate: f32,
    /// Mikolov subsampling threshold.
    pub subsample: f64,
    /// Noise exponent α.
    pub noise_exponent: f64,
    /// Size of the shared hot set `Q` (0 disables replication).
    pub hot_set_size: usize,
    /// Sequences processed per worker between hot-set averaging barriers.
    pub sync_interval: usize,
    /// Item partitioner.
    pub strategy: PartitionStrategy,
    /// Seed.
    pub seed: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            dim: 32,
            window: 5,
            window_mode: WindowMode::Symmetric,
            negatives: 20,
            epochs: 2,
            learning_rate: 0.025,
            min_learning_rate: 0.0001,
            subsample: 1e-3,
            noise_exponent: 0.75,
            hot_set_size: 256,
            sync_interval: 2_000,
            strategy: PartitionStrategy::Hbgp { beta: 1.2 },
            seed: 42,
        }
    }
}

impl DistConfig {
    /// The window pair sampler both distributed engines scan with.
    pub(crate) fn sampler(&self) -> PairSampler {
        PairSampler {
            window: self.window,
            mode: self.window_mode,
        }
    }

    /// Positive pairs one run schedules over `enriched`: the denominator
    /// of the pair-count learning-rate decay.
    pub(crate) fn schedule_pairs(&self, enriched: &EnrichedCorpus) -> u64 {
        let directional = self.window_mode == WindowMode::RightOnly;
        enriched.count_positive_pairs(self.window, directional) * self.epochs as u64
    }

    /// Learning rate after `done` of `schedule_pairs` trained pairs.
    pub(crate) fn lr(&self, done: u64, schedule_pairs: u64) -> f32 {
        linear_lr(
            self.learning_rate,
            self.min_learning_rate,
            done,
            schedule_pairs,
        )
    }
}

/// Pipeline stage 3 as a standalone artifact builder: partitions the
/// dictionary under the configured strategy. Shared by both engines and
/// the preparation pipeline, so one `(config, corpus)` always yields the
/// same map.
pub fn build_partition(
    config: &DistConfig,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    space: &TokenSpace,
) -> PartitionMap {
    match config.strategy {
        PartitionStrategy::Hbgp { beta } => assign_all(
            &HbgpPartitioner {
                beta,
                ..Default::default()
            },
            sessions,
            catalog,
            space,
            config.workers,
            config.seed,
        ),
        PartitionStrategy::Hash => assign_all(
            &HashPartitioner,
            sessions,
            catalog,
            space,
            config.workers,
            config.seed,
        ),
    }
}

/// Trains the enriched corpus with the distributed engine and returns the
/// embedding store plus the run's accounting.
pub fn train_distributed(
    enriched: &EnrichedCorpus,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    config: &DistConfig,
) -> (EmbeddingStore, DistReport) {
    // Pipeline stages 3–4, through the two calls `TrainingPipeline::prepare`
    // makes: partition + the shared set Q.
    let partition = build_partition(config, sessions, catalog, enriched.space());
    let hot = HotSet::top_k(enriched.vocab(), config.hot_set_size);
    train_distributed_prepared(enriched, sessions, config, &partition, &hot)
}

/// Trains from pre-built stage artifacts (the path the preparation
/// pipeline and its crash-recovery resume use: a checkpointed partition
/// and hot set are reused instead of being re-derived).
pub(crate) fn train_distributed_prepared(
    enriched: &EnrichedCorpus,
    sessions: &Corpus,
    config: &DistConfig,
    partition: &PartitionMap,
    hot: &HotSet,
) -> (EmbeddingStore, DistReport) {
    assert!(config.workers > 0, "need at least one worker");
    let w = config.workers;
    let space = enriched.space();
    let vocab = enriched.vocab();

    // Per-worker local noise distributions over P_j ∪ Q.
    let noise_tables = local_noise_tables(partition, vocab, hot.tokens(), config.noise_exponent);

    // Extra keep-probability factor for hot-set tokens (< 1 = the
    // "aggressive" down-sampling of ATNS).
    const HOT_SUBSAMPLE_FACTOR: f32 = 0.3;
    let mut subsample = SubsampleTable::new(vocab.freqs(), config.subsample);
    // "High frequency words are aggressively down sampled" — but the paper
    // notes "most high frequency words are SIs" and handles hot *items*
    // via replication instead (Section III-A), so the extra factor applies
    // only to non-item tokens. Nuking hot items would leave the most
    // frequently clicked (and most frequently evaluated) items untrained.
    let hot_non_items: Vec<TokenId> = hot
        .tokens()
        .iter()
        .copied()
        .filter(|t| !space.is_item(*t))
        .collect();
    subsample.scale_tokens(&hot_non_items, HOT_SUBSAMPLE_FACTOR);

    let store = EmbeddingStore::new(space.len(), config.dim, config.seed);
    let ctx = RunCtx {
        config,
        enriched,
        partition,
        hot,
        replicas: ReplicaSet::init(&store, hot, w),
        store: &store,
        noise_tables,
        subsample,
        sampler: config.sampler(),
        sigmoid: SigmoidTable::new(),
        progress: AtomicU64::new(0),
        schedule_pairs: config.schedule_pairs(enriched),
        barrier: Barrier::new(w),
        sync_bytes: AtomicU64::new(0),
        sync_rounds: AtomicU64::new(0),
    };

    // Per-worker counters, collected after the scope.
    let span = sisg_obs::span(obs_names::DIST_TRAIN_SPAN);
    let mut per_worker: Vec<WorkerCounters> = Vec::with_capacity(w);
    std::thread::scope(|scope| {
        let ctx = &ctx;
        let handles: Vec<_> = (0..w)
            .map(|me| scope.spawn(move || worker_loop(ctx, me)))
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("worker thread panicked"));
        }
    });
    let seconds = span.finish().as_secs_f64();

    // Item-frequency load balance (items only, the quantity HBGP targets).
    let n_items = space.n_items() as usize;
    let item_freqs = &vocab.freqs()[..n_items];
    let item_map = PartitionMap::new(
        (0..n_items)
            .map(|i| partition.owner(TokenId(i as u32)) as u16)
            .collect(),
        w,
    );

    let report = DistReport {
        workers: w,
        partitioner: match config.strategy {
            PartitionStrategy::Hbgp { .. } => "hbgp".into(),
            PartitionStrategy::Hash => "hash".into(),
        },
        hot_set_size: hot.len(),
        pairs_per_worker: per_worker.iter().map(|c| c.pairs).collect(),
        local_pairs: per_worker.iter().map(|c| c.local_pairs).sum(),
        remote_pairs: per_worker.iter().map(|c| c.remote_pairs).sum(),
        item_pairs: per_worker.iter().map(|c| c.item_pairs).sum(),
        remote_item_pairs: per_worker.iter().map(|c| c.remote_item_pairs).sum(),
        pair_comm_bytes: per_worker.iter().map(|c| c.comm_bytes).sum(),
        // ORDERING: Relaxed — read after all worker threads joined; the join
        // is the synchronization, these are plain stat cells.
        sync_comm_bytes: ctx.sync_bytes.load(Ordering::Relaxed),
        sync_rounds: ctx.sync_rounds.load(Ordering::Relaxed),
        tokens_processed: enriched.total_tokens() * config.epochs as u64,
        seconds,
        cut_fraction: partition.cut_fraction(sessions),
        imbalance: item_map.imbalance(item_freqs),
    };
    publish_report_to_obs(&report);
    (store, report)
}

/// Mirrors one run's accounting into the global obs registry, so the same
/// numbers reach snapshots without any per-pair instrumentation.
fn publish_report_to_obs(report: &DistReport) {
    let reg = sisg_obs::registry();
    reg.counter(obs_names::DIST_PAIRS_TOTAL)
        .add(report.total_pairs());
    reg.counter(obs_names::DIST_REMOTE_PAIRS_TOTAL)
        .add(report.remote_pairs);
    reg.counter(obs_names::DIST_SYNC_ROUNDS_TOTAL)
        .add(report.sync_rounds);
    reg.counter(obs_names::DIST_SYNC_BYTES_TOTAL)
        .add(report.sync_comm_bytes);
    reg.gauge(obs_names::DIST_REMOTE_FRACTION)
        .set(report.remote_fraction());
    reg.gauge(obs_names::DIST_PAIR_IMBALANCE)
        .set(report.pair_imbalance());
    reg.gauge(obs_names::DIST_CUT_FRACTION)
        .set(report.cut_fraction);
    let worker_pairs = reg.histogram(obs_names::DIST_WORKER_PAIRS);
    for &pairs in &report.pairs_per_worker {
        worker_pairs.record(pairs);
    }
}

#[derive(Debug, Default, Clone)]
struct WorkerCounters {
    pairs: u64,
    local_pairs: u64,
    remote_pairs: u64,
    item_pairs: u64,
    remote_item_pairs: u64,
    comm_bytes: u64,
}

/// Everything one run's workers share, built once and borrowed by every
/// worker thread.
struct RunCtx<'a> {
    config: &'a DistConfig,
    enriched: &'a EnrichedCorpus,
    partition: &'a PartitionMap,
    hot: &'a HotSet,
    replicas: ReplicaSet,
    store: &'a EmbeddingStore,
    noise_tables: Vec<NoiseTable>,
    subsample: SubsampleTable,
    sampler: PairSampler,
    sigmoid: SigmoidTable,
    /// Pairs trained so far, across all workers (drives the lr decay).
    progress: AtomicU64,
    schedule_pairs: u64,
    barrier: Barrier,
    sync_bytes: AtomicU64,
    sync_rounds: AtomicU64,
}

fn worker_loop(ctx: &RunCtx<'_>, me: usize) -> WorkerCounters {
    let (config, enriched, partition, hot) = (ctx.config, ctx.enriched, ctx.partition, ctx.hot);
    let w = config.workers;
    let dim = config.dim;
    let mut counters = WorkerCounters::default();
    // Scan (subsample + pair sampling) and noise (negative draws) use
    // separate seeded streams: the scan stream is epoch-scoped and shared
    // with the message-passing engine (identical per-worker pair
    // accounting), while negative draws never perturb which pairs are
    // scanned.
    let mut noise_rng = StdRng::seed_from_u64(noise_seed(config.seed, me, 0));
    let mut filtered: Vec<TokenId> = Vec::with_capacity(64);
    let mut pair_buf: Vec<(TokenId, TokenId)> = Vec::with_capacity(256);
    let mut negatives: Vec<TokenId> = Vec::with_capacity(config.negatives);
    let mut scratch = PairScratch::new(dim);

    let resolver = RowResolver {
        me,
        hot,
        replicas: &ctx.replicas,
        store: ctx.store,
    };

    // One clamped interval for the round count and both slice bounds: a
    // configured 0 means "synchronize after every sequence", like 1.
    let sync_interval = config.sync_interval.max(1);
    let rounds_per_epoch = enriched.len().div_ceil(sync_interval).max(1);
    for epoch in 0..config.epochs {
        let mut scan_rng = StdRng::seed_from_u64(scan_seed(config.seed, me, epoch));
        for round in 0..rounds_per_epoch {
            let lo = round * sync_interval;
            let hi = ((round + 1) * sync_interval).min(enriched.len());
            for seq_idx in lo..hi {
                let seq = enriched.sequence(seq_idx);
                ctx.subsample.filter_into(seq, &mut scan_rng, &mut filtered);
                ctx.sampler.pairs_into(&filtered, &mut pair_buf);
                for &(target, context) in &pair_buf {
                    // Algorithm 1 line 6: keep the pair iff this worker is
                    // responsible for it. Hot targets are sharded by
                    // sequence index to spread their load (ATNS).
                    let responsible = if hot.contains(target) {
                        seq_idx % w == me
                    } else {
                        partition.owner(target) == me
                    };
                    if !responsible {
                        continue;
                    }
                    // ORDERING: Relaxed — a shared pair counter driving the lr decay;
                    // workers tolerate slightly-stale progress and publish nothing
                    // through it.
                    let done = ctx.progress.fetch_add(1, Ordering::Relaxed);
                    let lr = config.lr(done, ctx.schedule_pairs);

                    // The TNS call happens on the context's owner; local when
                    // the context is hot (every worker holds a replica).
                    let (tns_worker, is_remote) = if hot.contains(context) {
                        (me, false)
                    } else {
                        let owner = partition.owner(context);
                        (owner, owner != me)
                    };
                    counters.pairs += 1;
                    let both_items =
                        enriched.space().is_item(target) && enriched.space().is_item(context);
                    if both_items {
                        counters.item_pairs += 1;
                    }
                    if is_remote {
                        counters.remote_pairs += 1;
                        if both_items {
                            counters.remote_item_pairs += 1;
                        }
                        // Ship input vector there, gradient back.
                        counters.comm_bytes += 2 * (dim as u64) * 4;
                    } else {
                        counters.local_pairs += 1;
                    }

                    // Batched draw plus the same collision filter the old
                    // per-draw loop applied (order-preserving, identical
                    // RNG consumption).
                    ctx.noise_tables[tns_worker].sample_into(
                        &mut negatives,
                        config.negatives,
                        &mut noise_rng,
                    );
                    negatives.retain(|&n| n != context && n != target);

                    tns_step(
                        &resolver,
                        target,
                        context,
                        &negatives,
                        lr,
                        &ctx.sigmoid,
                        &mut scratch,
                    );
                }
            }
            // ATNS synchronization barrier: worker 0 averages the replicas
            // while everyone else waits, then all resume.
            if ctx.barrier.wait().is_leader() {
                let sync_span = sisg_obs::span(obs_names::DIST_SYNC_SPAN);
                let bytes = ctx.replicas.synchronize(ctx.store, hot);
                sync_span.finish();
                // ORDERING: Relaxed — stat counters read only after join (or by the
                // leader itself); the surrounding barrier orders the sync payload.
                ctx.sync_bytes.fetch_add(bytes, Ordering::Relaxed);
                ctx.sync_rounds.fetch_add(1, Ordering::Relaxed);
            }
            ctx.barrier.wait();
        }
    }
    counters
}

/// Resolves the mutable row a worker uses for a token: its own replica for
/// hot tokens, the canonical row otherwise.
struct RowResolver<'a> {
    me: usize,
    hot: &'a HotSet,
    replicas: &'a ReplicaSet,
    store: &'a EmbeddingStore,
}

impl RowResolver<'_> {
    // Both methods return sound shared Hogwild views (relaxed atomic
    // accessors); rows are in bounds because TokenIds come from the
    // enriched corpus the matrices were sized for, and replica slots come
    // from `hot` (row_ptr asserts either way).
    #[inline]
    fn input(&self, token: TokenId) -> RowPtr<'_> {
        match self.hot.slot(token) {
            Some(slot) => self.replicas.input_row(self.me, slot),
            None => self.store.input_matrix().row_ptr(token.index()),
        }
    }

    #[inline]
    fn output(&self, token: TokenId) -> RowPtr<'_> {
        match self.hot.slot(token) {
            Some(slot) => self.replicas.output_row(self.me, slot),
            None => self.store.output_matrix().row_ptr(token.index()),
        }
    }
}

/// The TNS SGD step over resolved rows (replica or canonical).
///
/// Runs the shared kernel path (DESIGN.md §8): the target row is cached
/// into the scratch buffer once, the context + negative steps go through
/// [`steps`] on its Hogwild path (batched ordered dots, fused gradient
/// steps), and the accumulated gradient is applied back in one pass. Row resolution
/// (replica vs canonical) stays in the closure, so hot tokens keep hitting
/// worker-local replicas.
fn tns_step(
    resolver: &RowResolver<'_>,
    target: TokenId,
    context: TokenId,
    negatives: &[TokenId],
    lr: f32,
    sigmoid: &SigmoidTable,
    scratch: &mut PairScratch,
) {
    let PairScratch {
        row,
        grad,
        kept,
        scores,
    } = scratch;
    resolver.input(target).load_into(row);
    grad.fill(0.0);
    kept.clear();
    kept.push(context);
    kept.extend_from_slice(negatives);
    // Distributed training monitors loss elsewhere; the return is unused.
    let mut rows = |t| resolver.output(t);
    let _ = steps(&mut rows, kept, row, lr, sigmoid, grad, scores);
    resolver.input(target).axpy_slice(1.0, grad);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TrainingPipeline;
    use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus, ItemId};
    use sisg_embedding::math::cosine;

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    fn train_on(
        corpus: &GeneratedCorpus,
        options: EnrichOptions,
        config: &DistConfig,
    ) -> (EmbeddingStore, DistReport) {
        TrainingPipeline::prepare(corpus, options, config.clone()).train()
    }

    fn fast_config(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 1,
            hot_set_size: 32,
            sync_interval: 500,
            ..Default::default()
        }
    }

    #[test]
    fn single_worker_run_has_no_comm() {
        let gen = corpus();
        let (_, report) = train_on(&gen, EnrichOptions::NONE, &fast_config(1));
        assert_eq!(report.remote_pairs, 0);
        assert_eq!(report.pair_comm_bytes, 0);
        assert!(report.total_pairs() > 0);
        assert_eq!(report.cut_fraction, 0.0);
    }

    #[test]
    fn multi_worker_run_processes_all_pairs_once() {
        let gen = corpus();
        let (_, one) = train_on(&gen, EnrichOptions::NONE, &fast_config(1));
        let (_, four) = train_on(&gen, EnrichOptions::NONE, &fast_config(4));
        // Subsampling RNG differs per worker, so totals differ slightly —
        // but they must agree within a tolerance.
        let (a, b) = (one.total_pairs() as f64, four.total_pairs() as f64);
        assert!((a - b).abs() / a < 0.15, "pair totals diverge: {a} vs {b}");
    }

    /// `sync_interval: 0` means "synchronize after every sequence", like
    /// 1: the unclamped value as a slice bound would make every round scan
    /// `0..0` and the run return an untrained store.
    #[test]
    fn zero_sync_interval_trains_like_one() {
        let gen = corpus();
        let run = |sync_interval| {
            let cfg = DistConfig {
                sync_interval,
                ..fast_config(2)
            };
            train_on(&gen, EnrichOptions::NONE, &cfg).1
        };
        let (zero, one) = (run(0), run(1));
        assert!(zero.total_pairs() > 0, "sync_interval 0 trained nothing");
        // Per-worker pair accounting is scan-seed deterministic.
        assert_eq!(zero.pairs_per_worker, one.pairs_per_worker);
        assert_eq!(zero.sync_rounds, one.sync_rounds);
    }

    #[test]
    fn hbgp_beats_hash_on_remote_fraction() {
        let gen = corpus();
        let hbgp = fast_config(4);
        let hash = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..fast_config(4)
        };
        let (_, r_hbgp) = train_on(&gen, EnrichOptions::NONE, &hbgp);
        let (_, r_hash) = train_on(&gen, EnrichOptions::NONE, &hash);
        assert!(
            r_hbgp.remote_fraction() < r_hash.remote_fraction() * 0.6,
            "hbgp {} vs hash {}",
            r_hbgp.remote_fraction(),
            r_hash.remote_fraction()
        );
    }

    #[test]
    fn hot_set_reduces_comm_on_enriched_corpus() {
        let gen = corpus();
        let with_q = fast_config(4);
        let without_q = DistConfig {
            hot_set_size: 0,
            ..fast_config(4)
        };
        let (_, r_with) = train_on(&gen, EnrichOptions::FULL, &with_q);
        let (_, r_without) = train_on(&gen, EnrichOptions::FULL, &without_q);
        // SI tokens are extremely hot; replicating them must cut remote pairs.
        assert!(
            r_with.remote_fraction() < r_without.remote_fraction(),
            "with Q {} vs without {}",
            r_with.remote_fraction(),
            r_without.remote_fraction()
        );
        assert!(r_with.sync_rounds > 0);
        assert!(r_with.sync_comm_bytes > 0);
    }

    #[test]
    fn distributed_training_learns_structure() {
        let gen = corpus();
        // The regime the paper describes: the full enriched corpus, whose
        // hottest tokens are SI features, with Q replicated and averaged
        // on 4 workers.
        let mut cfg = fast_config(4);
        cfg.epochs = 2;
        let (store, report) = train_on(&gen, EnrichOptions::FULL, &cfg);
        assert_eq!(report.hot_set_size, 32);
        // Items of one leaf category should be closer than cross-category.
        let mut within = 0.0f64;
        let mut cross = 0.0f64;
        let (mut wn, mut cn) = (0u32, 0u32);
        for a in 0..120u32 {
            for b in (a + 1)..120u32 {
                let s = cosine(store.input(TokenId(a)), store.input(TokenId(b))) as f64;
                if gen.catalog.leaf_category(ItemId(a)) == gen.catalog.leaf_category(ItemId(b)) {
                    within += s;
                    wn += 1;
                } else {
                    cross += s;
                    cn += 1;
                }
            }
        }
        assert!(
            within / wn as f64 > cross / cn as f64,
            "no structure learned"
        );
    }

    #[test]
    fn load_is_balanced_across_workers() {
        let gen = corpus();
        let (_, report) = train_on(&gen, EnrichOptions::FULL, &fast_config(4));
        assert!(
            report.pair_imbalance() < 2.0,
            "pair imbalance {} too high",
            report.pair_imbalance()
        );
    }
}
