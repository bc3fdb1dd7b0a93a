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
//!
//! The scan and the step are the message-passing machines' own (one
//! [`TnsRun`]); this module owns the threads, barrier and row resolver.

use crate::hbgp::HbgpPartitioner;
use crate::hotset::{HotSet, ReplicaSet};
use crate::partition::{assign_all, HashPartitioner, PartitionMap};
use crate::report::DistReport;
use crate::tns::{PairScan, ScanPair, StepState, TnsRun};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog, TokenId};
use sisg_embedding::matrix::RowPtr;
use sisg_embedding::EmbeddingStore;
use sisg_obs::names as obs_names;
use sisg_sgns::WindowMode;
use std::borrow::Cow;
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
    enriched: &EnrichedCorpus<'_>,
    catalog: &ItemCatalog,
    config: &DistConfig,
) -> (EmbeddingStore, DistReport) {
    // Pipeline stages 3–4, through the two calls `TrainingPipeline::prepare`
    // makes: partition + the shared set Q.
    let partition = build_partition(config, enriched.sessions(), catalog, enriched.space());
    let hot = HotSet::top_k(enriched.vocab(), config.hot_set_size);
    train_distributed_prepared(enriched, config, &partition, &hot)
}

/// Trains from pre-built stage artifacts (the path the preparation
/// pipeline and its crash-recovery resume use: a checkpointed partition
/// and hot set are reused instead of being re-derived).
pub(crate) fn train_distributed_prepared(
    enriched: &EnrichedCorpus<'_>,
    config: &DistConfig,
    partition: &PartitionMap,
    hot: &HotSet,
) -> (EmbeddingStore, DistReport) {
    let run = TnsRun::build(
        enriched,
        config,
        Cow::Borrowed(partition),
        Cow::Borrowed(hot),
    );
    let (w, space, vocab) = (config.workers, enriched.space(), enriched.vocab());
    let store = EmbeddingStore::new(space.len(), config.dim, config.seed);
    let ctx = RunCtx {
        replicas: ReplicaSet::init(&store, hot, w),
        run,
        store: &store,
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
        local_pairs: per_worker.iter().map(|c| c.pairs - c.remote_pairs).sum(),
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
        cut_fraction: partition.cut_fraction(enriched.sessions()),
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
    remote_pairs: u64,
    item_pairs: u64,
    remote_item_pairs: u64,
    comm_bytes: u64,
}

impl WorkerCounters {
    /// Accounts one pair of worker `me`; a remote one ships a row each way.
    fn record(&mut self, me: usize, pair: &ScanPair, run: &TnsRun) {
        let space = run.enriched.space();
        let both_items = space.is_item(pair.target) && space.is_item(pair.context);
        self.pairs += 1;
        self.item_pairs += u64::from(both_items);
        if pair.route != me {
            self.remote_pairs += 1;
            self.remote_item_pairs += u64::from(both_items);
            self.comm_bytes += 2 * (run.config.dim as u64) * 4;
        }
    }
}

/// What the worker threads share beyond the [`TnsRun`]: the hot-set
/// replicas, the canonical store, the sync barrier and its counters.
struct RunCtx<'a> {
    run: TnsRun<'a>,
    replicas: ReplicaSet,
    store: &'a EmbeddingStore,
    barrier: Barrier,
    sync_bytes: AtomicU64,
    sync_rounds: AtomicU64,
}

fn worker_loop(ctx: &RunCtx<'_>, me: usize) -> WorkerCounters {
    let run = &ctx.run;
    let config = run.config;
    let mut counters = WorkerCounters::default();
    let mut state = StepState::new(config, me, 0);
    let resolver = RowResolver {
        me,
        hot: &run.hot,
        replicas: &ctx.replicas,
        store: ctx.store,
    };
    let mut rows = |t| resolver.output(t);

    // One clamped interval for the round count and both slice bounds: a
    // configured 0 means "synchronize after every sequence", like 1.
    let sync_interval = config.sync_interval.max(1);
    let sequences = run.enriched.len();
    let rounds_per_epoch = sequences.div_ceil(sync_interval).max(1);
    let mut scan = PairScan::new(run, me, 0);
    for _ in 0..config.epochs {
        for round in 0..rounds_per_epoch {
            let end = ((round + 1) * sync_interval).min(sequences);
            while let Some(pair) = scan.next(end) {
                counters.record(me, &pair, run);
                let input = resolver.input(pair.target);
                input.load_into(&mut state.pair.row);
                run.tns_step(&mut rows, pair.route, pair.context, pair.lr, &mut state);
                input.axpy_slice(1.0, &state.pair.grad);
            }
            // ATNS synchronization barrier: worker 0 averages the replicas
            // while everyone else waits, then all resume.
            if ctx.barrier.wait().is_leader() {
                let sync_span = sisg_obs::span(obs_names::DIST_SYNC_SPAN);
                let bytes = ctx.replicas.synchronize(ctx.store, &run.hot);
                sync_span.finish();
                // ORDERING: Relaxed — stat counters read only after join (or by the
                // leader itself); the surrounding barrier orders the sync payload.
                ctx.sync_bytes.fetch_add(bytes, Ordering::Relaxed);
                ctx.sync_rounds.fetch_add(1, Ordering::Relaxed);
            }
            ctx.barrier.wait();
        }
        scan.next_epoch();
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
