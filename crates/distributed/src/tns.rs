//! Algorithm 1 of the paper (TNS, extended by ATNS), written once for both
//! Section III engines: the one run set-up ([`TnsRun`]), one worker's
//! resumable pair scan ([`PairScan`], lines 1–6) and the one TNS call
//! ([`TnsRun::tns_step`], lines 7–12). The threaded runtime iterates a scan
//! in sync-round slices over Hogwild row resolvers; each message-passing
//! machine pulls one pair per step over its exclusive shard. So both keep
//! the same pairs, route them the same way and drop the same negatives.
//!
//! This module is in the `xtask lint` panic-free set: the machines run it.

use crate::fault::mix64;
use crate::hotset::HotSet;
use crate::partition::PartitionMap;
use crate::runtime::{build_partition, DistConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::{EnrichedCorpus, ItemCatalog, TokenId};
use sisg_sgns::sgd::{build_kept, steps, OutputRows};
use sisg_sgns::sigmoid::SigmoidTable;
use sisg_sgns::{linear_lr, NoiseTable, PairSampler, PairScratch, SubsampleTable, WindowMode};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Extra keep-probability factor for hot non-item tokens (< 1 = the
/// "aggressive" down-sampling of ATNS).
const HOT_SUBSAMPLE_FACTOR: f32 = 0.3;

/// Seed of a worker's *scan* RNG (subsampling + pair sampling) for one
/// epoch. Epoch-scoped, so both engines scan the same per-worker pairs and
/// a machine restored from an epoch-boundary checkpoint rescans the epoch
/// exactly as the first attempt would have.
fn scan_seed(seed: u64, worker: usize, epoch: usize) -> u64 {
    mix64(
        seed ^ (worker as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ ((epoch as u64).wrapping_add(1)).wrapping_mul(0x9E6C_63D0_876A_68EE),
    )
}

/// Seed of a worker's *noise* RNG (negative sampling). Separate from the
/// scan stream so drawing negatives — whose count depends on message
/// arrival order — can never perturb which pairs a worker scans.
/// `incarnation` distinguishes a restarted worker's stream from its
/// pre-crash one while staying a pure function of the run seed.
fn noise_seed(seed: u64, worker: usize, incarnation: u64) -> u64 {
    mix64(
        seed ^ (worker as u64).wrapping_mul(0x6C62_272E_07BB_0142)
            ^ incarnation.wrapping_mul(0x27D4_EB2F_1656_67C5),
    )
}

/// One TNS training run: everything the workers of either engine share,
/// built once. The simulator creates message-passing machines over it
/// ([`crate::WorkerMachine::new`], [`crate::WorkerMachine::restore`]) and
/// hand the finished ones back to [`TnsRun::assemble`]; the threaded
/// runtime borrows it from every worker thread.
pub struct TnsRun<'a> {
    pub(crate) config: &'a DistConfig,
    pub(crate) enriched: &'a EnrichedCorpus<'a>,
    pub(crate) partition: Cow<'a, PartitionMap>,
    pub(crate) hot: Cow<'a, HotSet>,
    noise_tables: Vec<NoiseTable>,
    subsample: SubsampleTable,
    sampler: PairSampler,
    sigmoid: SigmoidTable,
    /// Pairs trained so far, across all workers (drives the lr decay).
    progress: AtomicU64,
    /// Total scheduled pairs (denominator of the decay).
    schedule_pairs: u64,
}

impl<'a> TnsRun<'a> {
    /// Sets up a message-passing run of `config` over `enriched`: builds
    /// the partition and runs with an empty `Q` (`config.hot_set_size` is
    /// ignored; the machines isolate the TNS protocol).
    ///
    /// # Panics
    /// Panics when `config.workers == 0`.
    pub fn new(
        enriched: &'a EnrichedCorpus<'a>,
        catalog: &ItemCatalog,
        config: &'a DistConfig,
    ) -> Self {
        let partition = build_partition(config, enriched.sessions(), catalog, enriched.space());
        let hot = HotSet::from_tokens(enriched.space().len(), Vec::new());
        Self::build(enriched, config, Cow::Owned(partition), Cow::Owned(hot))
    }

    /// Sets up a run of `config` over `enriched` from its stage-3/4
    /// artifacts: the partition and the shared hot set `Q`.
    pub(crate) fn build(
        enriched: &'a EnrichedCorpus<'a>,
        config: &'a DistConfig,
        partition: Cow<'a, PartitionMap>,
        hot: Cow<'a, HotSet>,
    ) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let (space, vocab) = (enriched.space(), enriched.vocab());
        let mut subsample = SubsampleTable::new(vocab.freqs(), config.subsample);
        // "High frequency words are aggressively down sampled" — but the
        // paper notes "most high frequency words are SIs" and handles hot
        // *items* via replication instead (Section III-A), so the extra
        // factor applies only to non-item tokens. Nuking hot items would
        // leave the most frequently clicked (and most frequently
        // evaluated) items untrained.
        let hot_non_items: Vec<TokenId> = hot
            .tokens()
            .iter()
            .copied()
            .filter(|t| !space.is_item(*t))
            .collect();
        subsample.scale_tokens(&hot_non_items, HOT_SUBSAMPLE_FACTOR);
        // Per-worker local noise distributions (Section III-C): worker `j`
        // draws negatives over the tokens it owns plus `Q`.
        let mut members = partition.members();
        for (j, tokens) in members.iter_mut().enumerate() {
            tokens.extend(hot.tokens().iter().filter(|&&t| partition.owner(t) != j));
        }
        let noise = |tokens: &Vec<TokenId>| {
            let freqs: Vec<u64> = tokens.iter().map(|t| vocab.freq(*t).max(1)).collect();
            NoiseTable::from_token_freqs(tokens, &freqs, config.noise_exponent)
        };
        let directional = config.window_mode == WindowMode::RightOnly;
        Self {
            noise_tables: members.iter().map(noise).collect(),
            subsample,
            sampler: PairSampler {
                window: config.window,
                mode: config.window_mode,
            },
            sigmoid: SigmoidTable::new(),
            progress: AtomicU64::new(0),
            schedule_pairs: enriched.count_positive_pairs(config.window, directional)
                * config.epochs as u64,
            config,
            enriched,
            partition,
            hot,
        }
    }

    /// The run's token → owner map.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// The TNS call on worker `route`: draws `config.negatives` negatives
    /// from `route`'s local noise distribution, steps the output rows of
    /// `context` (the positive) and of every negative that is not the
    /// context — the target included, as in word2vec — against the target's
    /// input row cached in `state.pair.row`, and leaves the input gradient
    /// in `state.pair.grad` for the target's owner to apply.
    pub(crate) fn tns_step<R: OutputRows>(
        &self,
        rows: &mut R,
        route: usize,
        context: TokenId,
        lr: f32,
        state: &mut StepState,
    ) {
        let StepState {
            rng,
            negatives,
            pair,
        } = state;
        self.noise_tables[route].sample_into(negatives, self.config.negatives, rng);
        build_kept(&mut pair.kept, context, negatives);
        pair.grad.fill(0.0);
        // Distributed training monitors loss elsewhere; the return is unused.
        let _ = steps(
            rows,
            &pair.kept,
            &pair.row,
            lr,
            &self.sigmoid,
            &mut pair.grad,
            &mut pair.scores,
        );
    }
}

/// One worker's state for [`TnsRun::tns_step`]: its negative-draw stream
/// and the step buffers it reuses across pairs.
pub(crate) struct StepState {
    rng: StdRng,
    negatives: Vec<TokenId>,
    /// The cached target row, the input gradient and the step list.
    pub(crate) pair: PairScratch,
}

impl StepState {
    /// Worker `me`'s state; `incarnation` reseeds the noise stream of a
    /// restarted machine.
    pub(crate) fn new(config: &DistConfig, me: usize, incarnation: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(noise_seed(config.seed, me, incarnation)),
            negatives: Vec::with_capacity(config.negatives),
            pair: PairScratch::new(config.dim),
        }
    }
}

/// A pair the scanning worker is responsible for.
pub(crate) struct ScanPair {
    pub(crate) target: TokenId,
    pub(crate) context: TokenId,
    /// The worker whose output rows and noise distribution serve the TNS
    /// call: the scanning worker when the context is hot (every worker
    /// holds a replica), the context's owner otherwise.
    pub(crate) route: usize,
    /// Learning rate from the shared progress counter.
    pub(crate) lr: f32,
}

/// One worker's resumable Algorithm 1 scan over one epoch at a time.
pub(crate) struct PairScan<'r> {
    run: &'r TnsRun<'r>,
    me: usize,
    rng: StdRng,
    epoch: usize,
    /// Next sequence to refill from.
    seq_idx: usize,
    /// True when the sequence in `pairs` falls in this worker's shard of
    /// hot targets (`seq_idx % w == me`, ATNS).
    hot_shard: bool,
    pair_idx: usize,
    /// The sequence being scanned, as the enriched view expands it.
    seq: Vec<TokenId>,
    filtered: Vec<TokenId>,
    pairs: Vec<(TokenId, TokenId)>,
}

impl<'r> PairScan<'r> {
    /// Worker `me`'s scan of `run`, at the start of `epoch`.
    pub(crate) fn new(run: &'r TnsRun<'r>, me: usize, epoch: usize) -> Self {
        Self {
            run,
            me,
            rng: StdRng::seed_from_u64(scan_seed(run.config.seed, me, epoch)),
            epoch,
            seq_idx: 0,
            hot_shard: false,
            pair_idx: 0,
            seq: Vec::with_capacity(64),
            filtered: Vec::with_capacity(64),
            pairs: Vec::with_capacity(256),
        }
    }

    /// The epoch being scanned (= epochs completed so far).
    pub(crate) fn epoch(&self) -> usize {
        self.epoch
    }

    /// The next pair this worker is responsible for among the sequences
    /// before `end`, or `None` once the scan has consumed them all.
    /// Responsibility (line 6): a hot target is handled by the worker
    /// whose sequence shard it falls in, spreading the hot load; any other
    /// target by its owner.
    pub(crate) fn next(&mut self, end: usize) -> Option<ScanPair> {
        let run = self.run;
        loop {
            while let Some(&(target, context)) = self.pairs.get(self.pair_idx) {
                self.pair_idx += 1;
                let responsible = if run.hot.contains(target) {
                    self.hot_shard
                } else {
                    run.partition.owner(target) == self.me
                };
                if !responsible {
                    continue;
                }
                // ORDERING: Relaxed — a shared pair counter driving the lr
                // decay; workers tolerate slightly-stale progress and
                // publish nothing through it.
                let done = run.progress.fetch_add(1, Ordering::Relaxed);
                let (lr0, lr_min) = (run.config.learning_rate, run.config.min_learning_rate);
                return Some(ScanPair {
                    target,
                    context,
                    route: if run.hot.contains(context) {
                        self.me
                    } else {
                        run.partition.owner(context)
                    },
                    lr: linear_lr(lr0, lr_min, done, run.schedule_pairs),
                });
            }
            if self.seq_idx >= end {
                return None;
            }
            run.enriched.sequence_into(self.seq_idx, &mut self.seq);
            self.hot_shard = self.seq_idx % run.config.workers == self.me;
            self.seq_idx += 1;
            self.pair_idx = 0;
            run.subsample
                .filter_into(&self.seq, &mut self.rng, &mut self.filtered);
            run.sampler.pairs_into(&self.filtered, &mut self.pairs);
        }
    }

    /// Moves to the start of the next epoch, on that epoch's scan seed.
    pub(crate) fn next_epoch(&mut self) {
        *self = Self::new(self.run, self.me, self.epoch + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
    use sisg_embedding::Matrix;

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn scan_seed_varies_by_worker_and_epoch() {
        let base = scan_seed(42, 0, 0);
        assert_ne!(base, scan_seed(42, 1, 0));
        assert_ne!(base, scan_seed(42, 0, 1));
        assert_ne!(base, scan_seed(43, 0, 0));
        assert_eq!(base, scan_seed(42, 0, 0));
    }

    /// With `Q` on, a worker's scan yields exactly its filter + pairs
    /// stream restricted to owned non-hot targets and hot targets of its
    /// sequence shard, routes hot contexts locally and every other context
    /// to its owner, and counts each yielded pair once in the shared
    /// progress.
    #[test]
    fn scan_keeps_owned_and_hot_shard_pairs_and_routes_hot_contexts_locally() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::FULL);
        let config = DistConfig {
            workers: 3,
            window: 3,
            epochs: 1,
            hot_set_size: 32,
            ..Default::default()
        };
        let partition = build_partition(&config, &gen.sessions, &gen.catalog, enriched.space());
        let hot = HotSet::top_k(enriched.vocab(), config.hot_set_size);
        let run = TnsRun::build(&enriched, &config, Cow::Owned(partition), Cow::Owned(hot));
        let (me, w) = (1, config.workers);

        let mut scan = PairScan::new(&run, me, 0);
        let mut got = Vec::new();
        while let Some(p) = scan.next(enriched.len()) {
            got.push((p.target, p.context, p.route));
        }

        let mut rng = StdRng::seed_from_u64(scan_seed(config.seed, me, 0));
        let (mut seq, mut filtered, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        let mut want = Vec::new();
        let (mut hot_targets, mut hot_contexts) = (0, 0);
        for seq_idx in 0..enriched.len() {
            enriched.sequence_into(seq_idx, &mut seq);
            run.subsample.filter_into(&seq, &mut rng, &mut filtered);
            run.sampler.pairs_into(&filtered, &mut pairs);
            for &(t, c) in &pairs {
                let keep = if run.hot.contains(t) {
                    seq_idx % w == me
                } else {
                    run.partition.owner(t) == me
                };
                if !keep {
                    continue;
                }
                hot_targets += usize::from(run.hot.contains(t));
                let route = if run.hot.contains(c) {
                    hot_contexts += 1;
                    me
                } else {
                    run.partition.owner(c)
                };
                want.push((t, c, route));
            }
        }
        assert!(hot_targets > 0, "the corpus must yield hot targets");
        assert!(hot_contexts > 0, "the corpus must yield hot contexts");
        assert_eq!(got, want);
        // ORDERING: Relaxed — one thread wrote the counter.
        assert_eq!(run.progress.load(Ordering::Relaxed), got.len() as u64);
    }

    /// A negative equal to the target is stepped (word2vec's rule); a
    /// negative equal to the context is dropped.
    #[test]
    fn tns_step_keeps_a_target_negative_and_drops_a_context_one() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let config = DistConfig {
            workers: 1,
            dim: 8,
            negatives: 3,
            ..Default::default()
        };
        let mut run = TnsRun::new(&enriched, &gen.catalog, &config);
        let (target, context) = (TokenId(3), TokenId(5));
        let mut rows = Matrix::zeros(enriched.space().len(), config.dim);
        let mut state = StepState::new(&config, 0, 0);
        state.pair.row.fill(0.5);

        run.noise_tables[0] = NoiseTable::from_token_freqs(&[target], &[1], 0.75);
        run.tns_step(&mut rows, 0, context, 0.1, &mut state);
        assert_eq!(state.pair.kept, [context, target, target, target]);
        assert!(rows.row(target.index()).iter().any(|&x| x != 0.0));

        run.noise_tables[0] = NoiseTable::from_token_freqs(&[context], &[1], 0.75);
        run.tns_step(&mut rows, 0, context, 0.1, &mut state);
        assert_eq!(state.pair.kept, [context]);
    }
}
