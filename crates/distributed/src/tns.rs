//! Algorithm 1 of the paper (TNS, extended by ATNS), set up once for every
//! Section III worker: the one run set-up ([`TnsRun`]) with the row layout
//! of the workers' blocks, one worker's resumable pair scan ([`PairScan`],
//! lines 1–6) and the one TNS call ([`TnsRun::tns_step`], lines 7–12),
//! stepped over one exclusive row access path ([`LocalRows`]). The one
//! worker that runs them is [`crate::WorkerMachine`], whichever transport
//! carries its messages.
//!
//! This module is panic-free code (DESIGN.md §7): the machines run it.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::fault::mix64;
use crate::hotset::HotSet;
use crate::partition::PartitionMap;
use crate::runtime::{build_partition, DistConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::{EnrichedCorpus, ItemCatalog, TokenId};
use sisg_embedding::{kernels, EmbeddingStore, Matrix};
use sisg_sgns::sgd::{build_kept, steps, OutputRows};
use sisg_sgns::sigmoid::SigmoidTable;
use sisg_sgns::{
    linear_lr, NoiseTable, PairKinds, PairSampler, PairScratch, PairStream, SubsampleTable,
    WindowMode,
};
use std::borrow::Cow;

/// Extra keep-probability factor for hot non-item tokens (< 1 = the
/// "aggressive" down-sampling of ATNS).
const HOT_SUBSAMPLE_FACTOR: f32 = 0.3;

/// Seed of a worker's *scan* RNG (subsampling + pair sampling) for one
/// epoch. Epoch-scoped, so a machine restored from a block checkpoint
/// fast-forwards to its block on the same stream and rescans the pairs
/// the first attempt scanned.
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

/// One TNS training run: everything the workers share, built once. Both
/// drivers take their machines from it ([`TnsRun::machines`], or
/// [`crate::WorkerMachine::restore`] after a crash) and hand the finished
/// ones back to [`TnsRun::assemble`].
pub struct TnsRun<'a> {
    pub(crate) config: &'a DistConfig,
    pub(crate) enriched: &'a EnrichedCorpus<'a>,
    pub(crate) partition: Cow<'a, PartitionMap>,
    pub(crate) hot: Cow<'a, HotSet>,
    noise_tables: Vec<NoiseTable>,
    subsample: SubsampleTable,
    sampler: PairSampler,
    sigmoid: SigmoidTable,
    /// Total scheduled pairs (denominator of the decay): every window pair
    /// of the corpus *before* subsampling, × epochs. `lr_at`'s progress
    /// counts the pairs the workers scan, after subsampling, so the rate
    /// never reaches its floor (on `train_dist`'s job an epoch ends at
    /// progress ≈ 0.3). The rule is kept on purpose: a full decay lowered
    /// HR@10 on every seed tried (DESIGN.md §5).
    schedule_pairs: u64,
    /// Row of every token inside the block of a worker that holds it: a
    /// hot token's slot of `Q`, or `|Q|` plus a non-hot token's rank among
    /// its owner's. Worker `j`'s block holds its replicas of `Q`, then the
    /// non-hot tokens it owns, in token order; the blocks follow each other
    /// in worker order.
    pub(crate) local: Vec<u32>,
    /// First row of every block, then the total row count.
    starts: Vec<usize>,
    /// Block-order row of every store row: the token rows (a hot token's
    /// at its owner's replica), then the `(w − 1)·|Q|` spare rows that
    /// become the other workers' replicas.
    dest: Vec<u32>,
}

impl<'a> TnsRun<'a> {
    /// Sets up a run of `config` over `enriched`, building its partition
    /// and its hot set `Q` of `config.hot_set_size` tokens.
    ///
    /// # Panics
    /// Panics when `config.workers == 0`.
    pub fn new(
        enriched: &'a EnrichedCorpus<'a>,
        catalog: &ItemCatalog,
        config: &'a DistConfig,
    ) -> Self {
        let partition = build_partition(config, enriched.sessions(), catalog, enriched.space());
        let hot = HotSet::top_k(enriched.vocab(), config.hot_set_size);
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
        let mut counts = vec![hot.len(); config.workers];
        let local: Vec<u32> = (0..partition.len())
            .map(|t| {
                let token = TokenId(t as u32);
                let row = hot.slot(token).unwrap_or_else(|| {
                    let rows = &mut counts[partition.owner(token)];
                    *rows += 1;
                    *rows - 1
                });
                row as u32
            })
            .collect();
        let mut starts = vec![0];
        for c in &counts {
            starts.push(starts[starts.len() - 1] + c);
        }
        let mut dest: Vec<u32> = local
            .iter()
            .enumerate()
            .map(|(t, &row)| (starts[partition.owner(TokenId(t as u32))] + row as usize) as u32)
            .collect();
        for (j, start) in starts.iter().take(config.workers).enumerate() {
            for (slot, &t) in hot.tokens().iter().enumerate() {
                if partition.owner(t) != j {
                    dest.push((start + slot) as u32);
                }
            }
        }
        Self {
            noise_tables: members.iter().map(noise).collect(),
            subsample,
            sampler: PairSampler {
                window: config.window,
                mode: config.window_mode,
            },
            sigmoid: SigmoidTable::new(),
            schedule_pairs: enriched.count_positive_pairs(config.window, directional)
                * config.epochs as u64,
            config,
            enriched,
            partition,
            hot,
            local,
            starts,
            dest,
        }
    }

    /// Rows of worker `j`'s block.
    pub(crate) fn block_rows(&self, j: usize) -> usize {
        self.starts[j + 1] - self.starts[j]
    }

    /// The run's initial rows in block order: the input rows
    /// `EmbeddingStore::new` draws for the token space, permuted in place
    /// into the workers' blocks with every hot row copied into every
    /// replica, and zero output rows (which need no move).
    pub fn initial_store(&self) -> (Matrix, Matrix) {
        let (config, w) = (self.config, self.config.workers);
        let dim = config.dim;
        let (mut input, output) =
            EmbeddingStore::new(self.dest.len(), dim, config.seed).into_matrices();
        let data = input.as_mut_slice();
        permute_rows(data, dim, &self.dest);
        for (slot, &t) in self.hot.tokens().iter().enumerate() {
            let owner = self.partition.owner(t);
            let from = (self.starts[owner] + slot) * dim;
            for j in (0..w).filter(|&j| j != owner) {
                data.copy_within(from..from + dim, (self.starts[j] + slot) * dim);
            }
        }
        (input, output)
    }

    /// Worker `j`'s rows of a block-order matrix, for every worker.
    pub(crate) fn split<'d>(&self, mut data: &'d mut [f32]) -> Vec<&'d mut [f32]> {
        let dim = self.config.dim;
        self.starts
            .windows(2)
            .map(|s| {
                let (block, rest) = std::mem::take(&mut data).split_at_mut((s[1] - s[0]) * dim);
                data = rest;
                block
            })
            .collect()
    }

    /// Moves a block-order matrix's rows back into store order — a hot
    /// token's from its owner's replica — and drops the spare rows.
    pub(crate) fn collect(&self, m: &mut Matrix) {
        let mut source = vec![0u32; self.dest.len()];
        for (from, &to) in self.dest.iter().enumerate() {
            source[to as usize] = from as u32;
        }
        permute_rows(m.as_mut_slice(), self.config.dim, &source);
        m.truncate_rows(self.local.len());
    }

    /// The run's token → owner map.
    pub fn partition(&self) -> &PartitionMap {
        &self.partition
    }

    /// Max/mean item-frequency load per worker: items only, the quantity
    /// HBGP balances.
    pub(crate) fn item_imbalance(&self) -> f64 {
        let n = self.enriched.space().n_items() as usize;
        PartitionMap::new(self.partition.owners()[..n].to_vec(), self.config.workers)
            .imbalance(&self.enriched.vocab().freqs()[..n])
    }

    /// The learning rate after `done` of the run's scheduled pairs.
    pub(crate) fn lr_at(&self, done: u64) -> f32 {
        let (lr0, lr_min) = (self.config.learning_rate, self.config.min_learning_rate);
        linear_lr(lr0, lr_min, done, self.schedule_pairs)
    }

    /// The TNS call on worker `route`: draws `config.negatives` negatives
    /// from `route`'s local noise distribution, steps the output rows of
    /// `context` (the positive) and of every negative that is not the
    /// context — the target included, as in word2vec — against the target's
    /// input row cached in `state.pair.row`, and leaves the input gradient
    /// in `state.pair.grad` for the target's owner to apply. The rows it
    /// stepped are `state.pair.kept`.
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

/// Moves row `i` of the row-major `data` to row `dest[i]` for every `i`,
/// one permutation cycle at a time through one row of scratch.
fn permute_rows(data: &mut [f32], dim: usize, dest: &[u32]) {
    let mut moved = vec![false; dest.len()];
    let mut carry = vec![0.0f32; dim];
    for start in 0..dest.len() {
        if moved[start] || dest[start] as usize == start {
            continue;
        }
        carry.copy_from_slice(&data[start * dim..(start + 1) * dim]);
        let mut at = start;
        loop {
            moved[at] = true;
            at = dest[at] as usize;
            data[at * dim..(at + 1) * dim].swap_with_slice(&mut carry);
            if at == start {
                break;
            }
        }
    }
}

/// A worker's exclusive output rows, addressed by token: token `t` is row
/// `local[t]` of the row-major block `rows`. Every TNS step, local or
/// served, runs through it on the exact slice kernels ([`kernels::dot_rows`],
/// [`kernels::fused_step_rows`]). Step tokens map to local rows one to one,
/// so distinct tokens stay distinct and every run of `steps` sees the same
/// step list.
pub(crate) struct LocalRows<'a> {
    pub(crate) rows: &'a mut [f32],
    pub(crate) local: &'a [u32],
    /// Local rows of the step tokens of the current call.
    pub(crate) step_rows: &'a mut Vec<TokenId>,
}

impl LocalRows<'_> {
    #[inline]
    fn map_step_rows(&mut self, ts: &[TokenId]) {
        let local = self.local;
        self.step_rows.clear();
        self.step_rows.extend(ts.iter().map(|t| {
            let r = local[t.index()];
            debug_assert_ne!(r, u32::MAX, "token not owned by this worker");
            TokenId(r)
        }));
    }
}

impl OutputRows for LocalRows<'_> {
    #[inline]
    fn dots(&mut self, ts: &[TokenId], v: &[f32], scores: &mut [f32]) {
        self.map_step_rows(ts);
        kernels::dot_rows(self.rows, self.step_rows, v, scores);
    }
    #[inline]
    fn fused_steps(&mut self, ts: &[TokenId], gs: &[f32], v: &[f32], grad: &mut [f32]) {
        self.map_step_rows(ts);
        kernels::fused_step_rows(self.rows, self.step_rows, gs, v, grad);
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
}

/// One worker's resumable Algorithm 1 scan over one epoch at a time: the
/// run's [`PairStream`], filtered by the worker's responsibility rule.
pub(crate) struct PairScan<'r> {
    run: &'r TnsRun<'r>,
    me: usize,
    rng: StdRng,
    epoch: usize,
    stream: PairStream<'r, EnrichedCorpus<'r>>,
}

impl<'r> PairScan<'r> {
    /// Worker `me`'s scan of `run`, at the start of `epoch`.
    pub(crate) fn new(run: &'r TnsRun<'r>, me: usize, epoch: usize) -> Self {
        Self {
            run,
            me,
            rng: StdRng::seed_from_u64(scan_seed(run.config.seed, me, epoch)),
            epoch,
            stream: PairStream::new(run.enriched, Some(&run.subsample), run.sampler),
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
        let (run, me) = (self.run, self.me);
        let responsible = |i: usize, t: TokenId| match run.hot.contains(t) {
            true => i % run.config.workers == me,
            false => run.partition.owner(t) == me,
        };
        let (target, context) = self.stream.next_until(end, &mut self.rng, responsible)?;
        let route = match run.hot.contains(context) {
            true => me,
            false => run.partition.owner(context),
        };
        Some(ScanPair {
            target,
            context,
            route,
        })
    }

    /// The kinds of the pairs scanned since the last call.
    pub(crate) fn take_pair_kinds(&mut self) -> PairKinds {
        self.stream.take_pair_kinds()
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

    /// With `Q` on, a worker's scan yields exactly the stream's pairs of
    /// owned non-hot targets and of hot targets of its sequence shard, and
    /// routes hot contexts locally and every other context to its owner.
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

        // The reference: every pair of the stream, sequence by sequence,
        // kept and routed by the rule written out.
        let mut rng = StdRng::seed_from_u64(scan_seed(config.seed, me, 0));
        let mut all = PairStream::new(&enriched, Some(&run.subsample), run.sampler);
        let mut want = Vec::new();
        for i in 0..enriched.len() {
            while let Some((t, c)) = all.next_until(i + 1, &mut rng, |_, _| true) {
                let (hot, owner) = (&run.hot, |x| run.partition.owner(x));
                if (hot.contains(t) && i % w == me) || (!hot.contains(t) && owner(t) == me) {
                    want.push((t, c, if hot.contains(c) { me } else { owner(c) }));
                }
            }
        }
        assert!(want.iter().any(|p| run.hot.contains(p.0)), "no hot target");
        assert!(want.iter().any(|p| run.hot.contains(p.1)), "no hot context");
        assert_eq!(got, want);
    }

    /// Each worker's block holds its replicas of `Q` and the tokens it
    /// owns, spread from the store rows, and collecting the blocks
    /// restores every token row, a hot one from its owner's replica.
    #[test]
    fn blocks_round_trip_and_replicate_the_hot_rows() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::FULL);
        let config = DistConfig {
            workers: 3,
            dim: 4,
            hot_set_size: 16,
            ..Default::default()
        };
        let run = TnsRun::new(&enriched, &gen.catalog, &config);
        let n = enriched.space().len();
        assert_eq!(run.starts[3], n + 2 * run.hot.len());
        let (store, _) = EmbeddingStore::new(n, 4, config.seed).into_matrices();
        let (mut blocks, _) = run.initial_store();
        for (j, block) in run.split(blocks.as_mut_slice()).iter().enumerate() {
            assert_eq!(block.len(), run.block_rows(j) * 4);
            for t in 0..n {
                let token = TokenId(t as u32);
                if run.hot.contains(token) || run.partition.owner(token) == j {
                    let r = run.local[t] as usize * 4;
                    assert_eq!(block[r..r + 4], *store.row(t), "worker {j} token {t}");
                }
            }
        }
        run.collect(&mut blocks);
        assert_eq!(blocks.as_slice(), store.as_slice());
    }

    /// The learning rate starts at the configured rate and decays with the
    /// pairs trained.
    #[test]
    fn lr_decays_with_progress() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::NONE);
        let config = DistConfig {
            workers: 2,
            ..Default::default()
        };
        let run = TnsRun::new(&enriched, &gen.catalog, &config);
        assert_eq!(run.lr_at(0), config.learning_rate);
        assert!(run.lr_at(run.schedule_pairs / 2) < config.learning_rate);
    }

    /// The schedule's basis is the pairs before subsampling, and the
    /// workers' scanned pairs, which `lr_at`'s progress counts, fall well
    /// short of it: the last pair of the run trains far above the floor.
    #[test]
    fn schedule_counts_pairs_before_subsampling() {
        let gen = corpus();
        let enriched = EnrichedCorpus::build(&gen, EnrichOptions::FULL);
        let config = DistConfig {
            workers: 2,
            window: 3,
            epochs: 2,
            ..Default::default()
        };
        let run = TnsRun::new(&enriched, &gen.catalog, &config);
        let before_subsampling = enriched.count_positive_pairs(config.window, false);
        assert_eq!(run.schedule_pairs, before_subsampling * 2);
        let scanned: u64 = (0..config.workers)
            .map(|me| {
                let mut scan = PairScan::new(&run, me, 0);
                std::iter::from_fn(|| scan.next(enriched.len())).count() as u64
            })
            .sum();
        assert!(
            scanned < before_subsampling / 2,
            "{scanned} of {before_subsampling}"
        );
        assert!(run.lr_at(2 * scanned) > config.learning_rate / 2.0);
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
