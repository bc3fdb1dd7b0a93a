//! The TNS/ATNS training runtime — Algorithm 1 of the paper, with threads
//! as workers.
//!
//! Faithfulness notes (what maps to what):
//!
//! - **Worker = thread, and its rows are its own.** Every worker scans the
//!   whole behavior-sequence corpus and samples pairs only for the targets
//!   it manages — the structure of Algorithm 1, lines 1–6. It holds the
//!   rows it owns plus its replicas of the hot set `Q` as one row block of
//!   the store (`RowLayout`), exclusively: no other thread reads or
//!   writes them while it trains.
//! - **TNS routing.** For a pair `(v_i, v_j)` owned by worker `A`, the
//!   output-vector update and the negatives happen on `A' = owner(v_j)`:
//!   negatives are drawn from `A'`'s local noise distribution over
//!   `P_{A'} ∪ Q` (Section III-C). When `A' = A` the pair steps in place on
//!   the exact slice kernels. Otherwise it becomes a TNS request: `v_i`
//!   goes to `A'`, which steps its own output rows and sends the gradient
//!   back. In this process the row is read in place and the answer comes
//!   back through a mailbox; each remote pair is counted as the
//!   `2 · dim · 4` bytes a cluster would move for it.
//! - **Exchange.** Requests are exchanged bulk-synchronously after every
//!   block of sequences (`EXCHANGE_TOKENS`). Phase one: every owner
//!   serves its inbox in (peer, arrival) order with its own noise stream,
//!   reading each target row from the requester's block (no worker writes
//!   an input row in this phase) and summing the gradients of one target
//!   into one answer. Phase two: every requester applies the answers in
//!   (peer, first arrival) order. The learning rate is fixed per block by
//!   the pairs all workers trained before it. So each worker's rows see
//!   one order of operations that no thread schedule can change, and a
//!   run is bit-deterministic for any worker count.
//! - **ATNS.** Every worker's block starts with its replicas of the hot
//!   tokens `Q`; pairs whose *target* is hot are processed by the worker
//!   whose sequence shard they fall in (spreading the hot load), pairs
//!   whose *context* is hot step the worker's own replica, and the
//!   replicas are averaged at a barrier every `sync_interval` sequences.
//!   Hot tokens are additionally down-sampled more aggressively.
//! - **HBGP vs hash** is selected by [`PartitionStrategy`].
//!
//! The scan, the step and the row access path are the message-passing
//! machines' own (one [`TnsRun`]); this module owns the threads, the row
//! layout, the exchange and the barrier.

use crate::hbgp::HbgpPartitioner;
use crate::hotset::{average_replicas, HotSet};
use crate::partition::{assign_all, HashPartitioner, PartitionMap};
use crate::report::DistReport;
use crate::tns::{LocalRows, PairScan, ScanPair, StepState, TnsRun};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog, TokenId};
use sisg_embedding::{kernels, EmbeddingStore};
use sisg_obs::names as obs_names;
use sisg_sgns::WindowMode;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Enriched tokens every worker scans between two TNS exchanges: a block
/// is the run of whole sequences that first reaches this many tokens (or
/// the end of a sync round), so its boundaries depend on the corpus alone
/// and every worker cuts the same blocks. A smaller block costs barriers
/// and leaves idle the worker with the smaller share of a block's targets;
/// a larger one holds more requests and answers until the exchange and
/// delays remote gradients longer. DESIGN.md §9 has the measurement
/// behind the value.
const EXCHANGE_TOKENS: usize = 1024;

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
    let (w, dim, space, vocab) = (
        config.workers,
        config.dim,
        enriched.space(),
        enriched.vocab(),
    );
    let layout = RowLayout::new(partition, hot, w);
    // The token rows first, as `EmbeddingStore::new` initializes them,
    // then the rows of the replicas of Q beyond one per token. The output
    // rows start at zero, which every permutation leaves as it is, so only
    // the input rows are spread (and no output page is touched early).
    let (mut input, mut output) =
        EmbeddingStore::new(layout.rows(), dim, config.seed).into_matrices();
    layout.spread(input.as_mut_slice(), dim);

    let span = sisg_obs::span(obs_names::DIST_TRAIN_SPAN);
    let mut per_worker: Vec<WorkerCounters> = Vec::with_capacity(w);
    let (sync_bytes, sync_rounds) = {
        let ctx = RunCtx {
            run,
            local: &layout.local,
            inputs: layout
                .split(input.as_mut_slice(), dim)
                .into_iter()
                .map(RwLock::new)
                .collect(),
            outputs: layout
                .split(output.as_mut_slice(), dim)
                .into_iter()
                .map(Mutex::new)
                .collect(),
            mail: (0..w * w).map(|_| Mutex::default()).collect(),
            barrier: Barrier::new(w),
            progress: AtomicU64::new(0),
            sync_bytes: AtomicU64::new(0),
            sync_rounds: AtomicU64::new(0),
        };
        let block_rows = layout.block_rows();
        std::thread::scope(|scope| {
            let ctx = &ctx;
            // Worker 0 runs on the calling thread: one thread (and one
            // allocator arena) fewer.
            let handles: Vec<_> = (1..w)
                .map(|me| scope.spawn(move || Worker::new(ctx, me, block_rows).run()))
                .collect();
            per_worker.push(Worker::new(ctx, 0, block_rows).run());
            for h in handles {
                per_worker.push(h.join().expect("worker thread panicked"));
            }
        });
        // ORDERING: Relaxed — read after all worker threads joined; the join
        // is the synchronization, these are plain stat cells.
        (
            ctx.sync_bytes.load(Ordering::Relaxed),
            ctx.sync_rounds.load(Ordering::Relaxed),
        )
    };
    let seconds = span.finish().as_secs_f64();
    layout.collect(input.as_mut_slice(), dim);
    layout.collect(output.as_mut_slice(), dim);
    input.truncate_rows(space.len());
    output.truncate_rows(space.len());
    let store = EmbeddingStore::from_matrices(input, output);

    // Item-frequency load balance (items only, the quantity HBGP targets).
    let n_items = space.n_items() as usize;
    let item_freqs = &vocab.freqs()[..n_items];
    let item_map = PartitionMap::new(
        (0..n_items)
            .map(|i| partition.owner(TokenId(i as u32)) as u16)
            .collect(),
        w,
    );

    let sum = |f: fn(&WorkerCounters) -> u64| per_worker.iter().map(f).sum::<u64>();
    let report = DistReport {
        workers: w,
        partitioner: match config.strategy {
            PartitionStrategy::Hbgp { .. } => "hbgp".into(),
            PartitionStrategy::Hash => "hash".into(),
        },
        hot_set_size: hot.len(),
        pairs_per_worker: per_worker.iter().map(|c| c.pairs).collect(),
        local_pairs: sum(|c| c.pairs - c.remote_pairs),
        remote_pairs: sum(|c| c.remote_pairs),
        item_pairs: sum(|c| c.item_pairs),
        remote_item_pairs: sum(|c| c.remote_item_pairs),
        pair_comm_bytes: sum(|c| c.comm_bytes),
        sync_comm_bytes: sync_bytes,
        sync_rounds,
        requests_served: sum(|c| c.requests_served),
        rows_stepped: sum(|c| c.rows_stepped),
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

/// Where every row lives while the workers train. Worker `j`'s block holds
/// its replicas of `Q` (rows `0..|Q|`, in slot order), then the non-hot
/// tokens it owns, in token order; the blocks follow each other in worker
/// order. The canonical row of a hot token is its owner's replica, so the
/// store needs `(w − 1) · |Q|` rows past its token rows, and no row is
/// ever copied out of it: [`RowLayout::spread`] permutes the store's rows
/// into blocks in place and [`RowLayout::collect`] permutes them back.
struct RowLayout {
    /// Row of every token inside the block that holds it: a hot token's
    /// slot, or `|Q|` plus a non-hot token's rank among its owner's.
    local: Vec<u32>,
    /// First row of every block, then the total row count.
    starts: Vec<usize>,
    /// Layout row of every store row: the token rows, then the spare rows
    /// that become the replicas of `Q` on the workers that do not own them.
    dest: Vec<u32>,
    /// Per hot slot, the worker whose replica is the canonical row.
    slot_owner: Vec<usize>,
}

impl RowLayout {
    fn new(partition: &PartitionMap, hot: &HotSet, workers: usize) -> Self {
        let q = hot.len();
        let mut counts = vec![q; workers];
        let local: Vec<u32> = (0..partition.len())
            .map(|t| {
                let token = TokenId(t as u32);
                let row = match hot.slot(token) {
                    Some(slot) => slot,
                    None => {
                        let owner = partition.owner(token);
                        counts[owner] += 1;
                        counts[owner] - 1
                    }
                };
                row as u32
            })
            .collect();
        let mut starts = Vec::with_capacity(workers + 1);
        starts.push(0);
        for c in &counts {
            starts.push(starts[starts.len() - 1] + c);
        }
        let slot_owner: Vec<usize> = hot.tokens().iter().map(|&t| partition.owner(t)).collect();
        let mut dest: Vec<u32> = local
            .iter()
            .enumerate()
            .map(|(t, &row)| (starts[partition.owner(TokenId(t as u32))] + row as usize) as u32)
            .collect();
        for (j, start) in starts.iter().take(workers).enumerate() {
            for (slot, &owner) in slot_owner.iter().enumerate() {
                if owner != j {
                    dest.push((start + slot) as u32);
                }
            }
        }
        debug_assert_eq!(dest.len(), starts[workers]);
        Self {
            local,
            starts,
            dest,
            slot_owner,
        }
    }

    /// Rows of the store while the workers train.
    fn rows(&self) -> usize {
        self.dest.len()
    }

    /// Moves the rows of one matrix from store order into the blocks, and
    /// copies every hot token's row into the other workers' replicas.
    fn spread(&self, data: &mut [f32], dim: usize) {
        permute_rows(data, dim, &self.dest);
        for (slot, &owner) in self.slot_owner.iter().enumerate() {
            let from = (self.starts[owner] + slot) * dim;
            for (j, &start) in self.starts[..self.starts.len() - 1].iter().enumerate() {
                if j != owner {
                    data.copy_within(from..from + dim, (start + slot) * dim);
                }
            }
        }
    }

    /// Moves the rows of one matrix back into store order: token rows
    /// first, each hot token's canonical row taken from its owner's
    /// replica.
    fn collect(&self, data: &mut [f32], dim: usize) {
        let mut source = vec![0u32; self.dest.len()];
        for (from, &to) in self.dest.iter().enumerate() {
            source[to as usize] = from as u32;
        }
        permute_rows(data, dim, &source);
    }

    /// Rows of the largest block.
    fn block_rows(&self) -> usize {
        self.starts
            .windows(2)
            .map(|s| s[1] - s[0])
            .max()
            .unwrap_or(0)
    }

    /// One matrix's blocks, in worker order.
    fn split<'d>(&self, mut data: &'d mut [f32], dim: usize) -> Vec<&'d mut [f32]> {
        self.starts
            .windows(2)
            .map(|s| {
                let (block, rest) = std::mem::take(&mut data).split_at_mut((s[1] - s[0]) * dim);
                data = rest;
                block
            })
            .collect()
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

/// The requests one worker sends another in one exchange block, and the
/// owner's answers.
#[derive(Default)]
struct Mailbox {
    /// `(target, context)` of every request, in arrival order.
    requests: Vec<(TokenId, TokenId)>,
    /// The targets the owner answered, in order of first arrival.
    targets: Vec<TokenId>,
    /// The summed gradient of `targets[k]`'s requests,
    /// `grads[k·dim..(k + 1)·dim]`.
    grads: Vec<f32>,
}

/// What the worker threads share: the run, the row blocks, the mailboxes,
/// the barrier and the counters read across it.
struct RunCtx<'r, 'd> {
    run: TnsRun<'r>,
    /// [`RowLayout::local`].
    local: &'r [u32],
    /// Worker `j`'s input rows. Its owner writes them while it scans and
    /// while it applies gradients; in between, while requests are served,
    /// every worker only reads them.
    inputs: Vec<RwLock<&'d mut [f32]>>,
    /// Worker `j`'s output rows; only worker `j` touches them, except the
    /// sync leader while the others wait.
    outputs: Vec<Mutex<&'d mut [f32]>>,
    /// `mail[from · w + to]`: the requests `from` sent `to` in this block.
    mail: Vec<Mutex<Mailbox>>,
    barrier: Barrier,
    /// Pairs trained by all workers in the finished blocks.
    progress: AtomicU64,
    sync_bytes: AtomicU64,
    sync_rounds: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a worker thread panicked")
}

#[derive(Debug, Default, Clone)]
struct WorkerCounters {
    pairs: u64,
    remote_pairs: u64,
    item_pairs: u64,
    remote_item_pairs: u64,
    comm_bytes: u64,
    requests_served: u64,
    rows_stepped: u64,
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

/// One worker thread's state.
struct Worker<'c, 'r, 'd> {
    ctx: &'c RunCtx<'r, 'd>,
    me: usize,
    state: StepState,
    /// [`LocalRows::step_rows`].
    step_rows: Vec<TokenId>,
    /// This block's requests to every other worker.
    outbox: Vec<Mailbox>,
    /// While a peer's requests are served: `answer[r]` is the index in
    /// `Mailbox::targets` of the target in the peer's local row `r`, plus
    /// one (0 = no answer yet).
    answer: Vec<u32>,
    counters: WorkerCounters,
}

impl<'c, 'r, 'd> Worker<'c, 'r, 'd> {
    fn new(ctx: &'c RunCtx<'r, 'd>, me: usize, block_rows: usize) -> Self {
        let config = ctx.run.config;
        Self {
            ctx,
            me,
            state: StepState::new(config, me, 0),
            step_rows: Vec::with_capacity(config.negatives + 1),
            outbox: (0..config.workers).map(|_| Mailbox::default()).collect(),
            answer: vec![0; block_rows],
            counters: WorkerCounters::default(),
        }
    }

    fn run(mut self) -> WorkerCounters {
        let ctx = self.ctx;
        let run = &ctx.run;
        let config = run.config;
        // One clamped interval for the round count and both slice bounds: a
        // configured 0 means "synchronize after every sequence", like 1.
        let sync_interval = config.sync_interval.max(1);
        let sequences = run.enriched.len();
        let rounds_per_epoch = sequences.div_ceil(sync_interval).max(1);
        let mut scan = PairScan::new(run, self.me, 0);
        let mut lr = run.lr_at(0);
        for _ in 0..config.epochs {
            for round in 0..rounds_per_epoch {
                let round_end = ((round + 1) * sync_interval).min(sequences);
                let mut end = round * sync_interval;
                loop {
                    // The block: whole sequences, until they reach the
                    // token budget or the round ends.
                    let mut tokens = 0;
                    while end < round_end && tokens < EXCHANGE_TOKENS {
                        tokens += run.enriched.sequence_len(end);
                        end += 1;
                    }
                    let pairs = self.scan_block(&mut scan, end, lr);
                    self.post();
                    // ORDERING: Relaxed — every worker adds before the
                    // barrier and reads after it, and no worker adds again
                    // before the next barrier; the barrier orders both.
                    ctx.progress.fetch_add(pairs, Ordering::Relaxed);
                    ctx.barrier.wait();
                    lr = run.lr_at(ctx.progress.load(Ordering::Relaxed));
                    self.serve(lr);
                    ctx.barrier.wait();
                    self.apply();
                    if end >= round_end {
                        break;
                    }
                }
                self.synchronize();
            }
            scan.next_epoch();
        }
        self.counters
    }

    /// Scans the sequences before `end`: steps every local pair in place
    /// and queues every remote one as a request to its route.
    fn scan_block(&mut self, scan: &mut PairScan<'_>, end: usize, lr: f32) -> u64 {
        let (ctx, me) = (self.ctx, self.me);
        let (run, local, dim) = (&ctx.run, ctx.local, ctx.run.config.dim);
        let mut input = write(&ctx.inputs[me]);
        let mut output = lock(&ctx.outputs[me]);
        let mut pairs = 0;
        while let Some(pair) = scan.next(end) {
            pairs += 1;
            self.counters.record(me, &pair, run);
            if pair.route != me {
                self.outbox[pair.route]
                    .requests
                    .push((pair.target, pair.context));
                continue;
            }
            let row = local[pair.target.index()] as usize * dim;
            let target = &mut input[row..row + dim];
            self.state.pair.row.copy_from_slice(target);
            let mut rows = LocalRows {
                rows: &mut output[..],
                local,
                step_rows: &mut self.step_rows,
            };
            run.tns_step(&mut rows, me, pair.context, lr, &mut self.state);
            self.counters.rows_stepped += self.state.pair.kept.len() as u64;
            kernels::add_assign(target, &self.state.pair.grad);
        }
        pairs
    }

    /// Hands this block's requests to their owners.
    fn post(&mut self) {
        let w = self.outbox.len();
        for (to, outbox) in self.outbox.iter_mut().enumerate() {
            if to != self.me {
                std::mem::swap(&mut *lock(&self.ctx.mail[self.me * w + to]), outbox);
            }
        }
    }

    /// Phase one: serves every peer's requests, peer by peer in arrival
    /// order, on this worker's output rows and noise stream. Each request
    /// reads its target row from the requester's block, which nobody
    /// writes in this phase; the gradients of one target are summed into
    /// one answer.
    fn serve(&mut self, lr: f32) {
        let (ctx, me) = (self.ctx, self.me);
        let (run, local, dim, w) = (&ctx.run, ctx.local, ctx.run.config.dim, self.outbox.len());
        let mut output = lock(&ctx.outputs[me]);
        for from in (0..w).filter(|&from| from != me) {
            let input = read(&ctx.inputs[from]);
            let mut inbox = lock(&ctx.mail[from * w + me]);
            let Mailbox {
                requests,
                targets,
                grads,
            } = &mut *inbox;
            for &(target, context) in requests.iter() {
                let r = local[target.index()] as usize;
                self.state
                    .pair
                    .row
                    .copy_from_slice(&input[r * dim..(r + 1) * dim]);
                let mut rows = LocalRows {
                    rows: &mut output[..],
                    local,
                    step_rows: &mut self.step_rows,
                };
                run.tns_step(&mut rows, me, context, lr, &mut self.state);
                self.counters.rows_stepped += self.state.pair.kept.len() as u64;
                let grad = &self.state.pair.grad;
                match self.answer[r] {
                    0 => {
                        targets.push(target);
                        grads.extend_from_slice(grad);
                        self.answer[r] = targets.len() as u32;
                    }
                    k => {
                        let k = k as usize - 1;
                        kernels::add_assign(&mut grads[k * dim..(k + 1) * dim], grad);
                    }
                }
            }
            for t in targets.iter() {
                self.answer[local[t.index()] as usize] = 0;
            }
            self.counters.requests_served += requests.len() as u64;
        }
    }

    /// Phase two: takes the answers back and applies every target's
    /// summed gradient, peer by peer in order of first arrival.
    fn apply(&mut self) {
        let (ctx, me) = (self.ctx, self.me);
        let (local, dim, w) = (ctx.local, ctx.run.config.dim, self.outbox.len());
        let mut input = write(&ctx.inputs[me]);
        for (to, outbox) in self.outbox.iter_mut().enumerate() {
            if to == me {
                continue;
            }
            std::mem::swap(&mut *lock(&ctx.mail[me * w + to]), outbox);
            for (&target, grad) in outbox.targets.iter().zip(outbox.grads.chunks_exact(dim)) {
                let row = local[target.index()] as usize * dim;
                kernels::add_assign(&mut input[row..row + dim], grad);
            }
            outbox.requests.clear();
            outbox.targets.clear();
            outbox.grads.clear();
        }
    }

    /// The ATNS synchronization barrier: one worker averages every
    /// worker's replicas of `Q` while the others wait, then all resume.
    fn synchronize(&mut self) {
        let ctx = self.ctx;
        if ctx.barrier.wait().is_leader() {
            let sync_span = sisg_obs::span(obs_names::DIST_SYNC_SPAN);
            let (hot, dim) = (&ctx.run.hot, ctx.run.config.dim);
            let replicas = hot.len() * dim;
            let mut inputs: Vec<_> = ctx.inputs.iter().map(write).collect();
            let mut blocks: Vec<&mut [f32]> =
                inputs.iter_mut().map(|b| &mut b[..replicas]).collect();
            average_replicas(&mut blocks, dim);
            let mut outputs: Vec<_> = ctx.outputs.iter().map(lock).collect();
            let mut blocks: Vec<&mut [f32]> =
                outputs.iter_mut().map(|b| &mut b[..replicas]).collect();
            average_replicas(&mut blocks, dim);
            sync_span.finish();
            // ORDERING: Relaxed — stat counters read only after join; the
            // surrounding barrier orders the averaged rows.
            ctx.sync_bytes
                .fetch_add(hot.sync_bytes(ctx.inputs.len(), dim), Ordering::Relaxed);
            ctx.sync_rounds.fetch_add(1, Ordering::Relaxed);
        }
        ctx.barrier.wait();
    }
}

fn read<'a, T>(l: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
    l.read().expect("a worker thread panicked")
}

fn write<'a, T>(l: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
    l.write().expect("a worker thread panicked")
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

    fn bits(store: &EmbeddingStore) -> Vec<u32> {
        let (input, output) = (store.input_matrix(), store.output_matrix());
        input
            .as_slice()
            .iter()
            .chain(output.as_slice())
            .map(|x| x.to_bits())
            .collect()
    }

    /// Every worker steps only its own rows in a fixed order, so a run
    /// with `Q` on returns the same store bit for bit, whatever the thread
    /// schedule — at 2 and at 4 workers.
    #[test]
    fn runs_with_the_hot_set_on_are_bit_identical() {
        let gen = corpus();
        for workers in [2, 4] {
            let config = fast_config(workers);
            let (a, report_a) = train_on(&gen, EnrichOptions::FULL, &config);
            let (b, report_b) = train_on(&gen, EnrichOptions::FULL, &config);
            assert!(report_a.remote_pairs > 0 && report_a.sync_rounds > 0);
            assert!(bits(&a) == bits(&b), "{workers} workers: stores differ");
            assert_eq!(report_a.pairs_per_worker, report_b.pairs_per_worker);
        }
    }

    /// Every remote pair is one request its owner serves, and every step
    /// touches the context plus at most `negatives` rows.
    #[test]
    fn each_remote_pair_is_served_once() {
        let gen = corpus();
        let config = fast_config(3);
        let (_, report) = train_on(&gen, EnrichOptions::FULL, &config);
        assert!(report.remote_pairs > 0);
        assert_eq!(report.requests_served, report.remote_pairs);
        let pairs = report.total_pairs();
        assert!(report.rows_stepped >= pairs);
        assert!(report.rows_stepped <= pairs * (1 + config.negatives as u64));
    }

    /// The row layout gives each worker its replicas of `Q` and the tokens
    /// it owns, and spreading then collecting a matrix restores every
    /// token row; a spread hot row reaches every worker's replica.
    #[test]
    fn row_layout_round_trips_and_replicates_the_hot_rows() {
        let (n, workers, dim) = (23usize, 3usize, 2usize);
        let owners: Vec<u16> = (0..n).map(|t| ((t * 7) % workers) as u16).collect();
        let partition = PartitionMap::new(owners, workers);
        let hot = HotSet::from_tokens(n, vec![TokenId(5), TokenId(0), TokenId(17)]);
        let layout = RowLayout::new(&partition, &hot, workers);
        assert_eq!(layout.rows(), n + (workers - 1) * hot.len());
        let mut data: Vec<f32> = (0..layout.rows() * dim).map(|x| x as f32).collect();
        let original = data.clone();
        layout.spread(&mut data, dim);
        let blocks = layout.split(&mut data, dim);
        for (j, block) in blocks.iter().enumerate() {
            for t in 0..n {
                let token = TokenId(t as u32);
                if hot.contains(token) || partition.owner(token) == j {
                    let r = layout.local[t] as usize;
                    let row = &block[r * dim..(r + 1) * dim];
                    assert_eq!(
                        row,
                        &original[t * dim..(t + 1) * dim],
                        "worker {j} token {t}"
                    );
                }
            }
        }
        layout.collect(&mut data, dim);
        assert_eq!(data[..n * dim], original[..n * dim]);
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
