//! The ownership-partitioned parallel training engine.
//!
//! Replaces contended atomic Hogwild with the paper's own medicine applied
//! intra-process (docs/PARALLELISM.md has the full scaling model):
//!
//! - **HBGP ownership** — every cold vocabulary row is owned by exactly one
//!   thread ([`OwnershipPlan`]); a pair is routed to the thread owning its
//!   context, so the entire output-side update mass (1 positive + N
//!   negatives per pair) runs the shared step kernel on its non-atomic
//!   `SplitRows` path, over matrices only that thread can touch.
//! - **ATNS hot replicas** — the top-K frequent rows, which every thread
//!   hits constantly, are replicated per thread
//!   ([`sisg_embedding::ReplicaBank`]) and delta-sum reconciled between
//!   rounds, trading bounded staleness for zero write sharing.
//!
//! # Concurrency structure
//!
//! There is no shared mutable state at all. Each *round* (an epoch is
//! `replica_sync_rounds` rounds) spawns scoped threads that own disjoint
//! `&mut` shard and replica matrices; the canonical input matrix is a
//! frozen read-only snapshot for the round (cross-shard pairs read their
//! target's input row from it). Between rounds the main thread — sole
//! owner again — averages the replicas and refreshes the snapshot. No
//! atomics, no locks, no `unsafe`: the borrow checker proves race freedom.
//!
//! # Determinism
//!
//! Every thread scans *all* sequences of a round and keeps only the pairs
//! routed to it (the "replicated scan"). Sequence-level randomness
//! (subsampling) comes from a per-sequence RNG seeded by
//! `(seed, epoch, sequence)`, so every thread sees the identical pair
//! stream; negatives come from a per-shard RNG advanced only by that
//! shard's own pairs; the learning rate is a pure function of prefix token
//! counts; merges accumulate in replica order. Same seed + same thread
//! count ⇒ bit-identical embeddings (pinned in `tests/partitioned.rs`).
//! Pair generation is a few percent of pair *training* cost, so the
//! redundant scan costs little — the model in docs/PARALLELISM.md
//! quantifies it.

use crate::noise::NoiseTable;
use crate::partition::OwnershipPlan;
use crate::sgd::{build_kept, steps, SplitRow, SplitRows};
use crate::trainer::{ChunkBuffers, ChunkStats, EpochContext, Sequences, TrainStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::TokenId;
use sisg_embedding::{EmbeddingStore, Matrix, ReplicaBank};
use sisg_obs::{names, registry};

/// Where a routed pair's *target* input row lives on the executing shard.
enum InputSrc {
    /// Hot replica slot — fresh, gradient applied in place.
    Hot(usize),
    /// Owned cold shard row — fresh, gradient applied in place.
    Cold(usize),
    /// Another shard owns it: read the canonical snapshot (stale within
    /// the round), train the output side, and bank the input gradient for
    /// the owner — the TNS gradient shipment of Algorithm 1, intra-process.
    Stale,
}

/// Per-shard bank of input gradients destined for rows other shards own.
/// Applied to the owners' rows by the main thread at the next merge, in
/// shard then insertion order — deterministic, and it turns the cross-cut
/// cost into bounded gradient delay instead of lost signal.
#[derive(Default)]
struct PendingGrads {
    /// `(token, accumulated gradient)` in first-touch order.
    rows: Vec<(TokenId, Vec<f32>)>,
    /// token → index into `rows`.
    index: std::collections::HashMap<u32, usize>,
}

impl PendingGrads {
    fn add(&mut self, token: TokenId, grad: &[f32]) {
        let at = *self.index.entry(token.0).or_insert_with(|| {
            self.rows.push((token, vec![0.0; grad.len()]));
            self.rows.len() - 1
        });
        sisg_embedding::kernels::add_assign(&mut self.rows[at].1, grad);
    }

    fn drain_into(&mut self, plan: &OwnershipPlan, cold_in: &mut [Matrix]) {
        for (token, grad) in self.rows.drain(..) {
            let owner = plan.owner(token);
            let local = plan.local_index(token);
            sisg_embedding::kernels::add_assign(cold_in[owner].row_mut(local), &grad);
        }
        self.index.clear();
    }
}

/// Long-lived per-shard state, carried across rounds so RNG streams and
/// buffers persist while the scoped threads are respawned each round.
struct ShardState {
    /// Local negative-sampling distribution over owned ∪ hot tokens
    /// (the paper's per-worker noise locality); `None` only for a shard
    /// with zero local frequency mass, which can never be routed a pair.
    noise: Option<NoiseTable>,
    neg_rng: StdRng,
    buf: ChunkBuffers,
    total: ChunkStats,
    owned_pairs: u64,
    cross_pairs: u64,
    /// Input gradients owed to other shards, shipped at the next merge.
    pending: PendingGrads,
}

/// What every shard reads during one round (shared, immutable).
struct Round<'a> {
    ctx: &'a EpochContext<'a>,
    plan: &'a OwnershipPlan,
    /// Prefix token counts: the LR at sequence `i` of epoch `e` is the same
    /// pure function of progress the sequential fetch_add path observes.
    cum: &'a [u64],
    /// The frozen canonical input matrix, for stale cross-shard reads.
    snapshot: &'a Matrix,
    epoch: usize,
    range: std::ops::Range<usize>,
}

/// One shard's exclusive `&mut` views for a round.
struct Shard<'a> {
    s: usize,
    cold_in: &'a mut Matrix,
    cold_out: &'a mut Matrix,
    hot_in: &'a mut Matrix,
    hot_out: &'a mut Matrix,
    st: &'a mut ShardState,
}

/// Ownership-partitioned training over `plan` (one shard per thread, at
/// least two — [`crate::train_into`] takes the single-threaded path
/// itself). Continues from `store`, which the caller has checked against
/// `freqs` and `ctx.config`.
pub(crate) fn train_partitioned_into<S: Sequences + ?Sized>(
    seqs: &S,
    freqs: &[u64],
    ctx: &EpochContext<'_>,
    mut store: EmbeddingStore,
    plan: &OwnershipPlan,
) -> (EmbeddingStore, TrainStats) {
    let config = ctx.config;
    let threads = plan.threads();
    let dim = config.dim;
    let n = seqs.n_sequences();
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0u64;
    for i in 0..n {
        cum.push(acc);
        acc += seqs.sequence(i).len() as u64;
    }

    // Physical shard matrices: gather every thread's owned cold rows, and
    // one hot replica per thread of the top-K rows.
    let hot_rows: Vec<usize> = plan.hot_tokens().iter().map(|t| t.index()).collect();
    let gather_shard = |src: &Matrix, tokens: &[TokenId]| -> Matrix {
        let mut m = Matrix::zeros(tokens.len(), dim);
        for (local, &t) in tokens.iter().enumerate() {
            m.row_mut(local).copy_from_slice(src.row(t.index()));
        }
        m
    };
    let mut cold_in: Vec<Matrix> = (0..threads)
        .map(|s| gather_shard(store.input_matrix(), plan.shard_tokens(s)))
        .collect();
    let mut cold_out: Vec<Matrix> = (0..threads)
        .map(|s| gather_shard(store.output_matrix(), plan.shard_tokens(s)))
        .collect();
    let mut hot_in = ReplicaBank::gather(threads, store.input_matrix(), &hot_rows);
    let mut hot_out = ReplicaBank::gather(threads, store.output_matrix(), &hot_rows);

    // Hot tokens sit in EVERY shard's noise support; sampled at their raw
    // global frequency they would absorb ~`threads`× the negative pressure
    // the sequential reference applies to them (each of the `threads`
    // shards draws them at ~`threads`× the correct local rate), which
    // measurably crushes popular output vectors — fatal for the
    // directional `input·output` variants. Down-weighting a hot token's
    // frequency by `threads^(-1/α)` divides its post-exponent sampling
    // probability by `threads`, restoring the reference pressure in
    // expectation: with balanced shards, shard mass becomes ~`total/T`
    // and pressure on hot `h` is `Σ_s (pairs/T)·(f_h/T)/(total/T) =
    // pairs·f_h/total`, while cold pressure is unchanged.
    let hot_scale = if config.noise_exponent > 0.0 {
        (threads as f64).powf(-1.0 / config.noise_exponent)
    } else {
        1.0
    };
    let mut states: Vec<ShardState> = (0..threads)
        .map(|s| {
            let mut support: Vec<TokenId> = plan.shard_tokens(s).to_vec();
            support.extend_from_slice(plan.hot_tokens());
            let n_cold = plan.shard_tokens(s).len();
            let local_freqs: Vec<u64> = support
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let f = freqs[t.index()];
                    if i >= n_cold && f > 0 {
                        ((f as f64 * hot_scale).round() as u64).max(1)
                    } else {
                        f
                    }
                })
                .collect();
            let noise = if local_freqs.iter().any(|&f| f > 0) {
                Some(NoiseTable::from_token_freqs(
                    &support,
                    &local_freqs,
                    config.noise_exponent,
                ))
            } else {
                None
            };
            ShardState {
                noise,
                neg_rng: StdRng::seed_from_u64(
                    config.seed ^ (s as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ),
                buf: ChunkBuffers::new(dim, config.negatives),
                total: ChunkStats::default(),
                owned_pairs: 0,
                cross_pairs: 0,
                pending: PendingGrads::default(),
            }
        })
        .collect();

    let rounds = config.replica_sync_rounds.max(1);
    let mut merge_rounds = 0u64;
    let mut merge_scratch = vec![0.0f32; dim];
    let span = sisg_obs::span(names::SGNS_TRAIN_SPAN);
    for epoch in 0..config.epochs {
        for round in 0..rounds {
            let round = Round {
                ctx,
                plan,
                cum: &cum,
                snapshot: store.input_matrix(),
                epoch,
                range: round * n / rounds..(round + 1) * n / rounds,
            };
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for (s, ((((cold_in, cold_out), hot_in), hot_out), st)) in cold_in
                    .iter_mut()
                    .zip(cold_out.iter_mut())
                    .zip(hot_in.replicas_mut())
                    .zip(hot_out.replicas_mut())
                    .zip(states.iter_mut())
                    .enumerate()
                {
                    let round = &round;
                    handles.push(scope.spawn(move || {
                        run_round(
                            seqs,
                            round,
                            Shard {
                                s,
                                cold_in,
                                cold_out,
                                hot_in,
                                hot_out,
                                st,
                            },
                        )
                    }));
                }
                for h in handles {
                    h.join().expect("partitioned training thread panicked");
                }
            });
            // Reconcile. First ship the banked cross-shard input gradients
            // to their owners' rows (shard order, then first-touch order —
            // deterministic); then reconcile the hot replicas with the
            // trust-region-clipped delta merge (deterministic replica order);
            // then publish hot rows and the freshly-trained cold input rows
            // into the canonical store so the next round's snapshot — and
            // its cross-shard reads — start merged.
            for st in states.iter_mut() {
                st.pending.drain_into(plan, &mut cold_in);
            }
            hot_in.merge_deltas(&mut merge_scratch);
            hot_out.merge_deltas(&mut merge_scratch);
            merge_rounds += 1;
            let input = store.input_matrix_mut();
            for (slot, &t) in plan.hot_tokens().iter().enumerate() {
                hot_in.publish_row(slot, input, t.index());
            }
            for (s, shard) in cold_in.iter().enumerate() {
                for (local, &t) in plan.shard_tokens(s).iter().enumerate() {
                    input.row_mut(t.index()).copy_from_slice(shard.row(local));
                }
            }
        }
    }
    // Final scatter: cold output rows lived only in the shards until now.
    let output = store.output_matrix_mut();
    for (slot, &t) in plan.hot_tokens().iter().enumerate() {
        hot_out.publish_row(slot, output, t.index());
    }
    for (s, shard) in cold_out.iter().enumerate() {
        for (local, &t) in plan.shard_tokens(s).iter().enumerate() {
            output.row_mut(t.index()).copy_from_slice(shard.row(local));
        }
    }

    let mut total = ChunkStats::default();
    let mut owned = 0u64;
    let mut cross = 0u64;
    for st in &states {
        total.merge(&st.total);
        owned += st.owned_pairs;
        cross += st.cross_pairs;
    }
    debug_assert_eq!(owned + cross, total.pairs, "pair routing accounting");
    registry()
        .counter(names::TRAIN_REPLICA_MERGES)
        .add(merge_rounds);
    registry().counter(names::TRAIN_OWNED_PAIRS).add(owned);
    registry()
        .counter(names::TRAIN_CROSS_SHARD_PAIRS)
        .add(cross);
    let stats = total.finish(span.finish().as_secs_f64());
    (store, stats)
}

/// Per-sequence RNG seed: identical on every thread, so the replicated
/// scan reproduces the exact same subsample decisions and pair stream.
#[inline]
fn sequence_seed(seed: u64, epoch: usize, i: usize) -> u64 {
    (seed ^ 0xA076_1D64_78BD_642F)
        .wrapping_add((epoch as u64).wrapping_mul(0x8CB9_2BA7_2F3D_8DD7))
        .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One shard's pass over one round's sequence range: scan everything, keep
/// and train only the pairs routed here.
fn run_round<S: Sequences + ?Sized>(seqs: &S, round: &Round<'_>, shard: Shard<'_>) {
    let (ctx, plan, epoch, s, st) = (round.ctx, round.plan, round.epoch, shard.s, shard.st);
    let config = ctx.config;
    let mut stats = ChunkStats::default();
    for i in round.range.clone() {
        let seq = seqs.sequence(i);
        let mut seq_rng = StdRng::seed_from_u64(sequence_seed(config.seed, epoch, i));
        ctx.subsample
            .filter_into(seq, &mut seq_rng, &mut st.buf.filtered);
        // Every thread scans every sequence; only shard 0 counts tokens so
        // the corpus isn't counted `threads` times.
        if s == 0 {
            stats.raw_tokens += seq.len() as u64;
            stats.tokens += st.buf.filtered.len() as u64;
        }
        let lr = ctx.lr(epoch as u64 * ctx.total_tokens + round.cum[i]);
        stats.last_lr = lr;

        ctx.sampler
            .pairs_into(&st.buf.filtered, &mut seq_rng, &mut st.buf.pair_buf);
        for idx in 0..st.buf.pair_buf.len() {
            let (target, context) = st.buf.pair_buf[idx];
            if plan.route(target, context) != s {
                continue;
            }
            let Some(noise) = &st.noise else {
                // Unreachable: a routed context always has local mass.
                continue;
            };
            noise.sample_into(&mut st.buf.negatives, config.negatives, &mut st.neg_rng);
            let scratch = &mut st.buf.scratch;
            scratch.grad.fill(0.0);
            let src = if let Some(slot) = plan.hot_slot(target) {
                InputSrc::Hot(slot)
            } else if plan.owner(target) == s {
                InputSrc::Cold(plan.local_index(target))
            } else {
                InputSrc::Stale
            };
            match src {
                InputSrc::Hot(slot) => scratch.row.copy_from_slice(shard.hot_in.row(slot)),
                InputSrc::Cold(local) => scratch.row.copy_from_slice(shard.cold_in.row(local)),
                InputSrc::Stale => scratch
                    .row
                    .copy_from_slice(round.snapshot.row(target.index())),
            }
            build_kept(&mut scratch.kept, context, &st.buf.negatives);
            let mut rows = SplitRows {
                cold: &mut *shard.cold_out,
                hot: &mut *shard.hot_out,
                resolve: |t| match plan.hot_slot(t) {
                    Some(slot) => SplitRow::Hot(slot),
                    None => {
                        debug_assert_eq!(plan.owner(t), s, "non-local step token {t}");
                        SplitRow::Cold(plan.local_index(t))
                    }
                },
            };
            let loss = steps(
                &mut rows,
                &scratch.kept,
                &scratch.row,
                lr,
                &ctx.sigmoid,
                &mut scratch.grad,
                &mut scratch.scores,
            );
            match src {
                InputSrc::Hot(slot) => {
                    sisg_embedding::kernels::add_assign(shard.hot_in.row_mut(slot), &scratch.grad);
                    st.owned_pairs += 1;
                }
                InputSrc::Cold(local) => {
                    sisg_embedding::kernels::add_assign(
                        shard.cold_in.row_mut(local),
                        &scratch.grad,
                    );
                    st.owned_pairs += 1;
                }
                // Cross-shard: the output side trained against a stale
                // input read; the input gradient belongs to another shard,
                // so bank it for delivery at the next merge (bounded
                // gradient delay, not lost signal).
                InputSrc::Stale => {
                    st.pending.add(target, &scratch.grad);
                    st.cross_pairs += 1;
                }
            }
            stats.pairs += 1;
            stats.loss_sum += loss;
            stats.loss_count += 1;
        }
    }
    stats.flush_to_obs();
    st.total.merge(&stats);
}
