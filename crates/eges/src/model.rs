//! The EGES model: skip-gram with attention-weighted SI aggregation.
//!
//! Each item `v` owns an ID embedding `W⁰_v`, shares SI embeddings `W^s`
//! with all items carrying the same SI value, and owns attention logits
//! `a_v ∈ ℝ^{1+8}`. Its input representation is
//!
//! ```text
//! H_v = Σ_s softmax(a_v)_s · W^s_v
//! ```
//!
//! Only items have output vectors — per Section IV-A of the SISG paper,
//! "in the EGES model SI vectors do not have corresponding output vectors",
//! which is one reason SISG's positive-pair combinations are richer.
//! Similarity is the cosine between aggregated representations (symmetric —
//! EGES cannot express click-order asymmetry).

use crate::graph::ItemGraph;
use crate::walk::{generate_walks, WalkConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{GeneratedCorpus, ItemId, TokenId};
use sisg_embedding::math::cosine;
use sisg_embedding::{kernels, retrieve_top_k, Matrix, Neighbor};
use sisg_sgns::sgd::{build_kept, steps};
use sisg_sgns::sigmoid::SigmoidTable;
use sisg_sgns::{linear_lr, NoiseTable, PairSampler, WindowMode};

/// Number of aggregated channels: the ID embedding plus the 8 SI features.
pub const CHANNELS: usize = 1 + ItemFeature::COUNT;

/// EGES hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EgesConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Skip-gram window over random walks (symmetric; EGES has no notion of
    /// click direction).
    pub window: usize,
    /// Negatives per positive.
    pub negatives: usize,
    /// Training epochs over the walk corpus.
    pub epochs: usize,
    /// Initial learning rate (linear decay).
    pub learning_rate: f32,
    /// Learning-rate floor.
    pub min_learning_rate: f32,
    /// Noise exponent for negative sampling.
    pub noise_exponent: f64,
    /// Random-walk parameters.
    pub walk: WalkConfig,
    /// Reproduce the deployed per-category graph split (drops cross-category
    /// edges before walking — the Section II-D information loss).
    pub split_by_category: bool,
    /// Seed.
    pub seed: u64,
}

impl Default for EgesConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 5,
            negatives: 20,
            epochs: 2,
            learning_rate: 0.025,
            min_learning_rate: 0.0001,
            noise_exponent: 0.75,
            walk: WalkConfig::default(),
            split_by_category: false,
            seed: 42,
        }
    }
}

/// A trained EGES model.
pub struct EgesModel {
    space: TokenSpace,
    /// Aggregated per-item representation `H_v`, L2-normalized.
    aggregated: Matrix,
    /// Shared channel embeddings over the token space (items = ID channel,
    /// SI ranges = SI channels).
    input: Matrix,
    /// Per-item attention logits.
    attention: Matrix,
    /// Fraction of edge weight lost when the category split is enabled.
    split_loss: f64,
}

impl EgesModel {
    /// Builds the graph, walks it, and trains the weighted skip-gram.
    pub fn train(corpus: &GeneratedCorpus, config: &EgesConfig) -> Self {
        let space = TokenSpace::new(
            corpus.config.n_items,
            corpus.catalog.cardinalities(),
            corpus.users.n_user_types(),
        );
        let full_graph = ItemGraph::from_corpus(&corpus.sessions, corpus.config.n_items);
        let (graph, split_loss) = if config.split_by_category {
            full_graph.split_by_top_category(&corpus.catalog)
        } else {
            (full_graph, 0.0)
        };
        let walks = generate_walks(&graph, &config.walk);

        let n_items = corpus.config.n_items as usize;
        // The matrices are worker-local (this trainer is single-threaded),
        // so training runs on the exact non-atomic kernel path throughout.
        let mut input = Matrix::uniform_init(space.len(), config.dim, config.seed ^ 0xE9E5);
        let mut output = Matrix::zeros(n_items, config.dim);
        let mut attention = Matrix::zeros(n_items, CHANNELS);

        // Noise over item frequency in the walk corpus.
        let mut freqs = vec![0u64; n_items];
        for w in &walks {
            for t in w {
                freqs[t.index()] += 1;
            }
        }
        let total_tokens: u64 = freqs.iter().sum();
        let span = sisg_obs::span(sisg_obs::names::EGES_TRAIN_SPAN);
        let obs_pairs = sisg_obs::registry().counter(sisg_obs::names::EGES_PAIRS_TOTAL);
        let obs_tokens = sisg_obs::registry().counter(sisg_obs::names::EGES_TOKENS_TOTAL);
        let obs_lr = sisg_obs::registry().gauge(sisg_obs::names::EGES_LR);
        if total_tokens > 0 {
            let noise = NoiseTable::from_freqs(&freqs, config.noise_exponent);
            let sampler = PairSampler {
                window: config.window,
                mode: WindowMode::Symmetric,
            };
            let sigmoid = SigmoidTable::new();
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xE635);
            let schedule = total_tokens * config.epochs as u64;
            let mut processed = 0u64;

            let mut scratch = EgesScratch::new(config.dim, config.negatives);
            let mut pair_buf: Vec<(TokenId, TokenId)> = Vec::new();
            let mut negatives: Vec<TokenId> = Vec::with_capacity(config.negatives);

            // Accumulated locally and flushed to obs once per epoch so the
            // pair loop stays instrumentation-free.
            let mut epoch_pairs = 0u64;
            let mut epoch_tokens = 0u64;
            let mut last_lr = config.learning_rate;
            for _epoch in 0..config.epochs {
                for walk in &walks {
                    processed += walk.len() as u64;
                    epoch_tokens += walk.len() as u64;
                    let lr = linear_lr(
                        config.learning_rate,
                        config.min_learning_rate,
                        processed,
                        schedule,
                    );
                    last_lr = lr;
                    sampler.pairs_into(walk, &mut pair_buf);
                    epoch_pairs += pair_buf.len() as u64;
                    for &(target, context) in &pair_buf {
                        noise.sample_into(&mut negatives, config.negatives, &mut rng);
                        train_eges_pair(
                            &space,
                            corpus,
                            &mut input,
                            &mut output,
                            &mut attention,
                            ItemId(target.0),
                            ItemId(context.0),
                            &negatives,
                            lr,
                            &sigmoid,
                            &mut scratch,
                        );
                    }
                }
                obs_pairs.add(epoch_pairs);
                obs_tokens.add(epoch_tokens);
                obs_lr.set(last_lr as f64);
                epoch_pairs = 0;
                epoch_tokens = 0;
            }
        }
        span.finish();

        // Materialize aggregated representations for retrieval. The
        // aggregation writes straight into the output row — no per-item
        // temporary.
        let mut aggregated = Matrix::zeros(n_items, config.dim);
        let mut tokens_buf = [TokenId(0); CHANNELS];
        let mut alpha = [0.0f32; CHANNELS];
        for v in 0..n_items {
            let item = ItemId(v as u32);
            gather_channels(&space, corpus, item, &mut tokens_buf);
            softmax_into(&attention, v, &mut alpha);
            aggregate_into(&input, &tokens_buf, &alpha, aggregated.row_mut(v));
            sisg_embedding::math::normalize(aggregated.row_mut(v));
        }

        Self {
            space,
            aggregated,
            input,
            attention,
            split_loss,
        }
    }

    /// The normalized aggregated embedding `H_v` of an item.
    pub fn embedding(&self, item: ItemId) -> &[f32] {
        self.aggregated.row(item.index())
    }

    /// Attention weights (softmaxed) of an item, ID channel first.
    pub fn attention_weights(&self, item: ItemId) -> [f32; CHANNELS] {
        let mut alpha = [0.0f32; CHANNELS];
        softmax_into(&self.attention, item.index(), &mut alpha);
        alpha
    }

    /// Cosine similarity between two items' aggregated embeddings.
    pub fn similarity(&self, a: ItemId, b: ItemId) -> f32 {
        cosine(self.embedding(a), self.embedding(b))
    }

    /// Top-`k` similar items (over all items) for `query`.
    pub fn similar(&self, query: ItemId, k: usize) -> Vec<Neighbor> {
        retrieve_top_k(
            self.embedding(query),
            &self.aggregated,
            (0..self.aggregated.rows() as u32).map(TokenId),
            k,
            Some(TokenId(query.0)),
        )
    }

    /// Cold-start embedding from SI values only (uniform attention over the
    /// SI channels; there is no trained ID embedding for a new item).
    pub fn cold_embedding(&self, si_values: &[u32; ItemFeature::COUNT]) -> Vec<f32> {
        let dim = self.aggregated.dim();
        let mut h = vec![0.0f32; dim];
        for f in ItemFeature::ALL {
            let t = self.space.side_info(f, si_values[f.slot()]);
            sisg_embedding::math::add_assign(&mut h, self.input.row(t.index()));
        }
        sisg_embedding::math::scale(&mut h, 1.0 / ItemFeature::COUNT as f32);
        sisg_embedding::math::normalize(&mut h);
        h
    }

    /// Edge-weight fraction dropped by the category split (0 when disabled).
    pub fn split_loss(&self) -> f64 {
        self.split_loss
    }
}

/// Fills `tokens` with the item's channel tokens: its own id, then its SI.
fn gather_channels(
    space: &TokenSpace,
    corpus: &GeneratedCorpus,
    item: ItemId,
    tokens: &mut [TokenId; CHANNELS],
) {
    tokens[0] = space.item(item);
    let si = corpus.catalog.si_values(item);
    for f in ItemFeature::ALL {
        tokens[1 + f.slot()] = space.side_info(f, si[f.slot()]);
    }
}

/// Softmax of an attention row into `alpha`.
fn softmax_into(attention: &Matrix, row: usize, alpha: &mut [f32; CHANNELS]) {
    let logits = attention.row(row);
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f32;
    for (a, &l) in alpha.iter_mut().zip(logits) {
        *a = (l - max).exp();
        sum += *a;
    }
    for a in alpha.iter_mut() {
        *a /= sum;
    }
}

/// `h = Σ α_s · input[token_s]`, written in place (no allocation).
fn aggregate_into(
    input: &Matrix,
    tokens: &[TokenId; CHANNELS],
    alpha: &[f32; CHANNELS],
    h: &mut [f32],
) {
    h.fill(0.0);
    for (t, &a) in tokens.iter().zip(alpha.iter()) {
        kernels::axpy(a, input.row(t.index()), h);
    }
}

/// Per-pair working memory for [`train_eges_pair`], allocated once per
/// training run (DESIGN.md §8 row-cache discipline).
struct EgesScratch {
    tokens: [TokenId; CHANNELS],
    alpha: [f32; CHANNELS],
    /// The aggregated representation `H_v` — the cached "input row" of the
    /// pair; fixed while the output steps run.
    h: Vec<f32>,
    /// Gradient accumulated for `H_v` across all output steps.
    grad_h: Vec<f32>,
    /// Step tokens (context first, then negatives) for [`steps`].
    kept: Vec<TokenId>,
    /// Dot-phase buffer for [`steps`].
    scores: Vec<f32>,
}

impl EgesScratch {
    fn new(dim: usize, negatives: usize) -> Self {
        Self {
            tokens: [TokenId(0); CHANNELS],
            alpha: [0.0f32; CHANNELS],
            h: vec![0.0f32; dim],
            grad_h: vec![0.0f32; dim],
            kept: Vec::with_capacity(1 + negatives),
            scores: Vec::with_capacity(1 + negatives),
        }
    }
}

/// One EGES SGD step for `(target, context)` with `negatives` (a negative
/// equal to the context is dropped by [`build_kept`]).
///
/// Runs entirely on the exact non-atomic kernel path: the trainer owns its
/// matrices, so output steps go through [`steps`] (batched ordered dots
/// plus fused gradient steps) with `H_v` as the cached target row.
#[allow(clippy::too_many_arguments)]
fn train_eges_pair(
    space: &TokenSpace,
    corpus: &GeneratedCorpus,
    input: &mut Matrix,
    output: &mut Matrix,
    attention: &mut Matrix,
    target: ItemId,
    context: ItemId,
    negatives: &[TokenId],
    lr: f32,
    sigmoid: &SigmoidTable,
    buf: &mut EgesScratch,
) {
    gather_channels(space, corpus, target, &mut buf.tokens);
    softmax_into(attention, target.index(), &mut buf.alpha);
    aggregate_into(input, &buf.tokens, &buf.alpha, &mut buf.h);
    buf.grad_h.fill(0.0);

    build_kept(&mut buf.kept, TokenId(context.0), negatives);
    // EGES monitors no loss; `steps` still accumulates grad_h and steps
    // every output row exactly as the scalar reference did.
    let _ = steps(
        output,
        &buf.kept,
        &buf.h,
        lr,
        sigmoid,
        &mut buf.grad_h,
        &mut buf.scores,
    );

    // Channel-embedding gradients use the attention weights; attention
    // gradients use the *pre-update* channel embeddings. The channel dots
    // are independent, so they run through the batched ordered kernel.
    let mut d = [0.0f32; CHANNELS];
    let mut s = 0;
    while s + 4 <= CHANNELS {
        let rows = [
            input.row(buf.tokens[s].index()),
            input.row(buf.tokens[s + 1].index()),
            input.row(buf.tokens[s + 2].index()),
            input.row(buf.tokens[s + 3].index()),
        ];
        let out = kernels::dot_ordered_x4(rows, &buf.grad_h);
        d[s..s + 4].copy_from_slice(&out);
        s += 4;
    }
    while s < CHANNELS {
        d[s] = kernels::dot_ordered(input.row(buf.tokens[s].index()), &buf.grad_h);
        s += 1;
    }
    let mean: f32 = (0..CHANNELS).map(|s| buf.alpha[s] * d[s]).sum();
    let mut attn_delta = [0.0f32; CHANNELS];
    for s in 0..CHANNELS {
        kernels::axpy(
            buf.alpha[s],
            &buf.grad_h,
            input.row_mut(buf.tokens[s].index()),
        );
        attn_delta[s] = buf.alpha[s] * (d[s] - mean);
    }
    kernels::add_assign(attention.row_mut(target.index()), &attn_delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::CorpusConfig;

    fn small_model(split: bool) -> (GeneratedCorpus, EgesModel) {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let config = EgesConfig {
            dim: 16,
            epochs: 1,
            negatives: 5,
            walk: WalkConfig {
                walks_per_node: 2,
                walk_length: 8,
                seed: 3,
            },
            split_by_category: split,
            ..Default::default()
        };
        let model = EgesModel::train(&corpus, &config);
        (corpus, model)
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let (_, model) = small_model(false);
        let alpha = model.attention_weights(ItemId(0));
        let sum: f32 = alpha.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(alpha.iter().all(|&a| a >= 0.0));
    }

    #[test]
    fn embeddings_are_normalized() {
        let (_, model) = small_model(false);
        let n = sisg_embedding::math::norm(model.embedding(ItemId(1)));
        assert!((n - 1.0).abs() < 1e-4 || n == 0.0);
    }

    #[test]
    fn same_category_items_are_more_similar() {
        let (corpus, model) = small_model(false);
        // Average within-category vs cross-category similarity over a sample.
        let mut within = 0.0f64;
        let mut cross = 0.0f64;
        let mut wn = 0u32;
        let mut cn = 0u32;
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let s = model.similarity(ItemId(a), ItemId(b)) as f64;
                if corpus.catalog.leaf_category(ItemId(a))
                    == corpus.catalog.leaf_category(ItemId(b))
                {
                    within += s;
                    wn += 1;
                } else {
                    cross += s;
                    cn += 1;
                }
            }
        }
        assert!(wn > 0 && cn > 0);
        assert!(
            within / wn as f64 > cross / cn as f64,
            "within {within}/{wn} vs cross {cross}/{cn}"
        );
    }

    #[test]
    fn retrieval_excludes_query_and_ranks() {
        let (_, model) = small_model(false);
        let hits = model.similar(ItemId(5), 10);
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|n| n.token != TokenId(5)));
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn category_split_records_loss() {
        let (_, model) = small_model(true);
        assert!(model.split_loss() > 0.0);
        let (_, unsplit) = small_model(false);
        assert_eq!(unsplit.split_loss(), 0.0);
    }

    #[test]
    fn attention_starts_uniform_and_moves() {
        // Zero logits -> uniform attention before training touches an item.
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let config = EgesConfig {
            dim: 8,
            epochs: 0,
            walk: WalkConfig {
                walks_per_node: 1,
                walk_length: 2,
                seed: 1,
            },
            ..Default::default()
        };
        let model = EgesModel::train(&corpus, &config);
        let alpha = model.attention_weights(ItemId(0));
        for a in alpha {
            assert!((a - 1.0 / CHANNELS as f32).abs() < 1e-5);
        }
    }

    #[test]
    fn similarity_is_symmetric() {
        let (_, model) = small_model(false);
        for a in 0..20u32 {
            for b in 0..20u32 {
                let f = model.similarity(ItemId(a), ItemId(b));
                let r = model.similarity(ItemId(b), ItemId(a));
                assert!((f - r).abs() < 1e-5, "EGES must be symmetric");
            }
        }
    }

    #[test]
    fn cold_embedding_is_unit_and_si_driven() {
        let (corpus, model) = small_model(false);
        let si = *corpus.catalog.si_values(ItemId(3));
        let cold = model.cold_embedding(&si);
        let n = sisg_embedding::math::norm(&cold);
        assert!((n - 1.0).abs() < 1e-4);
        // The cold embedding of item 3's SI should resemble item 3 itself
        // more than a random different-category item.
        let sim_self = sisg_embedding::math::cosine(&cold, model.embedding(ItemId(3)));
        let other = (0..corpus.config.n_items)
            .map(ItemId)
            .find(|&i| corpus.catalog.leaf_category(i) != corpus.catalog.leaf_category(ItemId(3)))
            .unwrap();
        let sim_other = sisg_embedding::math::cosine(&cold, model.embedding(other));
        assert!(
            sim_self > sim_other,
            "cold {sim_self} should beat unrelated {sim_other}"
        );
    }
}
