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
use sisg_sgns::{count_freqs, linear_lr, NoiseTable, PairSampler, PairStream, WindowMode};

/// Number of aggregated channels: the ID embedding plus the 8 SI features.
const CHANNELS: usize = 1 + ItemFeature::COUNT;

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
    /// Aggregated per-item representation `H_v`, L2-normalized.
    aggregated: Matrix,
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
        let graph = if config.split_by_category {
            full_graph.split_by_top_category(&corpus.catalog).0
        } else {
            full_graph
        };
        let walks = generate_walks(&graph, &config.walk);

        let n_items = corpus.config.n_items as usize;
        // The matrices are worker-local (this trainer is single-threaded),
        // so training runs on the exact non-atomic kernel path throughout.
        let mut input = Matrix::uniform_init(space.len(), config.dim, config.seed ^ 0xE9E5);
        let mut output = Matrix::zeros(n_items, config.dim);
        let mut attention = Matrix::zeros(n_items, CHANNELS);

        // Noise over item frequency in the walk corpus.
        let freqs = count_freqs(&walks, n_items);
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
            // Walk tokens of the epochs before this one.
            let mut done = 0u64;

            let mut scratch = EgesScratch::new(config.dim, config.negatives);
            let mut negatives: Vec<TokenId> = Vec::with_capacity(config.negatives);

            // Accumulated locally and flushed to obs once per epoch so the
            // pair loop stays instrumentation-free.
            let mut last_lr = config.learning_rate;
            for _epoch in 0..config.epochs {
                // Walks are not subsampled: the identity draws nothing.
                let mut stream = PairStream::new(&walks, None, sampler);
                let mut epoch_pairs = 0u64;
                while let Some((target, context)) = stream.next(&mut rng) {
                    // The sgns rule: the walk tokens before this pair's walk.
                    let lr = linear_lr(
                        config.learning_rate,
                        config.min_learning_rate,
                        done + stream.tokens_before(),
                        schedule,
                    );
                    last_lr = lr;
                    epoch_pairs += 1;
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
                done += total_tokens;
                obs_pairs.add(epoch_pairs);
                obs_tokens.add(total_tokens);
                obs_lr.set(last_lr as f64);
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

        Self { aggregated }
    }

    /// The normalized aggregated embedding `H_v` of an item.
    pub fn embedding(&self, item: ItemId) -> &[f32] {
        self.aggregated.row(item.index())
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
    fn embeddings_are_normalized() {
        for split in [false, true] {
            let (_, model) = small_model(split);
            let n = sisg_embedding::math::norm(model.embedding(ItemId(1)));
            assert!((n - 1.0).abs() < 1e-4 || n == 0.0);
        }
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
}
