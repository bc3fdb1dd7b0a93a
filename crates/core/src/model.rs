//! Training and retrieval for one SISG variant.

use crate::error::CoreError;
use crate::variants::{SimilarityMode, Variant};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{
    Corpus, EnrichedCorpus, GeneratedCorpus, ItemCatalog, ItemId, TokenId, UserRegistry,
};
use sisg_embedding::math::{inv_norm, normalize};
use sisg_embedding::{retrieve_top_k, retrieve_top_k_scaled, EmbeddingStore, Matrix, Neighbor};
use sisg_sgns::{train_into, SgnsConfig, TrainStats};

/// Statistics of one SISG training run.
#[derive(Debug, Clone)]
pub struct SisgTrainReport {
    /// The trained variant.
    pub variant: Variant,
    /// Enriched tokens in the training corpus.
    pub tokens: u64,
    /// SGNS trainer counters.
    pub stats: TrainStats,
}

/// A trained SISG model: the joint item/SI/user-type embedding space plus
/// the variant's retrieval rule.
///
/// The `-D` variants score against item *output* vectors. Section II-C
/// scores directional similarity with the raw inner product `v_i^T v'_j`;
/// we keep it raw (the output norm carries a useful popularity prior —
/// L2-normalizing both sides, one reading of Section IV-A's "standard
/// cosine similarity", measures worse at every K on our corpora; see
/// DESIGN.md §6). Raw means no copy is needed: items are tokens
/// `0..n_items`, so the leading rows of the store's output matrix are the
/// item output matrix.
///
/// Cosine needs no copy either: the scorers read the store's item input
/// rows and scale each by its cached `1/‖v‖` inside the kernel, which
/// gives the bits of a scan over L2-normalized rows.
pub struct SisgModel {
    variant: Variant,
    space: TokenSpace,
    store: EmbeddingStore,
    /// [`inv_norm`] of every item input row: the factor `normalize` would
    /// scale it by, 4 B per item instead of a normalized `dim`-wide copy.
    item_inv_norm: Vec<f32>,
}

impl std::fmt::Debug for SisgModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SisgModel")
            .field("variant", &self.variant)
            .field("tokens", &self.store.n_tokens())
            .field("dim", &self.store.dim())
            .finish_non_exhaustive()
    }
}

/// Rejects SGNS hyper-parameters that would make training degenerate —
/// [`SgnsConfig::validate`]'s rules as a typed error.
fn validate_sgns(sgns: &SgnsConfig) -> Result<(), CoreError> {
    sgns.validate()
        .map_err(|(field, reason)| CoreError::InvalidConfig { field, reason })
}

impl SisgModel {
    /// Trains `variant` on the full generated corpus.
    pub fn train(
        corpus: &GeneratedCorpus,
        variant: Variant,
        sgns: &SgnsConfig,
    ) -> Result<(Self, SisgTrainReport), CoreError> {
        Self::train_on_sessions(
            &corpus.sessions,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            variant,
            sgns,
        )
    }

    /// Trains `variant` on an explicit session set (e.g. the training part
    /// of a next-item split). Fails on degenerate hyper-parameters instead
    /// of asserting mid-training.
    pub fn train_on_sessions(
        sessions: &Corpus,
        catalog: &ItemCatalog,
        users: &UserRegistry,
        n_items: u32,
        variant: Variant,
        sgns: &SgnsConfig,
    ) -> Result<(Self, SisgTrainReport), CoreError> {
        validate_sgns(sgns)?;
        let enriched = EnrichedCorpus::build_from_sessions(
            sessions,
            catalog,
            users,
            n_items,
            variant.enrich_options(),
        );
        let mut config = sgns.clone();
        config.window_mode = variant.window_mode();
        // Enrichment interleaves SI tokens between items: with 8 SI per item,
        // two *items* that are w clicks apart sit 9·w raw tokens apart. But
        // the trainer applies Mikolov subsampling *before* pair sampling,
        // and the super-frequent SI tokens are exactly what it strips — so
        // the relevant stride is the expected number of tokens per item in
        // the *filtered* sequence, not the raw 9. Scaling by the raw stride
        // overshoots item reach (~60% on the tiny corpus), which measurably
        // dilutes the adjacency signal the directional variant encodes.
        if variant.uses_si() {
            config.window = sgns.window
                * enriched_stride(
                    enriched.vocab().freqs(),
                    enriched.space().n_items() as usize,
                    config.subsample,
                );
        }
        let freqs = enriched.vocab().freqs();
        let store = EmbeddingStore::new(freqs.len(), config.dim, config.seed);
        let (store, stats) = train_into(&enriched, freqs, &config, store);

        let report = SisgTrainReport {
            variant,
            tokens: enriched.total_tokens(),
            stats,
        };
        let space = enriched.space().clone();
        let model = Self::from_store(variant, space, store)?;
        Ok((model, report))
    }

    /// Wraps a trained (or deserialized) store. Fails when the store does
    /// not cover the token space (or carries zero dimensions).
    pub fn from_store(
        variant: Variant,
        space: TokenSpace,
        store: EmbeddingStore,
    ) -> Result<Self, CoreError> {
        if store.n_tokens() < space.len() {
            return Err(CoreError::StoreSpaceMismatch {
                space_tokens: space.len(),
                store_tokens: store.n_tokens(),
            });
        }
        if store.dim() == 0 {
            return Err(CoreError::InvalidConfig {
                field: "dim",
                reason: "store carries zero dimensions",
            });
        }
        let item_inv_norm = (0..space.n_items())
            .map(|i| inv_norm(store.input(TokenId(i))))
            .collect();
        Ok(Self {
            variant,
            space,
            store,
            item_inv_norm,
        })
    }

    /// The trained variant.
    #[inline]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The token layout of the joint embedding space.
    #[inline]
    pub fn space(&self) -> &TokenSpace {
        &self.space
    }

    /// The raw embedding store (input + output matrices).
    #[inline]
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Similarity of recommending `b` after `a`, under the variant's rule.
    /// Asymmetric for `-D` variants: `similarity(a, b) ≠ similarity(b, a)`.
    pub fn similarity(&self, a: ItemId, b: ItemId) -> f32 {
        match self.variant.similarity_mode() {
            SimilarityMode::CosineInput => {
                let dim = self.store.dim();
                let (mut na, mut nb) = (vec![0.0; dim], vec![0.0; dim]);
                self.normalized_item_into(a, &mut na);
                self.normalized_item_into(b, &mut nb);
                sisg_embedding::math::dot(&na, &nb)
            }
            SimilarityMode::InputOutput => sisg_embedding::math::dot(
                self.store.input(self.space.item(a)),
                self.store.output(self.space.item(b)),
            ),
        }
    }

    /// The `k` best items to show after `query` (`S_K(v)` of Eq. 5).
    pub fn similar_items(&self, query: ItemId, k: usize) -> Vec<Neighbor> {
        match self.variant.similarity_mode() {
            SimilarityMode::CosineInput => {
                let mut q = vec![0.0; self.store.dim()];
                self.normalized_item_into(query, &mut q);
                self.cosine_scan(&q, (0..self.space.n_items()).map(TokenId), k, Some(query))
            }
            SimilarityMode::InputOutput => {
                let q = self.store.input(self.space.item(query));
                retrieve_top_k(
                    q,
                    self.store.output_matrix(),
                    (0..self.space.n_items()).map(TokenId),
                    k,
                    Some(self.space.item(query)),
                )
            }
        }
    }

    /// Retrieves the `k` items whose *input* vectors are most cosine-similar
    /// to an arbitrary query vector (used by cold-start inference, where the
    /// query is a sum of SI vectors or an averaged user-type vector).
    pub fn similar_items_to_vector(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut q = query.to_vec();
        normalize(&mut q);
        self.cosine_scan(&q, (0..self.space.n_items()).map(TokenId), k, None)
    }

    /// Re-ranks an explicit candidate set against an arbitrary query
    /// vector with the exact f32 scorer — the re-rank half of the
    /// quantized cold path in `crates/serve`: an int8 scan proposes a
    /// shortlist of ids, this restores exact cosine order among them.
    /// Candidate ids index the item matrix (`0..n_items`).
    pub fn rerank_items_to_vector(
        &self,
        query: &[f32],
        candidates: impl Iterator<Item = TokenId>,
        k: usize,
    ) -> Vec<Neighbor> {
        let mut q = query.to_vec();
        normalize(&mut q);
        self.cosine_scan(&q, candidates, k, None)
    }

    /// Cosine of the unit-norm `query` against candidate items: the
    /// store's raw input rows, each scaled by its cached inverse norm.
    fn cosine_scan(
        &self,
        query: &[f32],
        candidates: impl Iterator<Item = TokenId>,
        k: usize,
        exclude: Option<ItemId>,
    ) -> Vec<Neighbor> {
        retrieve_top_k_scaled(
            query,
            self.store.input_matrix(),
            &self.item_inv_norm,
            candidates,
            k,
            exclude.map(|i| self.space.item(i)),
        )
    }

    /// Writes the L2-normalized input vector of `item` into `out` (`dim`
    /// long) — the bits `normalize` gives a copy of the row, from the
    /// cached scale.
    ///
    /// # Panics
    /// Panics when `item` is out of range.
    pub fn normalized_item_into(&self, item: ItemId, out: &mut [f32]) {
        let row = self.store.input(self.space.item(item));
        debug_assert_eq!(row.len(), out.len(), "length mismatch");
        let s = self.item_inv_norm[item.index()];
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v * s;
        }
    }

    /// The L2-normalized item input matrix, built on demand (an
    /// `n_items × dim` allocation per call). Nothing on the serving path
    /// calls it: the cosine scorers scale the store's rows in place and
    /// the quantized cold index normalizes one row at a time. It is the
    /// reference those are tested against.
    pub fn item_norm_matrix(&self) -> Matrix {
        let n_items = self.space.n_items();
        let mut m = Matrix::zeros(n_items as usize, self.store.dim());
        for i in 0..n_items {
            self.normalized_item_into(ItemId(i), m.row_mut(i as usize));
        }
        m
    }

    /// The input vector of any token (item, SI instance, or user type) in
    /// the joint space.
    pub fn token_input(&self, token: TokenId) -> &[f32] {
        self.store.input(token)
    }
}

/// Expected number of filtered-sequence tokens per surviving *item*
/// occurrence — the window multiplier that makes item-item co-occurrence
/// reach in an enriched corpus match a plain item-sequence window of the
/// same nominal size.
///
/// Subsampling keeps each occurrence of token `t` with probability
/// `keep(t)`, so the expected filtered length is `Σ_t keep(t)·freq(t)` and
/// the expected surviving item count is the same sum restricted to item
/// tokens. Their ratio is the mean distance (in filtered tokens) between
/// consecutive items. With subsampling disabled this recovers the raw
/// enriched stride (9 for full SI enrichment).
///
/// `freqs` are token frequencies in joint-space order (items first, so the
/// first `n_items` entries are the item tokens). The offline trainer passes
/// the enriched corpus's vocabulary, the streaming pipeline its cumulative
/// tables.
pub fn enriched_stride(freqs: &[u64], n_items: usize, subsample: f64) -> usize {
    let table = sisg_sgns::SubsampleTable::new(freqs, subsample);
    let mut surviving = 0.0f64;
    let mut surviving_items = 0.0f64;
    for (i, &c) in freqs.iter().enumerate() {
        let s = f64::from(table.keep_prob(TokenId(i as u32))) * c as f64;
        surviving += s;
        if i < n_items {
            surviving_items += s;
        }
    }
    if surviving_items <= 0.0 {
        return 1;
    }
    ((surviving / surviving_items).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::CorpusConfig;

    fn small_sgns() -> SgnsConfig {
        SgnsConfig {
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 1,
            ..Default::default()
        }
    }

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn all_variants_train() {
        let c = corpus();
        for v in Variant::TABLE_III {
            let (model, report) = SisgModel::train(&c, v, &small_sgns()).expect("train");
            assert!(report.stats.pairs > 0, "{v} trained no pairs");
            assert_eq!(model.variant(), v);
            let hits = model.similar_items(ItemId(0), 5);
            assert_eq!(hits.len(), 5);
            assert!(hits.iter().all(|n| n.token != TokenId(0)));
        }
    }

    /// One bad value per [`SgnsConfig::validate`] rule: each must come
    /// back as a typed error naming the field, never train.
    #[test]
    fn rejected_sgns_configs_are_typed_errors() {
        let c = corpus();
        type Spoil = fn(&mut SgnsConfig);
        let cases: [(&str, Spoil); 9] = [
            ("dim", |s| s.dim = 0),
            ("window", |s| s.window = 0),
            ("epochs", |s| s.epochs = 0),
            ("learning_rate", |s| s.learning_rate = 0.0),
            ("learning_rate", |s| s.learning_rate = -0.1),
            ("learning_rate", |s| s.learning_rate = f32::NAN),
            ("min_learning_rate", |s| s.min_learning_rate = 0.5),
            ("subsample", |s| s.subsample = -1.0),
            ("threads", |s| s.threads = 0),
        ];
        for (want, spoil) in cases {
            let mut cfg = small_sgns();
            spoil(&mut cfg);
            match SisgModel::train(&c, Variant::Sgns, &cfg) {
                Err(CoreError::InvalidConfig { field, .. }) => assert_eq!(field, want),
                other => panic!("{want}: not rejected: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn symmetric_variant_similarity_is_symmetric() {
        let c = corpus();
        let (model, _) = SisgModel::train(&c, Variant::Sgns, &small_sgns()).expect("train");
        let ab = model.similarity(ItemId(1), ItemId(2));
        let ba = model.similarity(ItemId(2), ItemId(1));
        assert!((ab - ba).abs() < 1e-5);
    }

    #[test]
    fn directional_variant_similarity_is_asymmetric() {
        let c = corpus();
        let (model, _) = SisgModel::train(&c, Variant::SisgFUD, &small_sgns()).expect("train");
        // Across many pairs, forward and backward scores must differ.
        let mut diffs = 0;
        for a in 0..20u32 {
            for b in (a + 1)..20u32 {
                let f = model.similarity(ItemId(a), ItemId(b));
                let r = model.similarity(ItemId(b), ItemId(a));
                if (f - r).abs() > 1e-6 {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 100, "only {diffs} asymmetric pairs");
    }

    #[test]
    fn directional_retrieval_scores_the_store_output_rows() {
        // The `-D` rule is input(query) · output(candidate) over the item
        // rows of the store's own output matrix: same ids, same bits.
        let c = corpus();
        let (model, _) = SisgModel::train(&c, Variant::SisgFUD, &small_sgns()).expect("train");
        let n_items = model.space().n_items();
        let output = model.store().output_matrix();
        assert!(output.rows() > n_items as usize, "SI rows follow the items");
        for q in [0u32, 7, n_items - 1] {
            let query = model.store().input(TokenId(q));
            let by_hand = retrieve_top_k(
                query,
                output,
                (0..n_items).map(TokenId),
                10,
                Some(TokenId(q)),
            );
            let got = model.similar_items(ItemId(q), 10);
            assert_eq!(got.len(), 10);
            for (g, h) in got.iter().zip(&by_hand) {
                assert_eq!(g.token, h.token);
                assert_eq!(g.score.to_bits(), h.score.to_bits());
            }
            let b = got[0].token;
            assert_eq!(
                model.similarity(ItemId(q), ItemId(b.0)).to_bits(),
                sisg_embedding::math::dot(query, output.row(b.index())).to_bits()
            );
        }
    }

    #[test]
    fn untrained_output_is_never_needed_for_vector_retrieval() {
        // A store straight from `EmbeddingStore::new`: the output matrix
        // is all zero and `from_store` builds nothing from it.
        let cards = sisg_corpus::schema::SchemaCardinalities::for_items(50);
        let space = TokenSpace::new(50, &cards, 3);
        let store = EmbeddingStore::new(space.len(), 16, 11);
        let model = SisgModel::from_store(Variant::SisgFU, space, store).expect("covers");
        let q = model.token_input(TokenId(5)).to_vec();
        let hits = model.similar_items_to_vector(&q, 4);
        assert_eq!(hits.len(), 4);
        assert_eq!(hits[0].token, TokenId(5));
        assert!(model
            .store()
            .output_matrix()
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == 0));
    }

    fn assert_same_hits(got: &[Neighbor], want: &[Neighbor], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.token, w.token, "{what}");
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{what}");
        }
    }

    /// Every cosine scorer, which scales the store's raw rows by the cached
    /// inverse norm, against the scan it replaced: `retrieve_top_k` /
    /// `math::dot` over the materialized unit-norm matrix. Same ids, same
    /// bits, over the whole catalog.
    fn assert_cosine_scorers_match_the_normalized_matrix(model: &SisgModel) {
        let m = model.item_norm_matrix();
        let n = model.space().n_items();
        let all = || (0..n).map(TokenId);
        let si = model.token_input(TokenId(n + 3)).to_vec();
        for q in [0u32, 3, n / 2, n - 1] {
            let what = format!("{} query {q}", model.variant());
            let want = retrieve_top_k(m.row(q as usize), &m, all(), n as usize, Some(TokenId(q)));
            assert_same_hits(&model.similar_items(ItemId(q), n as usize), &want, &what);

            for raw in [model.token_input(TokenId(q)).to_vec(), si.clone()] {
                let mut unit = raw.clone();
                normalize(&mut unit);
                let want = retrieve_top_k(&unit, &m, all(), n as usize, None);
                let got = model.similar_items_to_vector(&raw, n as usize);
                assert_same_hits(&got, &want, &what);
                let cands = (0..n).step_by(3).map(TokenId);
                let want = retrieve_top_k(&unit, &m, cands.clone(), 7, None);
                let got = model.rerank_items_to_vector(&raw, cands, 7);
                assert_same_hits(&got, &want, &what);
            }
            for b in [0u32, 1, q, n - 1] {
                let want = sisg_embedding::math::dot(m.row(q as usize), m.row(b as usize));
                let got = model.similarity(ItemId(q), ItemId(b));
                assert_eq!(got.to_bits(), want.to_bits(), "{what} similarity to {b}");
            }
        }
    }

    #[test]
    fn cosine_scorers_are_bit_identical_to_the_normalized_matrix_scan() {
        let c = corpus();
        for v in [Variant::Sgns, Variant::SisgF, Variant::SisgFU] {
            let (model, _) = SisgModel::train(&c, v, &small_sgns()).expect("train");
            assert_cosine_scorers_match_the_normalized_matrix(&model);
        }
    }

    #[test]
    fn an_all_zero_item_row_stays_zero_and_scores_zero() {
        // `normalize` leaves a zero row alone; its cached scale is 1.0.
        let cards = sisg_corpus::schema::SchemaCardinalities::for_items(40);
        let space = TokenSpace::new(40, &cards, 3);
        let (mut input, output) = EmbeddingStore::new(space.len(), 16, 5).into_matrices();
        input.row_mut(3).fill(0.0);
        let store = EmbeddingStore::from_matrices(input, output);
        let model = SisgModel::from_store(Variant::SisgFU, space, store).expect("covers");
        assert!(model
            .item_norm_matrix()
            .row(3)
            .iter()
            .all(|v| v.to_bits() == 0));
        let q = model.token_input(TokenId(7)).to_vec();
        let hits = model.similar_items_to_vector(&q, 40);
        let zero = hits.iter().find(|h| h.token == TokenId(3)).expect("scored");
        assert_eq!(zero.score, 0.0);
        assert_eq!(model.similarity(ItemId(7), ItemId(3)), 0.0);
        assert_cosine_scorers_match_the_normalized_matrix(&model);
    }

    #[test]
    fn enriched_variants_see_more_tokens() {
        let c = corpus();
        let (_, plain) = SisgModel::train(&c, Variant::Sgns, &small_sgns()).expect("train");
        let (_, full) = SisgModel::train(&c, Variant::SisgFU, &small_sgns()).expect("train");
        assert!(full.tokens > plain.tokens * 8, "SI must multiply tokens");
    }

    #[test]
    fn same_category_items_cluster() {
        let c = corpus();
        let (model, _) = SisgModel::train(&c, Variant::SisgF, &small_sgns()).expect("train");
        let mut within = 0.0f64;
        let mut cross = 0.0f64;
        let (mut wn, mut cn) = (0u32, 0u32);
        for a in 0..150u32 {
            for b in (a + 1)..150u32 {
                let s = model.similarity(ItemId(a), ItemId(b)) as f64;
                if c.catalog.leaf_category(ItemId(a)) == c.catalog.leaf_category(ItemId(b)) {
                    within += s;
                    wn += 1;
                } else {
                    cross += s;
                    cn += 1;
                }
            }
        }
        assert!(within / wn as f64 > cross / cn as f64 + 0.05);
    }

    #[test]
    fn vector_retrieval_matches_item_retrieval_for_item_vector() {
        let c = corpus();
        let (model, _) = SisgModel::train(&c, Variant::Sgns, &small_sgns()).expect("train");
        let q = model.token_input(TokenId(3)).to_vec();
        let by_vec = model.similar_items_to_vector(&q, 6);
        // The item itself must rank first when not excluded.
        assert_eq!(by_vec[0].token, TokenId(3));
    }
}
