//! The serving side of the matching stage.
//!
//! Production serves precomputed top-K candidate lists: the daily training
//! job materializes, for every item, its K most similar items, and the
//! online system does a key-value lookup per click (this is also how the
//! CF baseline has always been served). [`MatchingService`] is that
//! artifact, with the two cold-start fallbacks of Section IV-C wired in:
//! unknown items fall back to Eq. (6) inference from their SI values, and
//! history-less users to averaged user-type vectors.
//!
//! The answer rule is written here once. [`MatchingService::candidates`]
//! and [`MatchingService::cold_user_candidates`] are the reference answers
//! (exact f32 scan, Eq. 6 plain sum); the `sisg-serve` engine keeps the
//! service inside its snapshot and calls the same functions through
//! [`MatchingService::cold_item_candidates_with`] /
//! [`MatchingService::cold_user_candidates_with`] with its tenant's
//! [`SiAggregation`] and its own retrieval (cache, quantized index), so the
//! two cannot drift apart.
//!
//! Every query path returns `Result`: unknown item ids, out-of-range SI
//! values, and unmatched demographics come back as [`CoreError`] values,
//! never panics, and a requested `k` is clamped to the catalog size before
//! anything is sized by it. The service keeps no counters of its own:
//! request accounting is the engine's `serve.*` family.

use crate::cold_start::{self, SiAggregation};
use crate::error::CoreError;
use crate::model::SisgModel;
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{ItemId, UserRegistry};
use sisg_embedding::Neighbor;

/// One recommended item with its similarity score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The recommended item.
    pub item: ItemId,
    /// Similarity under the model's retrieval rule.
    pub score: f32,
}

/// Item retrieval scores rows `0..n_items` of the joint space, where a
/// token id *is* the item id.
impl From<Neighbor> for Recommendation {
    fn from(n: Neighbor) -> Self {
        Self {
            item: ItemId(n.token.0),
            score: n.score,
        }
    }
}

/// Build options for the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Candidates precomputed per item. Must be at least 1.
    pub k: usize,
    /// Items with fewer training clicks than this are marked cold and
    /// served through Eq. (6) instead of their (undertrained) own vector.
    pub min_clicks_for_warm: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            k: 50,
            min_clicks_for_warm: 3,
        }
    }
}

impl ServingConfig {
    /// Validates the configuration; [`MatchingService::build`] calls this.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.k == 0 {
            return Err(CoreError::InvalidConfig {
                field: "k",
                reason: "must be at least 1",
            });
        }
        Ok(())
    }
}

/// The precomputed matching-stage artifact.
pub struct MatchingService {
    /// Every warm item's top-K candidates, back to back in item order.
    lists: Vec<Recommendation>,
    /// `lists[offsets[item]..offsets[item + 1]]` is `item`'s list (empty
    /// for cold items); `n_items + 1` entries.
    offsets: Vec<u32>,
    /// Cold flags per item.
    cold: Vec<bool>,
    model: SisgModel,
    users: UserRegistry,
}

impl std::fmt::Debug for MatchingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchingService")
            .field("n_items", &self.cold.len())
            .field("n_cold", &self.cold.iter().filter(|&&c| c).count())
            .finish_non_exhaustive()
    }
}

impl MatchingService {
    /// Materializes top-`k` lists for every warm item. `item_clicks` are
    /// training-corpus click counts (for the cold threshold). Fails when
    /// the click counts do not cover the item catalog or the config is
    /// invalid.
    pub fn build(
        model: SisgModel,
        users: UserRegistry,
        item_clicks: &[u64],
        config: ServingConfig,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let n_items = model.space().n_items() as usize;
        if item_clicks.len() != n_items {
            return Err(CoreError::ClickCountMismatch {
                items: n_items,
                clicks: item_clicks.len(),
            });
        }
        let cold: Vec<bool> = item_clicks
            .iter()
            .map(|&clicks| clicks < config.min_clicks_for_warm)
            .collect();
        // A warm item's list is every other item, up to `k` of them, so
        // the table's size is known before the first scan: it is
        // allocated once, and checked against the `u32` offsets here.
        let warm = cold.iter().filter(|&&c| !c).count();
        let table_len = warm
            .checked_mul(config.k.min(n_items.saturating_sub(1)))
            .filter(|&n| u32::try_from(n).is_ok())
            .ok_or(CoreError::InvalidConfig {
                field: "k",
                reason: "the list table exceeds u32 offsets",
            })?;
        let mut lists = Vec::with_capacity(table_len);
        let mut offsets = Vec::with_capacity(n_items + 1);
        offsets.push(0);
        for (i, &is_cold) in cold.iter().enumerate() {
            if !is_cold {
                let list = model.similar_items(ItemId(i as u32), config.k);
                lists.extend(list.into_iter().map(Recommendation::from));
            }
            offsets.push(lists.len() as u32);
        }
        Ok(Self {
            lists,
            offsets,
            cold,
            model,
            users,
        })
    }

    /// The key-value lookup: `Ok(Some(list))` is a warm item's precomputed
    /// list, `Ok(None)` a cold item (answer it through
    /// [`Self::cold_item_candidates_with`]), and an item outside the
    /// trained catalog fails with [`CoreError::UnknownItem`].
    pub fn lookup(&self, item: ItemId) -> Result<Option<&[Recommendation]>, CoreError> {
        match self.cold.get(item.index()) {
            None => Err(CoreError::UnknownItem(item)),
            Some(true) => Ok(None),
            Some(false) => {
                let i = item.index();
                Ok(Some(
                    &self.lists[self.offsets[i] as usize..self.offsets[i + 1] as usize],
                ))
            }
        }
    }

    /// Serves the candidate list for a clicked item. Warm items answer from
    /// the precomputed artifact; cold items go through Eq. (6) using the
    /// catalog SI provided by the caller. Fails on an item outside the
    /// trained catalog or an out-of-range SI value.
    pub fn candidates(
        &self,
        item: ItemId,
        si_values: &[u32; ItemFeature::COUNT],
        k: usize,
    ) -> Result<Vec<Recommendation>, CoreError> {
        match self.lookup(item)? {
            Some(list) => Ok(list[..k.min(list.len())].to_vec()),
            None => {
                self.cold_item_candidates_with(item, si_values, k, SiAggregation::Sum, |q, n| {
                    self.model.similar_items_to_vector(q, n)
                })
            }
        }
    }

    /// Serves a cold-user request from demographics. Fails with
    /// [`CoreError::NoMatchingUserType`] when no realized user type matches.
    pub fn cold_user_candidates(
        &self,
        gender: Option<u8>,
        age: Option<u8>,
        purchase: Option<u8>,
        k: usize,
    ) -> Result<Vec<Recommendation>, CoreError> {
        self.cold_user_candidates_with(gender, age, purchase, k, |q, n| {
            self.model.similar_items_to_vector(q, n)
        })
    }

    /// The Eq. (6) answer for a cold `item`: its SI vectors aggregated
    /// under `aggregation`, the nearest items fetched by `retrieve(query,
    /// n)` (best first, at most `n`), and `item` itself dropped from the
    /// result.
    pub fn cold_item_candidates_with(
        &self,
        item: ItemId,
        si_values: &[u32; ItemFeature::COUNT],
        k: usize,
        aggregation: SiAggregation,
        retrieve: impl FnOnce(&[f32], usize) -> Vec<Neighbor>,
    ) -> Result<Vec<Recommendation>, CoreError> {
        let query = cold_start::cold_item_vector_with(&self.model, si_values, aggregation)?;
        Ok(self.answer(&query, Some(item), k, retrieve))
    }

    /// The cold-user answer: the averaged vector of the user types matching
    /// the demographics, the nearest items fetched by `retrieve(query, n)`.
    pub fn cold_user_candidates_with(
        &self,
        gender: Option<u8>,
        age: Option<u8>,
        purchase: Option<u8>,
        k: usize,
        retrieve: impl FnOnce(&[f32], usize) -> Vec<Neighbor>,
    ) -> Result<Vec<Recommendation>, CoreError> {
        let query = cold_start::cold_user_vector(&self.model, &self.users, gender, age, purchase)?;
        Ok(self.answer(&query, None, k, retrieve))
    }

    /// The one answer rule behind both cold paths: fetch the best `k` for
    /// `query` — one more when `exclude` may be among them — drop
    /// `exclude`, keep `k`. `k` comes from the request, so it is clamped to
    /// the catalog size (no answer can be longer) before `retrieve` sizes
    /// anything by it.
    fn answer(
        &self,
        query: &[f32],
        exclude: Option<ItemId>,
        k: usize,
        retrieve: impl FnOnce(&[f32], usize) -> Vec<Neighbor>,
    ) -> Vec<Recommendation> {
        let k = k.min(self.n_items());
        retrieve(query, k + usize::from(exclude.is_some()))
            .into_iter()
            .map(Recommendation::from)
            .filter(|r| Some(r.item) != exclude)
            .take(k)
            .collect()
    }

    /// True when `item` is served through the cold path; an id outside
    /// the catalog is not (its request fails with `UnknownItem` instead).
    pub fn is_cold(&self, item: ItemId) -> bool {
        matches!(self.lookup(item), Ok(None))
    }

    /// The precomputed list for a warm item; `None` for cold or unknown
    /// items.
    pub fn warm_list(&self, item: ItemId) -> Option<&[Recommendation]> {
        self.lookup(item).ok().flatten()
    }

    /// The model the service answers from.
    pub fn model(&self) -> &SisgModel {
        &self.model
    }

    /// Items in the served catalog.
    pub fn n_items(&self) -> usize {
        self.cold.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus};
    use sisg_sgns::SgnsConfig;

    fn service() -> (GeneratedCorpus, MatchingService) {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let (model, _) = SisgModel::train(
            &corpus,
            Variant::SisgFU,
            &SgnsConfig {
                dim: 16,
                window: 3,
                negatives: 3,
                epochs: 1,
                ..Default::default()
            },
        )
        .expect("train");
        let svc = MatchingService::build(
            model,
            corpus.users.clone(),
            &corpus.sessions.item_clicks(corpus.config.n_items),
            ServingConfig {
                k: 20,
                min_clicks_for_warm: 3,
            },
        )
        .expect("build");
        (corpus, svc)
    }

    #[test]
    fn warm_items_serve_precomputed_lists() {
        let (corpus, svc) = service();
        // Find a definitely-warm item (popular).
        let warm = (0..corpus.config.n_items)
            .map(ItemId)
            .find(|&i| !svc.is_cold(i))
            .expect("some warm item");
        let si = *corpus.catalog.si_values(warm);
        let recs = svc.candidates(warm, &si, 10).expect("known item");
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.item != warm));
    }

    #[test]
    fn cold_items_fall_back_to_si_inference() {
        let (corpus, svc) = service();
        let Some(cold) = (0..corpus.config.n_items)
            .map(ItemId)
            .find(|&i| svc.is_cold(i))
        else {
            // With a denser corpus no item is cold; nothing to test.
            return;
        };
        let si = *corpus.catalog.si_values(cold);
        let recs = svc.candidates(cold, &si, 10).expect("known item");
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.item != cold));
    }

    #[test]
    fn an_eq6_answer_drops_its_own_item_and_still_fills_k() {
        // A warm item's SI sum usually retrieves the item itself: the raw
        // top-k then holds only k - 1 other items, and the answer must
        // fetch one more to fill k.
        let (corpus, svc) = service();
        let k = 10;
        let fetch = |q: &[f32], n: usize| svc.model().similar_items_to_vector(q, n);
        let (item, si) = (0..corpus.config.n_items)
            .map(ItemId)
            .filter(|&i| !svc.is_cold(i))
            .map(|i| (i, *corpus.catalog.si_values(i)))
            .find(|(i, si)| {
                let q = cold_start::cold_item_vector_with(svc.model(), si, SiAggregation::Sum)
                    .expect("catalog SI");
                fetch(&q, k).iter().any(|n| n.token.0 == i.0)
            })
            .expect("some warm item retrieves itself from its SI sum");
        let recs = svc
            .cold_item_candidates_with(item, &si, k, SiAggregation::Sum, fetch)
            .expect("catalog SI");
        assert_eq!(recs.len(), k);
        assert!(recs.iter().all(|r| r.item != item));
    }

    #[test]
    fn cold_user_path_answers_k_items() {
        let (_, svc) = service();
        let recs = svc.cold_user_candidates(Some(0), None, None, 5);
        assert_eq!(recs.expect("matching user type").len(), 5);
    }

    #[test]
    fn unknown_item_is_a_typed_error() {
        let (_, svc) = service();
        let bogus = ItemId(u32::MAX);
        let err = svc
            .candidates(bogus, &[0; ItemFeature::COUNT], 5)
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownItem(bogus));
    }

    #[test]
    fn warm_list_covers_exactly_the_warm_items() {
        let (corpus, svc) = service();
        let n_items = corpus.config.n_items;
        let mut table_len = 0;
        for i in 0..n_items {
            let item = ItemId(i);
            assert_eq!(svc.warm_list(item).is_some(), !svc.is_cold(item));
            // Each slice of the flat table is the item's own top-K, the
            // last item's included.
            if let Some(list) = svc.warm_list(item) {
                let direct: Vec<Recommendation> = svc
                    .model()
                    .similar_items(item, 20)
                    .into_iter()
                    .map(Recommendation::from)
                    .collect();
                assert_eq!(list, direct, "item {i}");
                table_len += list.len();
            }
        }
        assert!(
            (0..n_items).any(|i| svc.is_cold(ItemId(i))),
            "some are cold"
        );
        assert!(!svc.is_cold(ItemId(n_items - 1)), "the last item is warm");
        assert_eq!(table_len, svc.lists.len(), "cold items own no entries");
        // Outside the catalog: neither warm nor cold, and no panic.
        for outside in [ItemId(n_items), ItemId(u32::MAX)] {
            assert!(svc.warm_list(outside).is_none());
            assert!(!svc.is_cold(outside));
        }
    }

    #[test]
    fn validate_rejects_zero_k() {
        let zero_k = ServingConfig {
            k: 0,
            ..ServingConfig::default()
        };
        assert_eq!(
            zero_k.validate().unwrap_err(),
            CoreError::InvalidConfig {
                field: "k",
                reason: "must be at least 1",
            }
        );
        assert!(ServingConfig::default().validate().is_ok());
    }

    #[test]
    fn build_rejects_short_click_counts() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let (model, _) = SisgModel::train(
            &corpus,
            Variant::Sgns,
            &SgnsConfig {
                dim: 8,
                window: 2,
                negatives: 2,
                epochs: 1,
                ..Default::default()
            },
        )
        .expect("train");
        let err = MatchingService::build(
            model,
            corpus.users.clone(),
            &[1, 2, 3],
            ServingConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::ClickCountMismatch { clicks: 3, .. }
        ));
    }
}
