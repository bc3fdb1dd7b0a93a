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
//! Every query path returns `Result`: unknown item ids, out-of-range SI
//! values, and unmatched demographics come back as [`CoreError`] values,
//! never panics. Request accounting lives in the obs registry — the single
//! source of truth — and [`MatchingService::stats`] reads registry deltas
//! since the service was built (see [`ServingStats`] for the caveat on
//! multiple concurrent services).

use crate::cold_start;
use crate::error::CoreError;
use crate::model::SisgModel;
use crate::recommender::Recommendation;
use sisg_corpus::schema::ItemFeature;
use sisg_corpus::{ItemId, UserRegistry};
use sisg_obs::{names, registry, Counter, Histogram, Stopwatch};
use std::sync::OnceLock;

/// Cached `&'static` obs handles: fetched once, then every request is a
/// handful of relaxed atomic ops (the serving-path overhead budget).
struct ServingMetrics {
    requests: &'static Counter,
    warm_hits: &'static Counter,
    cold_items: &'static Counter,
    cold_users: &'static Counter,
    recommend_us: &'static Histogram,
}

fn serving_metrics() -> &'static ServingMetrics {
    static M: OnceLock<ServingMetrics> = OnceLock::new();
    M.get_or_init(|| ServingMetrics {
        requests: registry().counter(names::SERVING_REQUESTS_TOTAL),
        warm_hits: registry().counter(names::SERVING_WARM_HITS_TOTAL),
        cold_items: registry().counter(names::SERVING_COLD_ITEM_TOTAL),
        cold_users: registry().counter(names::SERVING_COLD_USER_TOTAL),
        recommend_us: registry().histogram(names::SERVING_RECOMMEND_US),
    })
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
    /// Starts a validated builder (defaults: `k = 50`,
    /// `min_clicks_for_warm = 3`).
    pub fn builder() -> ServingConfigBuilder {
        ServingConfigBuilder {
            config: Self::default(),
        }
    }

    /// Validates the configuration; [`MatchingService::build`] calls this,
    /// so a hand-rolled struct literal gets the same checks as the builder.
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

/// Builder for [`ServingConfig`] — rejects invalid configurations at build
/// time instead of asserting mid-request.
#[derive(Debug, Clone)]
pub struct ServingConfigBuilder {
    config: ServingConfig,
}

impl ServingConfigBuilder {
    /// Candidates precomputed per item.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Cold threshold: items with fewer training clicks are served through
    /// Eq. (6).
    pub fn min_clicks_for_warm(mut self, min_clicks: u64) -> Self {
        self.config.min_clicks_for_warm = min_clicks;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServingConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A point-in-time snapshot of the serving counters, read from the obs
/// registry (the single source of truth) as deltas since the service was
/// built.
///
/// The registry counters are process-global: when several services serve
/// concurrently (or tests run in parallel in one binary), each service's
/// snapshot includes traffic on the *other* services since this one's
/// build. Per-request attribution belongs to the registry's own snapshot
/// machinery; this struct exists for single-service deployments and
/// coarse-grained monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Total candidate-list lookups served.
    pub requests: u64,
    /// Lookups answered from the precomputed lists.
    pub warm_hits: u64,
    /// Lookups answered through the Eq. (6) cold path.
    pub cold_item_requests: u64,
    /// Cold-user requests served.
    pub cold_user_requests: u64,
}

impl ServingStats {
    /// Reads the current registry totals.
    fn now() -> Self {
        let m = serving_metrics();
        Self {
            requests: m.requests.get(),
            warm_hits: m.warm_hits.get(),
            cold_item_requests: m.cold_items.get(),
            cold_user_requests: m.cold_users.get(),
        }
    }

    /// Component-wise saturating difference.
    fn since(self, baseline: Self) -> Self {
        Self {
            requests: self.requests.saturating_sub(baseline.requests),
            warm_hits: self.warm_hits.saturating_sub(baseline.warm_hits),
            cold_item_requests: self
                .cold_item_requests
                .saturating_sub(baseline.cold_item_requests),
            cold_user_requests: self
                .cold_user_requests
                .saturating_sub(baseline.cold_user_requests),
        }
    }
}

/// The precomputed matching-stage artifact.
pub struct MatchingService {
    config: ServingConfig,
    /// `lists[item]` = top-K candidates, empty for cold items.
    lists: Vec<Vec<Recommendation>>,
    /// Cold flags per item.
    cold: Vec<bool>,
    model: SisgModel,
    users: UserRegistry,
    /// Registry counter values at build time; `stats()` subtracts these.
    baseline: ServingStats,
}

impl std::fmt::Debug for MatchingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchingService")
            .field("config", &self.config)
            .field("n_items", &self.cold.len())
            .field("cold_fraction", &self.cold_fraction())
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
        let mut lists = Vec::with_capacity(n_items);
        let mut cold = Vec::with_capacity(n_items);
        for (i, &clicks) in item_clicks.iter().enumerate() {
            let is_cold = clicks < config.min_clicks_for_warm;
            cold.push(is_cold);
            if is_cold {
                lists.push(Vec::new());
            } else {
                lists.push(
                    model
                        .similar_items(ItemId(i as u32), config.k)
                        .into_iter()
                        .map(|n| Recommendation {
                            item: ItemId(n.token.0),
                            score: n.score,
                        })
                        .collect(),
                );
            }
        }
        Ok(Self {
            config,
            lists,
            cold,
            model,
            users,
            baseline: ServingStats::now(),
        })
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
        if self.model.space().try_item(item).is_none() {
            return Err(CoreError::UnknownItem(item));
        }
        let m = serving_metrics();
        let watch = Stopwatch::start();
        m.requests.inc();
        if !self.cold[item.index()] {
            m.warm_hits.inc();
            let list = &self.lists[item.index()];
            let out = list[..k.min(list.len())].to_vec();
            m.recommend_us.record_duration(watch.elapsed());
            return Ok(out);
        }
        m.cold_items.inc();
        let out: Vec<Recommendation> =
            cold_start::cold_item_recommendations(&self.model, si_values, k + 1)?
                .into_iter()
                .map(|n| Recommendation {
                    item: ItemId(n.token.0),
                    score: n.score,
                })
                .filter(|r| r.item != item)
                .take(k)
                .collect();
        m.recommend_us.record_duration(watch.elapsed());
        Ok(out)
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
        let m = serving_metrics();
        let watch = Stopwatch::start();
        m.cold_users.inc();
        let out = cold_start::cold_user_recommendations(
            &self.model,
            &self.users,
            gender,
            age,
            purchase,
            k,
        )?
        .into_iter()
        .map(|n| Recommendation {
            item: ItemId(n.token.0),
            score: n.score,
        })
        .collect();
        m.recommend_us.record_duration(watch.elapsed());
        Ok(out)
    }

    /// True when `item` is served through the cold path; an id outside
    /// the catalog is not (its request fails with `UnknownItem` instead).
    pub fn is_cold(&self, item: ItemId) -> bool {
        self.cold.get(item.index()).copied().unwrap_or(false)
    }

    /// Fraction of the catalog served cold.
    pub fn cold_fraction(&self) -> f64 {
        if self.cold.is_empty() {
            return 0.0;
        }
        self.cold.iter().filter(|&&c| c).count() as f64 / self.cold.len() as f64
    }

    /// The precomputed list for a warm item; `None` for cold or unknown
    /// items. Gives a sharding layer zero-copy access to the artifact.
    pub fn warm_list(&self, item: ItemId) -> Option<&[Recommendation]> {
        let idx = item.index();
        if idx >= self.cold.len() || self.cold[idx] {
            return None;
        }
        Some(&self.lists[idx])
    }

    /// The model the service answers from.
    pub fn model(&self) -> &SisgModel {
        &self.model
    }

    /// The user registry for cold-user matching.
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }

    /// Items in the served catalog.
    pub fn n_items(&self) -> usize {
        self.cold.len()
    }

    /// The service counters: obs-registry totals since this service was
    /// built. See [`ServingStats`] for the multi-service caveat.
    pub fn stats(&self) -> ServingStats {
        ServingStats::now().since(self.baseline)
    }

    /// The build configuration.
    pub fn config(&self) -> ServingConfig {
        self.config
    }

    /// Decomposes the artifact for layers that reshard the precomputed
    /// lists (e.g. the `sisg-serve` engine). The lists are moved out
    /// verbatim, so a resharding consumer answers bit-identically to this
    /// service by construction.
    pub fn into_parts(self) -> MatchingParts {
        MatchingParts {
            config: self.config,
            lists: self.lists,
            cold: self.cold,
            model: self.model,
            users: self.users,
        }
    }
}

/// The owned fields of a decomposed [`MatchingService`].
pub struct MatchingParts {
    /// The build configuration.
    pub config: ServingConfig,
    /// `lists[item]` = top-K candidates, empty for cold items.
    pub lists: Vec<Vec<Recommendation>>,
    /// Cold flags per item.
    pub cold: Vec<bool>,
    /// The model the service answers from.
    pub model: SisgModel,
    /// The user registry for cold-user matching.
    pub users: UserRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus};
    use sisg_sgns::SgnsConfig;
    use std::sync::Mutex;

    /// The registry counters are process-global, so serving tests serialize
    /// on this lock to assert exact deltas.
    static STATS_LOCK: Mutex<()> = Mutex::new(());

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
        let mut clicks = vec![0u64; corpus.config.n_items as usize];
        for s in corpus.sessions.iter() {
            for it in s.items {
                clicks[it.index()] += 1;
            }
        }
        let svc = MatchingService::build(
            model,
            corpus.users.clone(),
            &clicks,
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
        let _guard = STATS_LOCK.lock().unwrap();
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
        assert_eq!(svc.stats().warm_hits, 1);
        assert_eq!(svc.stats().cold_item_requests, 0);
    }

    #[test]
    fn cold_items_fall_back_to_si_inference() {
        let _guard = STATS_LOCK.lock().unwrap();
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
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| r.item != cold));
        assert_eq!(svc.stats().cold_item_requests, 1);
    }

    #[test]
    fn cold_fraction_is_consistent() {
        let (corpus, svc) = service();
        let manual = (0..corpus.config.n_items)
            .map(ItemId)
            .filter(|&i| svc.is_cold(i))
            .count() as f64
            / corpus.config.n_items as f64;
        assert!((svc.cold_fraction() - manual).abs() < 1e-12);
    }

    #[test]
    fn cold_user_path_counts_requests() {
        let _guard = STATS_LOCK.lock().unwrap();
        let (_, svc) = service();
        let recs = svc.cold_user_candidates(Some(0), None, None, 5);
        assert!(recs.is_ok());
        assert_eq!(svc.stats().cold_user_requests, 1);
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
        for i in 0..corpus.config.n_items {
            let item = ItemId(i);
            assert_eq!(svc.warm_list(item).is_some(), !svc.is_cold(item));
        }
        // Outside the catalog: neither warm nor cold, and no panic.
        assert!(svc.warm_list(ItemId(u32::MAX)).is_none());
        assert!(!svc.is_cold(ItemId(u32::MAX)));
    }

    #[test]
    fn builder_rejects_zero_k() {
        let err = ServingConfig::builder().k(0).build().unwrap_err();
        assert_eq!(
            err,
            CoreError::InvalidConfig {
                field: "k",
                reason: "must be at least 1",
            }
        );
        let ok = ServingConfig::builder()
            .k(10)
            .min_clicks_for_warm(5)
            .build()
            .expect("valid");
        assert_eq!(ok.k, 10);
        assert_eq!(ok.min_clicks_for_warm, 5);
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
