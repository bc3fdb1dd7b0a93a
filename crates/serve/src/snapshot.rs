//! The immutable serving artifact the worker pool answers from.
//!
//! A [`ServingSnapshot`] owns the [`MatchingService`] it was built from and
//! answers through it: warm lookups read the service's list table (every
//! worker shares the one immutable table; item `i` is *routed* to shard
//! `i % n_shards`, nothing is laid out by shard), and both cold answers are
//! the service's own answer functions with this crate's retrieval plugged
//! in. A snapshot therefore answers like the service it holds because it
//! *is* that service, not a copy kept equal by tests.
//!
//! **Cold paths** (Eq. 6 cold items, demographic cold users) score an
//! arbitrary query vector against the whole catalog. Under
//! [`ColdPathMode::BruteForce`] that is an exact linear scan of the f32
//! item matrix. Under [`ColdPathMode::QuantAnn`] the snapshot carries a
//! [`ColdIndex`]: every item's normalized vector quantized to int8
//! scale-per-row, one matrix in item order, a quarter of the f32 row's
//! bytes. A cold request quantizes its query once, scans every int8 row,
//! keeps the best `max(ef_search, fetch)` by int8 score and re-ranks that
//! shortlist with the exact f32 scorer — so the ids it returns come from
//! the int8 scan but the scores (and the order among surviving
//! candidates) are identical to brute force.

use crate::api::{ServeError, ServeRequest, ServeResponse};
use crate::cache::{AdmissionCache, CacheKey};
use crate::config::ColdPathMode;
use crate::engine::TenantRuntime;
use crate::metrics::{serve_metrics, ServeMetrics, TenantMetrics};
use sisg_core::{CoreError, MatchingService, Recommendation, SisgModel};
use sisg_corpus::ItemId;
use sisg_embedding::{
    quantize_row, retrieve_top_k_q8, Neighbor, QuantMatrix, QuantQuery, QuantRows,
};
use sisg_obs::Stopwatch;

/// The quantized cold index: every item's normalized vector quantized to
/// int8 scale-per-row, in item order, scanned whole per query
/// (DESIGN.md §11).
pub struct ColdIndex {
    /// Row `i` is item `i`.
    rows: QuantMatrix,
    /// Shortest int8 shortlist a query re-ranks at f32.
    ef_search: usize,
}

impl ColdIndex {
    /// Normalizes and quantizes the model's item vectors one row at a time
    /// straight into the matrix, so no f32 copy of the catalog is made.
    fn build(model: &SisgModel, ef_search: usize) -> Self {
        let watch = Stopwatch::start();
        let dim = model.store().dim();
        let n_items = model.space().n_items() as usize;
        let mut data = vec![0i8; n_items * dim];
        let mut scales = Vec::with_capacity(n_items);
        let mut row = vec![0.0f32; dim];
        for i in 0..n_items {
            model.normalized_item_into(ItemId(i as u32), &mut row);
            scales.push(quantize_row(&row, &mut data[i * dim..(i + 1) * dim]));
        }
        let rows = QuantMatrix::from_parts(n_items, dim, data, scales);
        serve_metrics()
            .cold_index_build_ms
            .record(watch.elapsed().as_millis() as u64);
        Self { rows, ef_search }
    }

    /// The best `max(ef_search, fetch)` items for `query` by int8 score:
    /// the shortlist the f32 re-rank orders.
    fn shortlist(&self, query: &[f32], fetch: usize) -> Vec<Neighbor> {
        retrieve_top_k_q8(
            &QuantQuery::new(query),
            &self.rows,
            self.ef_search.max(fetch),
        )
    }

    /// Quantized payload bytes per item (`dim` int8 weights + f32 scale).
    pub fn bytes_per_item(&self) -> usize {
        self.rows.bytes_per_row()
    }

    /// Link-graph bytes: always 0, because the index is a flat scan with
    /// no graph. Memory accounting that reports payload and links apart
    /// keeps working.
    pub fn link_bytes(&self) -> usize {
        0
    }
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("items", &self.rows.rows())
            .field("bytes_per_item", &self.bytes_per_item())
            .field("ef_search", &self.ef_search)
            .finish_non_exhaustive()
    }
}

/// One immutable generation of the serving artifact.
pub struct ServingSnapshot {
    /// The list table, cold flags, model and user registry — and the
    /// answer rule itself.
    service: MatchingService,
    /// Worker count this snapshot was built for;
    /// [`ServeEngine::install`](crate::ServeEngine::install) checks it.
    n_shards: usize,
    /// Present under [`ColdPathMode::QuantAnn`]; `None` = brute force.
    cold_index: Option<ColdIndex>,
}

impl std::fmt::Debug for ServingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSnapshot")
            .field("n_shards", &self.n_shards)
            .field("n_items", &self.n_items())
            .field("quant_ann", &self.cold_index.is_some())
            .finish_non_exhaustive()
    }
}

impl ServingSnapshot {
    /// Wraps a built [`MatchingService`] for `n_shards` workers with
    /// brute-force cold paths (the pre-quantization default).
    /// `n_shards` must already be validated (the engine config builder
    /// does); a zero value is lifted to 1 rather than dividing by zero.
    pub fn from_service(service: MatchingService, n_shards: usize) -> Self {
        Self::from_service_with(service, n_shards, ColdPathMode::BruteForce)
    }

    /// Wraps a built [`MatchingService`] and equips the requested cold
    /// path. Building [`ColdPathMode::QuantAnn`] quantizes the catalog
    /// once, here — the request path never quantizes an item.
    pub fn from_service_with(
        service: MatchingService,
        n_shards: usize,
        cold_path: ColdPathMode,
    ) -> Self {
        let n_shards = n_shards.max(1);
        let cold_index = match cold_path {
            ColdPathMode::BruteForce => None,
            ColdPathMode::QuantAnn { ef_search } => {
                Some(ColdIndex::build(service.model(), ef_search))
            }
        };
        Self {
            service,
            n_shards,
            cold_index,
        }
    }

    /// Worker shards in this layout.
    #[inline]
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Items in the served catalog.
    pub fn n_items(&self) -> usize {
        self.service.n_items()
    }

    /// True when `item` is in range and served through the cold path.
    pub fn is_cold(&self, item: ItemId) -> bool {
        self.service.is_cold(item)
    }

    /// The model this snapshot answers from.
    pub fn model(&self) -> &SisgModel {
        self.service.model()
    }

    /// The quantized cold index, when this snapshot carries one.
    pub fn cold_index(&self) -> Option<&ColdIndex> {
        self.cold_index.as_ref()
    }

    /// The warm list of `item`; `None` for cold or unknown items.
    pub fn warm_list(&self, item: ItemId) -> Option<&[Recommendation]> {
        self.service.warm_list(item)
    }

    /// Answers one request on the calling (worker) thread. `shard` and
    /// `epoch` are stamped into the response; `cache` is the worker-local
    /// cold-path cache partition of the request's tenant; `tenant` carries
    /// its identity, SI-aggregation mode, and the metric slice that counts
    /// the request.
    pub(crate) fn serve(
        &self,
        req: &ServeRequest,
        tenant: &TenantRuntime,
        shard: usize,
        epoch: u64,
        cache: &mut AdmissionCache,
        metrics: &ServeMetrics,
    ) -> Result<ServeResponse, ServeError> {
        let watch = Stopwatch::start();
        let counts = &tenant.metrics;
        counts.requests.inc();
        let respond = |recommendations, cache_hit| ServeResponse {
            recommendations,
            epoch,
            shard,
            cache_hit,
            tenant: tenant.id,
        };
        let out = match *req {
            ServeRequest::Candidates { item, si_values, k } => {
                if let Some(list) = self.service.lookup(item)? {
                    counts.warm_hits.inc();
                    respond(list[..k.min(list.len())].to_vec(), false)
                } else {
                    counts.cold_items.inc();
                    let key = CacheKey::ColdItem {
                        item: item.0,
                        si_values,
                        k,
                    };
                    let (answer, hit) = through_cache(cache, key, counts, || {
                        self.service.cold_item_candidates_with(
                            item,
                            &si_values,
                            k,
                            tenant.si_weighting,
                            |query, fetch| self.cold_query_neighbors(query, fetch, metrics),
                        )
                    })?;
                    respond(answer, hit)
                }
            }
            ServeRequest::ColdUser {
                gender,
                age,
                purchase,
                k,
            } => {
                counts.cold_users.inc();
                let key = CacheKey::ColdUser {
                    gender,
                    age,
                    purchase,
                    k,
                };
                let (answer, hit) = through_cache(cache, key, counts, || {
                    self.service.cold_user_candidates_with(
                        gender,
                        age,
                        purchase,
                        k,
                        |query, fetch| self.cold_query_neighbors(query, fetch, metrics),
                    )
                })?;
                respond(answer, hit)
            }
        };
        let elapsed = watch.elapsed();
        metrics.request_ns.record_duration_ns(elapsed);
        counts.request_ns.record_duration_ns(elapsed);
        Ok(out)
    }

    /// Retrieves the `fetch` best items for an arbitrary cold query
    /// vector: the [`ColdIndex`] shortlist re-ranked at f32 when this
    /// snapshot carries one, exact brute force otherwise. Either way the
    /// returned scores come from the f32 scorer.
    fn cold_query_neighbors(
        &self,
        query: &[f32],
        fetch: usize,
        metrics: &ServeMetrics,
    ) -> Vec<Neighbor> {
        match &self.cold_index {
            Some(index) => {
                let shortlist = index.shortlist(query, fetch);
                metrics.quant_cold_searches.inc();
                metrics.quant_reranked.add(shortlist.len() as u64);
                self.model().rerank_items_to_vector(
                    query,
                    shortlist.into_iter().map(|hit| hit.token),
                    fetch,
                )
            }
            None => self.model().similar_items_to_vector(query, fetch),
        }
    }
}

/// A cold answer behind the worker's admission cache: a cached answer is
/// returned as it was admitted, a miss is computed and offered for
/// admission. The flag says whether it was a hit. Every cold request
/// passes here exactly once, so misses are cold requests minus hits.
fn through_cache(
    cache: &mut AdmissionCache,
    key: CacheKey,
    counts: &TenantMetrics,
    compute: impl FnOnce() -> Result<Vec<Recommendation>, CoreError>,
) -> Result<(Vec<Recommendation>, bool), ServeError> {
    if let Some(hit) = cache.lookup(&key) {
        counts.cache_hits.inc();
        return Ok((hit.clone(), true));
    }
    let computed = compute()?;
    cache.admit(key, computed.clone());
    Ok((computed, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_index_quantizes_the_unit_norm_matrix_row_by_row() {
        for n_items in [601, 300, 5] {
            let cards = sisg_corpus::schema::SchemaCardinalities::for_items(n_items);
            let space = sisg_corpus::vocab::TokenSpace::new(n_items, &cards, 3);
            let store = sisg_embedding::EmbeddingStore::new(space.len(), 8, 11);
            let model = SisgModel::from_store(sisg_core::Variant::SisgFU, space, store)
                .expect("store covers the space");
            let cold = ColdIndex::build(&model, 48);
            // The reference quantizes the materialized unit-norm matrix.
            let reference = QuantMatrix::from_matrix(&model.item_norm_matrix());
            assert_eq!(cold.rows.rows(), n_items as usize);
            assert_eq!(cold.rows.data(), reference.data(), "{n_items} items");
            let bits = |m: &QuantMatrix| m.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cold.rows), bits(&reference), "{n_items} items");
        }
    }
}
