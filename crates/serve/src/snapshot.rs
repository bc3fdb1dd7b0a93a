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
//! item matrix — fine at bench scale, hopeless at millions of items.
//! Under [`ColdPathMode::QuantAnn`] each shard instead carries a
//! [`ColdIndex`] slice: its items' normalized vectors quantized to int8
//! scale-per-row, serialized into the mmap-friendly codec blob
//! (`sisg_embedding::codec`), and navigated zero-copy by a quantized HNSW
//! (`sisg_ann::qhnsw`). A cold request fans the ANN search out over every
//! shard's index, merges the candidates, and re-ranks them with the exact
//! f32 scorer — so the ids it returns come from the quantized graph but
//! the scores (and the order among surviving candidates) are identical to
//! brute force.

use crate::api::{ServeError, ServeRequest, ServeResponse};
use crate::cache::{AdmissionCache, CacheKey};
use crate::config::{ColdPathMode, TenantId};
use crate::metrics::{serve_metrics, ServeMetrics, TenantMetrics};
use sisg_ann::qhnsw::{HnswConfig, QHnswIndex};
use sisg_core::{CoreError, MatchingService, Recommendation, SiAggregation, SisgModel};
use sisg_corpus::{ItemId, TokenId};
use sisg_embedding::codec::{encode_quant, QuantBlob};
use sisg_embedding::{quantize_row, Neighbor, QuantMatrix};
use sisg_obs::Stopwatch;

/// Per-request tenant context threaded from the engine's submit path into
/// the worker's serve call: who to account the request to, how to
/// aggregate SI on the cold path, and which per-tenant metric slice to
/// record into.
pub(crate) struct TenantCtx {
    pub(crate) tenant: TenantId,
    pub(crate) si_weighting: SiAggregation,
    pub(crate) metrics: TenantMetrics,
}

/// Per-shard quantized ANN indexes over the normalized item vectors —
/// the bounded-memory cold path (DESIGN.md §11).
pub struct ColdIndex {
    /// `indexes[s]` covers items `s, s + n_shards, s + 2·n_shards, …`
    /// (local id `l` ↔ global item `l · n_shards + s`), each scoring
    /// zero-copy out of its encoded codec blob.
    indexes: Vec<QHnswIndex<QuantBlob>>,
    /// Quantized payload bytes per item (`dim` int8 weights + f32 scale).
    bytes_per_item: usize,
}

impl ColdIndex {
    /// Quantizes and indexes the model's normalized item vectors, sharded
    /// the way requests are routed, one scoped thread per shard. Shards
    /// share nothing but the read-only model, so every graph is the one a
    /// sequential build would produce. Returns `None` if a shard fails —
    /// its encoded blob does not parse back (cannot happen for blobs we
    /// just encoded), its thread cannot start, or it panics; the caller
    /// degrades to brute force rather than panicking (this crate's API is
    /// panic-free) and `serve.cold_index.fallback_total` says so.
    fn build(model: &SisgModel, n_shards: usize, ef_search: usize) -> Option<Self> {
        let watch = Stopwatch::start();
        let config = HnswConfig { ef_search };
        // Every shard is joined before the first failure is acted on: a
        // handle dropped unjoined re-raises its thread's panic at scope exit.
        let shards: Vec<Option<_>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..n_shards)
                .map(|s| {
                    std::thread::Builder::new()
                        .spawn_scoped(scope, move || build_shard(model, s, n_shards, config))
                })
                .collect();
            spawned
                .into_iter()
                .map(|shard| shard.ok()?.join().ok()?)
                .collect()
        });
        let indexes: Option<Vec<_>> = shards.into_iter().collect();
        let metrics = serve_metrics();
        metrics
            .cold_index_build_ms
            .record(watch.elapsed().as_millis() as u64);
        let Some(indexes) = indexes else {
            metrics.cold_index_fallback.inc();
            return None;
        };
        Some(Self {
            indexes,
            bytes_per_item: model.store().dim() + std::mem::size_of::<f32>(),
        })
    }

    /// Quantized payload bytes per item.
    pub fn bytes_per_item(&self) -> usize {
        self.bytes_per_item
    }

    /// Link-graph bytes allocated across all shard indexes, reported
    /// separately from the payload in the memory accounting.
    pub fn link_bytes(&self) -> usize {
        self.indexes.iter().map(QHnswIndex::link_bytes).sum()
    }
}

/// Shard `s`'s index: items `s, s + n_shards, …` normalized one at a time
/// into a `dim` buffer, quantized, encoded into the codec blob and
/// navigated zero-copy from it — no f32 copy of the shard is made.
fn build_shard(
    model: &SisgModel,
    s: usize,
    n_shards: usize,
    config: HnswConfig,
) -> Option<QHnswIndex<QuantBlob>> {
    let dim = model.store().dim();
    let n_items = model.space().n_items() as usize;
    let count = n_items.saturating_sub(s).div_ceil(n_shards);
    let mut data = vec![0i8; count * dim];
    let mut scales = Vec::with_capacity(count);
    let mut row = vec![0.0f32; dim];
    for (l, out) in data.chunks_exact_mut(dim).enumerate() {
        model.normalized_item_into(ItemId((l * n_shards + s) as u32), &mut row);
        scales.push(quantize_row(&row, out));
    }
    let rows = QuantMatrix::from_parts(count, dim, data, scales);
    let blob = QuantBlob::new(encode_quant(&rows)).ok()?;
    // The blob is the copy the index keeps; every shard builds at once, so
    // holding the matrix through the build would add its size per shard.
    drop(rows);
    Some(QHnswIndex::build(blob, config))
}

impl std::fmt::Debug for ColdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdIndex")
            .field("shards", &self.indexes.len())
            .field("bytes_per_item", &self.bytes_per_item)
            .finish_non_exhaustive()
    }
}

/// One immutable generation of the serving artifact.
pub struct ServingSnapshot {
    /// The list table, cold flags, model and user registry — and the
    /// answer rule itself.
    service: MatchingService,
    /// Worker count this snapshot's [`ColdIndex`] is laid out for;
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
    /// path. Building [`ColdPathMode::QuantAnn`] quantizes and indexes the
    /// catalog once, here — the request path never allocates an index.
    pub fn from_service_with(
        service: MatchingService,
        n_shards: usize,
        cold_path: ColdPathMode,
    ) -> Self {
        let n_shards = n_shards.max(1);
        let cold_index = match cold_path {
            ColdPathMode::BruteForce => None,
            ColdPathMode::QuantAnn { ef_search } => {
                ColdIndex::build(service.model(), n_shards, ef_search)
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

    /// The quantized in-shard cold index, when this snapshot carries one.
    pub fn cold_index(&self) -> Option<&ColdIndex> {
        self.cold_index.as_ref()
    }

    /// The warm list of `item`; `None` for cold or unknown items.
    pub fn warm_list(&self, item: ItemId) -> Option<&[Recommendation]> {
        self.service.warm_list(item)
    }

    /// Answers one request on the calling (worker) thread. `shard` and
    /// `epoch` are stamped into the response; `cache` is the worker-local
    /// cold-path cache partition of the request's tenant; `ctx` carries
    /// the tenant's identity, SI-aggregation mode, and metric slice.
    pub(crate) fn serve(
        &self,
        req: &ServeRequest,
        ctx: &TenantCtx,
        shard: usize,
        epoch: u64,
        cache: &mut AdmissionCache,
        metrics: &ServeMetrics,
    ) -> Result<ServeResponse, ServeError> {
        let watch = Stopwatch::start();
        metrics.requests.inc();
        ctx.metrics.requests.inc();
        let respond = |recommendations, cache_hit| ServeResponse {
            recommendations,
            epoch,
            shard,
            cache_hit,
            tenant: ctx.tenant,
        };
        let out = match *req {
            ServeRequest::Candidates { item, si_values, k } => {
                if let Some(list) = self.service.lookup(item)? {
                    metrics.warm_hits.inc();
                    ctx.metrics.warm_hits.inc();
                    respond(list[..k.min(list.len())].to_vec(), false)
                } else {
                    metrics.cold_items.inc();
                    ctx.metrics.cold_items.inc();
                    let key = CacheKey::ColdItem {
                        item: item.0,
                        si_values,
                        k,
                    };
                    let (answer, hit) = through_cache(cache, key, ctx, metrics, || {
                        self.service.cold_item_candidates_with(
                            item,
                            &si_values,
                            k,
                            ctx.si_weighting,
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
                metrics.cold_users.inc();
                ctx.metrics.cold_users.inc();
                let key = CacheKey::ColdUser {
                    gender,
                    age,
                    purchase,
                    k,
                };
                let (answer, hit) = through_cache(cache, key, ctx, metrics, || {
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
        ctx.metrics.request_ns.record_duration_ns(elapsed);
        Ok(out)
    }

    /// Fans one cold query out over every shard's quantized index,
    /// fetching up to `fetch` candidates per shard, and returns the merged
    /// global item ids. Records search effort (`serve.ann_hops`, summed
    /// over shards) and candidate volume.
    fn quant_candidates(
        &self,
        index: &ColdIndex,
        query: &[f32],
        fetch: usize,
        metrics: &ServeMetrics,
    ) -> Vec<TokenId> {
        let mut hops = 0u64;
        let mut candidates = Vec::with_capacity(fetch * self.n_shards);
        for (s, shard_index) in index.indexes.iter().enumerate() {
            let (hits, h) = shard_index.search_with_effort(query, fetch);
            hops += h;
            candidates.extend(
                hits.into_iter()
                    .map(|hit| TokenId((hit.id.0 as usize * self.n_shards + s) as u32)),
            );
        }
        metrics.quant_cold_searches.inc();
        metrics.quant_reranked.add(candidates.len() as u64);
        metrics.ann_hops.record(hops);
        candidates
    }

    /// Retrieves the `fetch` best items for an arbitrary cold query
    /// vector: quantized ANN + exact f32 re-rank when this snapshot
    /// carries a [`ColdIndex`], exact brute force otherwise. Either way
    /// the returned scores come from the f32 scorer.
    fn cold_query_neighbors(
        &self,
        query: &[f32],
        fetch: usize,
        metrics: &ServeMetrics,
    ) -> Vec<Neighbor> {
        match &self.cold_index {
            Some(index) => {
                let candidates = self.quant_candidates(index, query, fetch, metrics);
                self.model()
                    .rerank_items_to_vector(query, candidates.into_iter(), fetch)
            }
            None => self.model().similar_items_to_vector(query, fetch),
        }
    }
}

/// A cold answer behind the worker's admission cache: a cached answer is
/// returned as it was admitted, a miss is computed and offered for
/// admission. The flag says whether it was a hit.
fn through_cache(
    cache: &mut AdmissionCache,
    key: CacheKey,
    ctx: &TenantCtx,
    metrics: &ServeMetrics,
    compute: impl FnOnce() -> Result<Vec<Recommendation>, CoreError>,
) -> Result<(Vec<Recommendation>, bool), ServeError> {
    if let Some(hit) = cache.lookup(&key) {
        metrics.cache_hits.inc();
        ctx.metrics.cache_hits.inc();
        return Ok((hit.clone(), true));
    }
    metrics.cache_misses.inc();
    let computed = compute()?;
    cache.admit(key, computed.clone());
    Ok((computed, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_cold_index_equals_sequential_per_shard_builds() {
        const EF: usize = 48;
        let config = HnswConfig { ef_search: EF };
        // Uneven shards (601 % 4 ≠ 0), one shard, and more shards than
        // items (shards 5.. are empty).
        for (n_items, n_shards) in [(601, 4), (300, 1), (5, 8)] {
            let cards = sisg_corpus::schema::SchemaCardinalities::for_items(n_items as u32);
            let space = sisg_corpus::vocab::TokenSpace::new(n_items as u32, &cards, 3);
            let store = sisg_embedding::EmbeddingStore::new(space.len(), 8, 11);
            let model = SisgModel::from_store(sisg_core::Variant::SisgFU, space, store)
                .expect("store covers the space");
            let cold = ColdIndex::build(&model, n_shards, EF).expect("every shard builds");
            assert_eq!(cold.indexes.len(), n_shards);
            // The reference is the old construction: quantize rows of the
            // materialized unit-norm matrix.
            let m = model.item_norm_matrix();
            let mut items = 0;
            for (s, index) in cold.indexes.iter().enumerate() {
                let count = (s..n_items).step_by(n_shards).count();
                let rows = QuantMatrix::from_rows(count, 8, |l| m.row(l * n_shards + s));
                let sequential = QHnswIndex::build(rows, config);
                assert_eq!(index.len(), count, "shard {s} of {n_shards} holds {count}");
                assert_eq!(
                    index.graph_checksum(),
                    sequential.graph_checksum(),
                    "shard {s} of {n_shards} over {n_items} items"
                );
                items += count;
            }
            assert_eq!(items, n_items);
        }
    }
}
