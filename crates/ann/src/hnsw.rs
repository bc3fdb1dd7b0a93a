//! HNSW — Hierarchical Navigable Small World graphs (Malkov & Yashunin),
//! scored by inner product as production vector engines do for embedding
//! retrieval.
//!
//! The structure is the standard one: each node is inserted at a
//! geometrically-sampled maximum layer; upper layers form progressively
//! coarser proximity graphs used for zoom-in routing, and layer 0 holds the
//! full graph with up to `2·m` links per node.
//!
//! **One core, two scorers.** [`Hnsw<S>`] owns the links, level sampling,
//! beam search, insertion and pruning; the vectors live behind a
//! [`RowStore`], which only hands out scoring closures. This module
//! supplies the f32 store ([`HnswIndex`]); [`crate::qhnsw`] supplies the
//! int8 one. Same seed and insertion order give the same hierarchy under
//! either.
//!
//! **Maximum-inner-product handling.** Greedy graph search is only
//! navigable under a (near-)metric; raw inner product is not one — nodes
//! with large norms become universal hubs and recall collapses (we measured
//! ~0.5 on trained SISG output vectors, whose norms track popularity). The
//! f32 store therefore applies the standard MIPS→cosine reduction: each
//! vector is augmented with one extra coordinate `sqrt(M² − ‖x‖²)`
//! (M = max norm), making all augmented norms equal `M`; queries get a
//! zero extra coordinate, so augmented inner products equal the original
//! ones exactly while the geometry becomes navigable.

use crate::{AnnIndex, Hit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_embedding::math::dot;
use sisg_embedding::Matrix;
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// HNSW build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1 (layer 0 allows `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (≥ k for good recall).
    pub ef_search: usize,
    /// Seed for level sampling.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 42,
        }
    }
}

/// The vectors behind an [`Hnsw`] graph. The graph never sees a vector:
/// it asks the store for a closure that scores row ids against one fixed
/// query, so each representation keeps its own query encoding. A scorer
/// must not search an [`Hnsw`] itself: the beam's working memory is one
/// per thread and already borrowed while it runs.
pub trait RowStore {
    /// Number of indexed rows.
    fn n_rows(&self) -> usize;
    /// Dimensionality of the f32 queries [`RowStore::query_scorer`] takes.
    fn query_dim(&self) -> usize;
    /// Scores rows against an external query (encoded once, here).
    fn query_scorer(&self, query: &[f32]) -> impl Fn(u32) -> f32;
    /// Scores rows against stored row `anchor` — construction's query.
    fn row_scorer(&self, anchor: u32) -> impl Fn(u32) -> f32;
}

/// A max-heap entry ordered by score, ties broken towards the lower id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    id: u32,
}
impl Eq for Scored {}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-thread working memory of the beam search, reused across every
/// search and every insert of a build so neither allocates per call.
#[derive(Default)]
struct Scratch {
    /// `stamps[node] == epoch` ⇔ visited during the current beam.
    stamps: Vec<u32>,
    epoch: u32,
    candidates: BinaryHeap<Scored>,
    results: BinaryHeap<Reverse<Scored>>,
    /// Output of the last [`Links::search_layer`], best first.
    found: Vec<Scored>,
    /// Sort buffer of [`Links::prune`].
    ranked: Vec<Scored>,
}

impl Scratch {
    /// Starts a fresh visited set over `n` nodes by advancing the epoch —
    /// no clearing except once per 2³² beams, when the stamps wrap.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The link graph. Split from [`Hnsw`] so insertion can mutate links
/// while scoring closures borrow the store.
#[derive(Debug)]
struct Links {
    /// Words per layer-0 record `[len, n0 … n_2m]`: the `2·m` kept links
    /// plus one slot for the link whose arrival triggers a prune.
    stride: usize,
    /// Layer 0 of every node, one fixed-stride record each.
    layer0: Vec<u32>,
    /// Layers ≥ 1 of the few nodes that have them (`lists[l - 1]` is
    /// layer `l`), sorted by node id because nodes arrive in id order.
    upper: Vec<(u32, Vec<Vec<u32>>)>,
    entry: Option<u32>,
    max_layer: usize,
}

impl Links {
    fn new(rows: usize, m: usize) -> Self {
        let stride = 2 * m + 2;
        Self {
            stride,
            layer0: vec![0; rows * stride],
            upper: Vec::new(),
            entry: None,
            max_layer: 0,
        }
    }

    fn len(&self) -> usize {
        self.layer0.len() / self.stride
    }

    fn upper_at(&self, node: u32) -> Option<usize> {
        self.upper.binary_search_by_key(&node, |(id, _)| *id).ok()
    }

    /// Highest layer `node` is linked on.
    fn level_of(&self, node: u32) -> usize {
        self.upper_at(node).map_or(0, |at| self.upper[at].1.len())
    }

    /// Links of `node` on `layer`; empty when the node has no such layer.
    #[inline]
    fn neighbours(&self, node: u32, layer: usize) -> &[u32] {
        if layer == 0 {
            let base = node as usize * self.stride;
            let len = self.layer0[base] as usize;
            &self.layer0[base + 1..base + 1 + len]
        } else {
            self.upper_at(node)
                .and_then(|at| self.upper[at].1.get(layer - 1))
                .map_or(&[], Vec::as_slice)
        }
    }

    /// The list of `node` on upper layer `layer ≥ 1`, for mutation.
    fn upper_list(&mut self, node: u32, layer: usize) -> Option<&mut Vec<u32>> {
        let at = self.upper_at(node)?;
        self.upper[at].1.get_mut(layer - 1)
    }

    /// Appends `nb` to `node`'s list on `layer`; returns the new length.
    fn push(&mut self, node: u32, layer: usize, nb: u32) -> usize {
        if layer == 0 {
            let base = node as usize * self.stride;
            let len = self.layer0[base] as usize + 1;
            self.layer0[base + len] = nb;
            self.layer0[base] = len as u32;
            return len;
        }
        let list = self.upper_list(node, layer);
        debug_assert!(list.is_some(), "node {node} has no layer {layer}");
        list.map_or(0, |list| {
            list.push(nb);
            list.len()
        })
    }

    /// Greedy beam search on one layer; leaves up to `ef` best nodes in
    /// `scratch.found`, best first. `hops` counts score evaluations (node
    /// visits) so the serving path can report search effort.
    fn search_layer(
        &self,
        score: &impl Fn(u32) -> f32,
        entry: u32,
        ef: usize,
        layer: usize,
        hops: &mut u64,
        scratch: &mut Scratch,
    ) {
        scratch.begin(self.len());
        let Scratch {
            stamps,
            epoch,
            candidates,
            results,
            found,
            ..
        } = scratch;
        let epoch = *epoch;
        stamps[entry as usize] = epoch;
        *hops += 1;
        let e = Scored {
            score: score(entry),
            id: entry,
        };
        // Candidates: max-heap by score. Results: min-heap (via Reverse) of
        // size ef.
        candidates.clear();
        results.clear();
        candidates.push(e);
        results.push(Reverse(e));
        while let Some(best) = candidates.pop() {
            // `results` starts with the entry node and `pop` only fires
            // above `ef`, so `peek` never sees it empty; fall back to -inf
            // rather than panic on the serving path.
            let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.score);
            if best.score < worst && results.len() >= ef {
                break;
            }
            for &nb in self.neighbours(best.id, layer) {
                if stamps[nb as usize] == epoch {
                    continue;
                }
                stamps[nb as usize] = epoch;
                *hops += 1;
                let s = Scored {
                    score: score(nb),
                    id: nb,
                };
                let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.score);
                if results.len() < ef || s.score > worst {
                    candidates.push(s);
                    results.push(Reverse(s));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        found.clear();
        found.extend(results.drain().map(|r| r.0));
        // Ids are distinct, so the order is total and needs no stable sort.
        found.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// One greedy hill-climb on `layer` from `from`. `hops` counts score
    /// evaluations, matching [`Links::search_layer`].
    fn greedy_step(
        &self,
        score: &impl Fn(u32) -> f32,
        from: u32,
        layer: usize,
        hops: &mut u64,
    ) -> u32 {
        let mut current = from;
        let mut best = score(current);
        *hops += 1;
        loop {
            // The walk starts at the entry point (top layer) and follows
            // layer-`layer` links, whose targets all have that layer.
            debug_assert!(layer <= self.level_of(current), "walked below {layer}");
            let mut improved = false;
            for &nb in self.neighbours(current, layer) {
                let s = score(nb);
                *hops += 1;
                if s > best {
                    best = s;
                    current = nb;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Links node `id` (the next unused id) into layers `0..=level`.
    fn insert<S: RowStore>(
        &mut self,
        store: &S,
        config: &HnswConfig,
        id: u32,
        level: usize,
        scratch: &mut Scratch,
    ) {
        if level > 0 {
            self.upper.push((id, vec![Vec::new(); level]));
        }
        let Some(mut current) = self.entry else {
            self.entry = Some(id);
            self.max_layer = level;
            return;
        };
        let score = store.row_scorer(id);
        // Construction effort is not a serving metric; the hops are dropped.
        let mut hops = 0u64;

        // Zoom down through layers above the node's level.
        for layer in ((level + 1)..=self.max_layer).rev() {
            current = self.greedy_step(&score, current, layer, &mut hops);
        }

        // Insert into each layer from min(level, max_layer) down to 0.
        for layer in (0..=level.min(self.max_layer)).rev() {
            let ef = config.ef_construction;
            self.search_layer(&score, current, ef, layer, &mut hops, scratch);
            let max_links = if layer == 0 { config.m * 2 } else { config.m };
            let Scratch { found, ranked, .. } = &mut *scratch;
            for nb in found.iter().take(config.m).map(|s| s.id) {
                self.push(id, layer, nb);
                if self.push(nb, layer, id) > max_links {
                    self.prune(store, nb, layer, max_links, ranked);
                }
            }
            if let Some(best) = found.first() {
                current = best.id;
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = Some(id);
        }
    }

    /// Keeps only the `max_links` highest-scoring neighbors of `node`.
    fn prune<S: RowStore>(
        &mut self,
        store: &S,
        node: u32,
        layer: usize,
        max_links: usize,
        ranked: &mut Vec<Scored>,
    ) {
        let score = store.row_scorer(node);
        ranked.clear();
        ranked.extend(self.neighbours(node, layer).iter().map(|&nb| Scored {
            score: score(nb),
            id: nb,
        }));
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        ranked.dedup_by_key(|s| s.id);
        ranked.truncate(max_links);
        let kept = ranked.iter().map(|s| s.id);
        if layer == 0 {
            let base = node as usize * self.stride;
            self.layer0[base] = kept.len() as u32;
            for (slot, nb) in self.layer0[base + 1..].iter_mut().zip(kept) {
                *slot = nb;
            }
        } else if let Some(list) = self.upper_list(node, layer) {
            list.clear();
            list.extend(kept);
        }
    }
}

fn sample_level(rng: &mut StdRng, ml: f64) -> usize {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((-u.ln() * ml).floor() as usize).min(24)
}

/// The HNSW graph over the rows of a store `S`; owns the store.
#[derive(Debug)]
pub struct Hnsw<S> {
    config: HnswConfig,
    store: S,
    links: Links,
}

impl<S: RowStore> Hnsw<S> {
    /// Builds the graph by inserting the rows of `store` in id order.
    pub(crate) fn from_store(store: S, config: HnswConfig) -> Self {
        assert!(config.m >= 2, "m must be at least 2");
        let rows = store.n_rows();
        let mut links = Links::new(rows, config.m);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9A53);
        let ml = 1.0 / (config.m as f64).ln();
        SCRATCH.with_borrow_mut(|scratch| {
            for id in 0..rows as u32 {
                let level = sample_level(&mut rng, ml);
                links.insert(&store, &config, id, level, scratch);
            }
        });
        links.upper.shrink_to_fit();
        Self {
            config,
            store,
            links,
        }
    }

    /// Runs the full zoom-down + layer-0 beam for `query`, returning up
    /// to `k` hits (store scores, best first) and the number of score
    /// evaluations — the serving path records the latter as
    /// `serve.ann_hops`.
    ///
    /// # Panics
    /// Panics when `query.len()` differs from the store's dimensionality.
    pub fn search_with_effort(&self, query: &[f32], k: usize) -> (Vec<Hit>, u64) {
        assert_eq!(
            query.len(),
            self.store.query_dim(),
            "query dimensionality mismatch"
        );
        let Some(mut current) = self.links.entry else {
            return (Vec::new(), 0);
        };
        let score = self.store.query_scorer(query);
        let mut hops = 0u64;
        for layer in (1..=self.links.max_layer).rev() {
            current = self.links.greedy_step(&score, current, layer, &mut hops);
        }
        let ef = self.config.ef_search.max(k);
        let hits = SCRATCH.with_borrow_mut(|scratch| {
            self.links
                .search_layer(&score, current, ef, 0, &mut hops, scratch);
            let hit = |s: &Scored| Hit {
                id: TokenId(s.id),
                score: s.score,
            };
            scratch.found.iter().take(k).map(hit).collect()
        });
        (hits, hops)
    }

    /// Heap bytes allocated for the link graph (graph overhead beyond the
    /// vector payload — reported separately in the serving memory
    /// accounting). Capacities, not lengths: exact for the layer-0 arena;
    /// allocator headers of the sparse upper lists are not counted.
    pub fn link_bytes(&self) -> usize {
        let word = std::mem::size_of::<u32>();
        let list = std::mem::size_of::<Vec<u32>>();
        let entry = std::mem::size_of::<(u32, Vec<Vec<u32>>)>();
        let upper = &self.links.upper;
        self.links.layer0.capacity() * word
            + upper.capacity() * entry
            + upper
                .iter()
                .flat_map(|(_, lists)| {
                    std::iter::once(lists.capacity() * list)
                        .chain(lists.iter().map(|l| l.capacity() * word))
                })
                .sum::<usize>()
    }

    /// FNV-1a over the whole link graph: per node its layer count, then
    /// per layer the list length and the neighbour ids in stored order.
    /// Identical graphs agree on it; the identity tests pin it.
    pub fn graph_checksum(&self) -> u64 {
        let mut h = sisg_obs::Fnv1a::new();
        let mut fold = |word: u32| h.bytes(&word.to_le_bytes());
        for node in 0..self.links.len() as u32 {
            let layers = self.links.level_of(node) + 1;
            fold(layers as u32);
            for layer in 0..layers {
                let nbs = self.links.neighbours(node, layer);
                fold(nbs.len() as u32);
                nbs.iter().copied().for_each(&mut fold);
            }
        }
        h.finish()
    }
}

/// Cached obs handles so each search pays two relaxed-atomic records, not
/// a registry lookup.
struct HnswMetrics {
    search_us: &'static sisg_obs::Histogram,
    hops: &'static sisg_obs::Histogram,
}

fn hnsw_metrics() -> &'static HnswMetrics {
    static M: std::sync::OnceLock<HnswMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| HnswMetrics {
        search_us: sisg_obs::registry().histogram(sisg_obs::names::ANN_SEARCH_US),
        hops: sisg_obs::registry().histogram(sisg_obs::names::ANN_HNSW_HOPS),
    })
}

impl<S: RowStore> AnnIndex for Hnsw<S> {
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let m = hnsw_metrics();
        let watch = sisg_obs::Stopwatch::start();
        let (hits, hops) = self.search_with_effort(query, k);
        m.hops.record(hops);
        m.search_us.record_duration(watch.elapsed());
        hits
    }

    fn len(&self) -> usize {
        self.links.len()
    }
}

/// MIPS-augmented f32 rows (`dim + 1` columns, constant norm — see the
/// module docs).
#[derive(Debug)]
pub struct MipsRows(Matrix);

impl RowStore for MipsRows {
    fn n_rows(&self) -> usize {
        self.0.rows()
    }

    fn query_dim(&self) -> usize {
        self.0.dim() - 1
    }

    fn query_scorer(&self, query: &[f32]) -> impl Fn(u32) -> f32 {
        // A zero extra coordinate: augmented inner products equal the
        // original ones exactly.
        let mut q = query.to_vec();
        q.push(0.0);
        move |row| dot(&q, self.0.row(row as usize))
    }

    fn row_scorer(&self, anchor: u32) -> impl Fn(u32) -> f32 {
        let q = self.0.row(anchor as usize);
        move |row| dot(q, self.0.row(row as usize))
    }
}

/// The f32 index (owns an augmented copy of the vectors).
pub type HnswIndex = Hnsw<MipsRows>;

impl Hnsw<MipsRows> {
    /// Builds the graph by inserting the rows of `vectors` in id order.
    pub fn build(vectors: &Matrix, config: HnswConfig) -> Self {
        let dim = vectors.dim();
        let max_norm2 = (0..vectors.rows())
            .map(|i| dot(vectors.row(i), vectors.row(i)))
            .fold(0.0f32, f32::max);
        let mut data = Vec::with_capacity(vectors.rows() * (dim + 1));
        for i in 0..vectors.rows() {
            let row = vectors.row(i);
            data.extend_from_slice(row);
            data.push((max_norm2 - dot(row, row)).max(0.0).sqrt());
        }
        let augmented = Matrix::from_data(vectors.rows(), dim + 1, data);
        Self::from_store(MipsRows(augmented), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_data(
            n,
            dim,
            (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    }

    #[test]
    fn finds_exact_top1_with_own_vector() {
        // Under inner-product scoring a point need not be its own nearest
        // neighbor (a higher-norm vector aligned with the query can beat
        // dot(q, q)), so the right property is agreement with the exact
        // argmax, not "finds itself".
        let m = random_matrix(400, 8, 1);
        let idx = HnswIndex::build(&m, HnswConfig::default());
        for probe in [0u32, 57, 399] {
            let query = m.row(probe as usize);
            let exact = (0..400).max_by(|&a, &b| {
                dot(query, m.row(a))
                    .partial_cmp(&dot(query, m.row(b)))
                    .unwrap_or(Ordering::Equal)
            });
            let hits = idx.search(query, 1);
            assert_eq!(
                hits[0].id.index(),
                exact.unwrap_or_default(),
                "probe {probe}: HNSW disagrees with brute force"
            );
        }
    }

    #[test]
    fn high_recall_vs_brute_force() {
        let m = random_matrix(500, 8, 2);
        let idx = HnswIndex::build(&m, HnswConfig::default());
        let mut recall_hits = 0usize;
        let mut total = 0usize;
        for q in (0..500).step_by(25) {
            let query = m.row(q);
            let approx: Vec<u32> = idx.search(query, 10).iter().map(|h| h.id.0).collect();
            let exact =
                sisg_embedding::retrieve_top_k(query, &m, (0..500u32).map(TokenId), 10, None);
            for e in exact {
                total += 1;
                if approx.contains(&e.token.0) {
                    recall_hits += 1;
                }
            }
        }
        let recall = recall_hits as f64 / total as f64;
        assert!(recall > 0.85, "recall@10 only {recall}");
    }

    #[test]
    fn empty_and_singleton_indexes() {
        let empty = HnswIndex::build(&Matrix::zeros(0, 4), HnswConfig::default());
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0; 4], 5).is_empty());
        let single = HnswIndex::build(&random_matrix(1, 4, 3), HnswConfig::default());
        let hits = single.search(&[0.1, 0.2, 0.3, 0.4], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, TokenId(0));
    }

    #[test]
    fn degrees_are_bounded_and_missing_layers_read_empty() {
        let m = random_matrix(300, 8, 4);
        let cfg = HnswConfig {
            m: 8,
            ..Default::default()
        };
        let idx = HnswIndex::build(&m, cfg);
        let links = &idx.links;
        for node in 0..300u32 {
            assert!(links.neighbours(node, 0).len() <= 16, "layer 0 over 2m");
            let level = links.level_of(node);
            for layer in 1..=level {
                assert!(links.neighbours(node, layer).len() <= 8, "upper over m");
            }
            // The accessor never substitutes a lower layer for a missing one.
            assert!(links.neighbours(node, level + 1).is_empty());
        }
        let links0: usize = (0..300).map(|n| links.neighbours(n, 0).len()).sum();
        assert!(links0 > 2 * 300, "graph too sparse to navigate");
        // One `[len, 2·m links, spill slot]` record per node at least.
        assert!(idx.link_bytes() >= 300 * (2 * 8 + 2) * 4);
    }

    #[test]
    fn visited_epochs_survive_the_stamp_wrap() {
        let mut scratch = Scratch {
            epoch: u32::MAX - 1,
            ..Scratch::default()
        };
        scratch.begin(4);
        scratch.stamps[2] = scratch.epoch;
        scratch.begin(4);
        assert_eq!(scratch.epoch, 1, "the wrap restarts the epochs");
        assert_eq!(scratch.stamps, [0; 4], "and forgets every old stamp");
    }
}
