//! HNSW — Hierarchical Navigable Small World graphs (Malkov & Yashunin) —
//! over int8 scale-per-row quantized vectors: the in-shard cold-path
//! index of `crates/serve` (DESIGN.md §11).
//!
//! The structure is the standard one: each node is inserted at a
//! geometrically-sampled maximum layer; upper layers form progressively
//! coarser proximity graphs used for zoom-in routing, and layer 0 holds the
//! full graph with up to `2·m` links per node.
//!
//! **Scoring.** Nodes are scored by inner product with the quantized
//! kernel `dot_q8` (exact i32 accumulation, one rescale by
//! `row_scale · query_scale`); an external query is quantized once per
//! search, and construction scores against a stored row. The index is
//! generic over [`QuantRows`] storage; the workspace builds it over an
//! owned [`sisg_embedding::QuantMatrix`].
//!
//! **Unit-norm rows.** Greedy graph search is only navigable under a
//! (near-)metric, and raw inner product is not one: high-norm rows become
//! universal hubs. The index therefore *assumes* near-uniform row norms —
//! its corpus is the model's L2-normalized item vectors (the rows the
//! serving cosine scorers score, which `crates/serve` normalizes one at a
//! time before quantizing), where inner product coincides with cosine and
//! the geometry is navigable as-is.
//!
//! Quantized scores carry a bounded perturbation (≤ half a scale per
//! element), so callers that need exact order re-rank the returned
//! candidates with the f32 kernels; `crates/serve` does exactly that.

use crate::Hit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_embedding::kernels::dot_q8;
use sisg_embedding::{QuantQuery, QuantRows};
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Max links per node on layers ≥ 1 (layer 0 allows `2·M`).
const M: usize = 16;
/// Beam width during construction.
const EF_CONSTRUCTION: usize = 100;
/// Seed for level sampling.
const LEVEL_SEED: u64 = 42;

/// HNSW search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Beam width during search; the beam is `max(ef_search, k)`.
    pub ef_search: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self { ef_search: 64 }
    }
}

/// Scores rows of `rows` against the quantized query `(q, q_scale)`.
fn scorer<'a, S: QuantRows>(rows: &'a S, q: &'a [i8], q_scale: f32) -> impl Fn(u32) -> f32 + 'a {
    move |row| {
        let i = row as usize;
        dot_q8(rows.row(i), q, rows.scale(i) * q_scale)
    }
}

/// A max-heap entry ordered by score, ties broken towards the lower id.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    id: u32,
}
impl Eq for Scored {}
impl Ord for Scored {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Scored {
    #[inline]
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

/// The link graph. Split from [`QHnswIndex`] so insertion can mutate
/// links while scoring closures borrow the rows.
#[derive(Debug)]
struct Links {
    /// Layer 0 of every node, one `[len, n0 … n_2m]` record of `STRIDE`
    /// words each: the `2·m` kept links plus one slot for the link whose
    /// arrival triggers a prune.
    layer0: Vec<u32>,
    /// Layers ≥ 1 of the few nodes that have them (`lists[l - 1]` is
    /// layer `l`), sorted by node id because nodes arrive in id order.
    upper: Vec<(u32, Vec<Vec<u32>>)>,
    entry: Option<u32>,
    max_layer: usize,
}

/// Words per layer-0 record.
const STRIDE: usize = 2 * M + 2;

impl Links {
    fn new(rows: usize) -> Self {
        Self {
            layer0: vec![0; rows * STRIDE],
            upper: Vec::new(),
            entry: None,
            max_layer: 0,
        }
    }

    fn len(&self) -> usize {
        self.layer0.len() / STRIDE
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
            let base = node as usize * STRIDE;
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
            let base = node as usize * STRIDE;
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
    fn insert<S: QuantRows>(&mut self, rows: &S, id: u32, level: usize, scratch: &mut Scratch) {
        if level > 0 {
            self.upper.push((id, vec![Vec::new(); level]));
        }
        let Some(mut current) = self.entry else {
            self.entry = Some(id);
            self.max_layer = level;
            return;
        };
        let score = scorer(rows, rows.row(id as usize), rows.scale(id as usize));
        // Construction effort is not a serving metric; the hops are dropped.
        let mut hops = 0u64;

        // Zoom down through layers above the node's level.
        for layer in ((level + 1)..=self.max_layer).rev() {
            current = self.greedy_step(&score, current, layer, &mut hops);
        }

        // Insert into each layer from min(level, max_layer) down to 0.
        for layer in (0..=level.min(self.max_layer)).rev() {
            self.search_layer(&score, current, EF_CONSTRUCTION, layer, &mut hops, scratch);
            let max_links = if layer == 0 { M * 2 } else { M };
            let Scratch { found, ranked, .. } = &mut *scratch;
            for nb in found.iter().take(M).map(|s| s.id) {
                self.push(id, layer, nb);
                if self.push(nb, layer, id) > max_links {
                    self.prune(rows, nb, layer, max_links, ranked);
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
    fn prune<S: QuantRows>(
        &mut self,
        rows: &S,
        node: u32,
        layer: usize,
        max_links: usize,
        ranked: &mut Vec<Scored>,
    ) {
        let score = scorer(rows, rows.row(node as usize), rows.scale(node as usize));
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
            let base = node as usize * STRIDE;
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

/// The quantized HNSW index over the rows of a [`QuantRows`] store `S`;
/// owns the store.
#[derive(Debug)]
pub struct QHnswIndex<S> {
    ef_search: usize,
    rows: S,
    links: Links,
}

impl<S: QuantRows> QHnswIndex<S> {
    /// Builds the graph by inserting the rows of `rows` in id order.
    pub fn build(rows: S, config: HnswConfig) -> Self {
        let n = rows.rows();
        let mut links = Links::new(n);
        let mut rng = StdRng::seed_from_u64(LEVEL_SEED ^ 0x9A53);
        let ml = 1.0 / (M as f64).ln();
        SCRATCH.with_borrow_mut(|scratch| {
            for id in 0..n as u32 {
                let level = sample_level(&mut rng, ml);
                links.insert(&rows, id, level, scratch);
            }
        });
        links.upper.shrink_to_fit();
        Self {
            ef_search: config.ef_search,
            rows,
            links,
        }
    }

    /// The `k` (approximately) best rows for `query`, best first, with
    /// the search latency and effort recorded as `ann.search.us` and
    /// `ann.hnsw.hops`.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let m = hnsw_metrics();
        let watch = sisg_obs::Stopwatch::start();
        let (hits, hops) = self.search_with_effort(query, k);
        m.hops.record(hops);
        m.search_us.record_duration(watch.elapsed());
        hits
    }

    /// Runs the full zoom-down + layer-0 beam for `query`, returning up
    /// to `k` hits (int8 scores, best first) and the number of score
    /// evaluations — the serving path records the latter as
    /// `serve.ann_hops`.
    ///
    /// # Panics
    /// Panics when `query.len()` differs from the rows' dimensionality.
    pub fn search_with_effort(&self, query: &[f32], k: usize) -> (Vec<Hit>, u64) {
        assert_eq!(
            query.len(),
            self.rows.dim(),
            "query dimensionality mismatch"
        );
        let Some(mut current) = self.links.entry else {
            return (Vec::new(), 0);
        };
        let q = QuantQuery::new(query);
        let score = scorer(&self.rows, q.weights(), q.scale());
        let mut hops = 0u64;
        for layer in (1..=self.links.max_layer).rev() {
            current = self.links.greedy_step(&score, current, layer, &mut hops);
        }
        let ef = self.ef_search.max(k);
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
}

impl<S> QHnswIndex<S> {
    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    static METRICS: std::sync::OnceLock<HnswMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| HnswMetrics {
        search_us: sisg_obs::registry().histogram(sisg_obs::names::ANN_SEARCH_US),
        hops: sisg_obs::registry().histogram(sisg_obs::names::ANN_HNSW_HOPS),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_embedding::math::normalize;
    use sisg_embedding::{retrieve_top_k, Matrix, QuantMatrix};

    /// Seeded random matrix with L2-normalized rows — the corpus shape
    /// this index is built for (see module docs).
    fn normalized_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for row in data.chunks_mut(dim) {
            normalize(row);
        }
        Matrix::from_data(n, dim, data)
    }

    fn build(m: &Matrix) -> QHnswIndex<QuantMatrix> {
        QHnswIndex::build(QuantMatrix::from_matrix(m), HnswConfig::default())
    }

    #[test]
    fn recall_at_10_beats_the_gate_on_a_seeded_corpus() {
        // The ISSUE-level gate: quantized HNSW recall@10 vs f32
        // brute-force ≥ 0.95 on a seeded corpus of normalized vectors.
        let n = 1000usize;
        let m = normalized_matrix(n, 16, 11);
        let idx = build(&m);
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in (0..n).step_by(17) {
            let query = m.row(qi);
            let approx: Vec<u32> = idx.search(query, 10).iter().map(|h| h.id.0).collect();
            let exact = retrieve_top_k(query, &m, (0..n as u32).map(TokenId), 10, None);
            for e in exact {
                total += 1;
                if approx.contains(&e.token.0) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.95, "quantized recall@10 only {recall}");
    }

    #[test]
    fn finds_exact_top1_with_own_vector() {
        // Agreement with the exact argmax under the index's own int8
        // scores — the property a graph search can promise.
        let m = normalized_matrix(400, 8, 1);
        let rows = QuantMatrix::from_matrix(&m);
        let idx = build(&m);
        for probe in [0usize, 57, 399] {
            let q = QuantQuery::new(m.row(probe));
            let score = scorer(&rows, q.weights(), q.scale());
            let exact = (0..400u32)
                .map(|id| Scored {
                    score: score(id),
                    id,
                })
                .max()
                .map(|s| s.id);
            let hits = idx.search(m.row(probe), 1);
            assert_eq!(
                Some(hits[0].id.0),
                exact,
                "probe {probe}: HNSW disagrees with brute force"
            );
        }
    }

    #[test]
    fn empty_and_singleton_indexes() {
        let empty = build(&Matrix::zeros(0, 4));
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0; 4], 5).is_empty());
        let single = build(&normalized_matrix(1, 4, 3));
        let hits = single.search(&[0.1, 0.2, 0.3, 0.4], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, TokenId(0));
    }

    #[test]
    fn degrees_are_bounded_and_missing_layers_read_empty() {
        let idx = build(&normalized_matrix(300, 8, 4));
        let links = &idx.links;
        for node in 0..300u32 {
            assert!(links.neighbours(node, 0).len() <= 2 * M, "layer 0 over 2m");
            let level = links.level_of(node);
            for layer in 1..=level {
                assert!(links.neighbours(node, layer).len() <= M, "upper over m");
            }
            // The accessor never substitutes a lower layer for a missing one.
            assert!(links.neighbours(node, level + 1).is_empty());
        }
        let links0: usize = (0..300).map(|n| links.neighbours(n, 0).len()).sum();
        assert!(links0 > 2 * 300, "graph too sparse to navigate");
        // One `[len, 2·m links, spill slot]` record per node at least.
        assert!(idx.link_bytes() >= 300 * STRIDE * 4);
    }

    #[test]
    fn search_reports_its_effort() {
        let m = normalized_matrix(300, 8, 4);
        let (hits, hops) = build(&m).search_with_effort(m.row(9), 5);
        assert_eq!(hits.len(), 5);
        assert!(hops >= 5, "beam search must score at least k nodes");
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
