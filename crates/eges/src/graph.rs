//! The weighted directed item graph.
//!
//! Edges connect consecutively clicked items; the weight of `(a, b)` is the
//! number of times `b` was clicked directly after `a` anywhere in the
//! corpus. This is also the graph HBGP coarsens in the distributed engine,
//! so it lives in a reusable CSR form.

use sisg_corpus::{Corpus, ItemCatalog, ItemId};
use std::collections::HashMap;

/// A weighted directed graph over items, in CSR layout.
#[derive(Debug, Clone)]
pub struct ItemGraph {
    n_items: u32,
    offsets: Vec<u64>,
    targets: Vec<ItemId>,
    weights: Vec<f32>,
}

impl ItemGraph {
    /// Builds the transition graph of `corpus` over `n_items` items.
    pub fn from_corpus(corpus: &Corpus, n_items: u32) -> Self {
        let mut adj: Vec<HashMap<u32, f32>> = vec![HashMap::new(); n_items as usize];
        for session in corpus.iter() {
            for w in session.items.windows(2) {
                if w[0] != w[1] {
                    *adj[w[0].index()].entry(w[1].0).or_default() += 1.0;
                }
            }
        }
        Self::from_adjacency(n_items, &adj)
    }

    fn from_adjacency(n_items: u32, adj: &[HashMap<u32, f32>]) -> Self {
        let mut offsets = Vec::with_capacity(n_items as usize + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u64);
        for edges in adj {
            let mut sorted: Vec<(&u32, &f32)> = edges.iter().collect();
            sorted.sort_by_key(|(t, _)| **t);
            for (t, w) in sorted {
                targets.push(ItemId(*t));
                weights.push(*w);
            }
            offsets.push(targets.len() as u64);
        }
        Self {
            n_items,
            offsets,
            targets,
            weights,
        }
    }

    /// Number of items (nodes).
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Outgoing edges of `item` as `(targets, weights)` slices.
    #[inline]
    pub fn out_edges(&self, item: ItemId) -> (&[ItemId], &[f32]) {
        let s = self.offsets[item.index()] as usize;
        let e = self.offsets[item.index() + 1] as usize;
        (&self.targets[s..e], &self.weights[s..e])
    }

    /// Out-degree of `item`.
    #[inline]
    pub fn out_degree(&self, item: ItemId) -> usize {
        (self.offsets[item.index() + 1] - self.offsets[item.index()]) as usize
    }

    /// Weight of edge `(a, b)`, zero when absent.
    pub fn edge_weight(&self, a: ItemId, b: ItemId) -> f32 {
        let (targets, weights) = self.out_edges(a);
        match targets.binary_search(&b) {
            Ok(i) => weights[i],
            Err(_) => 0.0,
        }
    }

    /// Splits the graph as EGES is deployed: items are grouped by top-level
    /// category and **edges across groups are removed** — the information
    /// loss Section II-D describes. Returns the cross-edge weight fraction
    /// lost alongside the pruned graph.
    pub fn split_by_top_category(&self, catalog: &ItemCatalog) -> (ItemGraph, f64) {
        let mut adj: Vec<HashMap<u32, f32>> = vec![HashMap::new(); self.n_items as usize];
        let mut kept = 0.0f64;
        let mut lost = 0.0f64;
        for a in 0..self.n_items {
            let item = ItemId(a);
            let ga = catalog.top_level_of(catalog.leaf_category(item));
            let (targets, weights) = self.out_edges(item);
            for (t, w) in targets.iter().zip(weights) {
                let gb = catalog.top_level_of(catalog.leaf_category(*t));
                if ga == gb {
                    adj[item.index()].insert(t.0, *w);
                    kept += *w as f64;
                } else {
                    lost += *w as f64;
                }
            }
        }
        let frac_lost = if kept + lost > 0.0 {
            lost / (kept + lost)
        } else {
            0.0
        };
        (Self::from_adjacency(self.n_items, &adj), frac_lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus, UserId};

    fn items(raw: &[u32]) -> Vec<ItemId> {
        raw.iter().copied().map(ItemId).collect()
    }

    #[test]
    fn edge_weights_count_transitions() {
        let mut c = Corpus::new();
        c.push(UserId(0), &items(&[0, 1, 2, 1]));
        c.push(UserId(1), &items(&[0, 1]));
        let g = ItemGraph::from_corpus(&c, 3);
        assert_eq!(g.edge_weight(ItemId(0), ItemId(1)), 2.0);
        assert_eq!(g.edge_weight(ItemId(1), ItemId(2)), 1.0);
        assert_eq!(g.edge_weight(ItemId(2), ItemId(1)), 1.0);
        assert_eq!(g.edge_weight(ItemId(1), ItemId(0)), 0.0, "directedness");
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut c = Corpus::new();
        c.push(UserId(0), &items(&[3, 3, 4]));
        let g = ItemGraph::from_corpus(&c, 5);
        assert_eq!(g.edge_weight(ItemId(3), ItemId(3)), 0.0);
        assert_eq!(g.edge_weight(ItemId(3), ItemId(4)), 1.0);
    }

    #[test]
    fn out_edges_are_sorted() {
        let mut c = Corpus::new();
        c.push(UserId(0), &items(&[0, 5, 0, 2, 0, 9]));
        let g = ItemGraph::from_corpus(&c, 10);
        let (targets, _) = g.out_edges(ItemId(0));
        let raw: Vec<u32> = targets.iter().map(|t| t.0).collect();
        assert_eq!(raw, vec![2, 5, 9]);
    }

    #[test]
    fn category_split_loses_cross_edges() {
        let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
        let g = ItemGraph::from_corpus(&gen.sessions, gen.config.n_items);
        let (split, lost) = g.split_by_top_category(&gen.catalog);
        assert!(lost > 0.0, "synthetic corpus has cross-category edges");
        assert!(lost < 0.5, "most weight stays within top-level categories");
        // Every surviving edge stays within one top-level category.
        for a in 0..split.n_items() {
            let item = ItemId(a);
            let ga = gen.catalog.top_level_of(gen.catalog.leaf_category(item));
            let (targets, _) = split.out_edges(item);
            for t in targets {
                let gb = gen.catalog.top_level_of(gen.catalog.leaf_category(*t));
                assert_eq!(ga, gb);
            }
        }
    }
}
