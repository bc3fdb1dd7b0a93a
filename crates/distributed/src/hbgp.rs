//! Heuristic Balanced Graph Partitioning (Section III-B).
//!
//! Most Taobao sessions stay within one leaf category, so partitioning
//! items by leaf category makes most sampled pairs worker-local. HBGP
//! groups leaf categories into `w` partitions such that
//!
//! 1. per-partition total item frequency is roughly equal (compute
//!    balance), and
//! 2. the transition frequency *between* partitions is small
//!    (communication).
//!
//! The heuristic coarsens the item transition graph to leaf-category nodes,
//! then repeatedly merges the pair of groups joined by the heaviest edge
//! whose merged size respects `|C₁|+|C₂| ≤ β·|V|/w`; when no edge
//! qualifies, β is relaxed (step 3(e) of the paper). β defaults to the
//! production value 1.2.

use crate::partition::Partitioner;
use sisg_corpus::{Corpus, ItemCatalog, LeafCategoryId};
use std::collections::HashMap;

/// The HBGP strategy.
#[derive(Debug, Clone, Copy)]
pub struct HbgpPartitioner {
    /// Maximum allowed imbalance `β ≥ 1` (paper production value: 1.2).
    pub beta: f64,
    /// Multiplier applied to β whenever no mergeable edge remains.
    pub beta_relaxation: f64,
}

impl Default for HbgpPartitioner {
    fn default() -> Self {
        Self {
            beta: 1.2,
            beta_relaxation: 1.25,
        }
    }
}

/// The coarsened leaf-category graph: symmetric merge weights (the paper
/// merges on the *sum* of both directions' transition frequencies) plus
/// per-category frequency mass.
#[derive(Debug)]
pub struct CategoryGraph {
    /// `weights[(a, b)]` with `a < b`: total transition frequency between
    /// categories `a` and `b`, both directions.
    weights: HashMap<(u32, u32), u64>,
    /// `|C|`: number of times items of each category appear in sequences.
    mass: Vec<u64>,
}

impl CategoryGraph {
    /// Reduces the item transition graph of `sessions` to leaf categories
    /// (step 1–2 of the heuristic).
    pub fn build(sessions: &Corpus, catalog: &ItemCatalog) -> Self {
        let n_cats = catalog.n_leaf_categories() as usize;
        let mut weights: HashMap<(u32, u32), u64> = HashMap::new();
        let mut mass = vec![0u64; n_cats];
        for s in sessions.iter() {
            for &item in s.items {
                mass[catalog.leaf_category(item).index()] += 1;
            }
            for w in s.items.windows(2) {
                let a = catalog.leaf_category(w[0]).0;
                let b = catalog.leaf_category(w[1]).0;
                if a != b {
                    let key = (a.min(b), a.max(b));
                    *weights.entry(key).or_default() += 1;
                }
            }
        }
        Self { weights, mass }
    }

    /// Total frequency mass `|V|`.
    pub fn total_mass(&self) -> u64 {
        self.mass.iter().sum()
    }

    /// Number of leaf categories.
    pub fn n_categories(&self) -> usize {
        self.mass.len()
    }

    /// Transition weight between two categories (symmetric).
    pub fn weight(&self, a: LeafCategoryId, b: LeafCategoryId) -> u64 {
        let key = (a.0.min(b.0), a.0.max(b.0));
        self.weights.get(&key).copied().unwrap_or(0)
    }
}

/// Diagnostics of one merge-heuristic run: how far β had to be relaxed
/// (step 3(e)) and what the final groups look like. The property tests use
/// this to check the balance invariant from the outside; operators can log
/// it to see whether production β = 1.2 actually held on their corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct HbgpTrace {
    /// β the run started with.
    pub initial_beta: f64,
    /// β after all step-3(e) relaxations (`initial_beta` if none fired).
    pub effective_beta: f64,
    /// Number of step-3(e) relaxations.
    pub relaxations: u32,
    /// Total merges performed.
    pub merges: u64,
    /// Merges of disconnected groups done without a qualifying edge (these
    /// bypass the balance cap, so they are reported separately).
    pub forced_merges: u64,
    /// Frequency mass of every final group, unordered.
    pub group_masses: Vec<u64>,
}

impl HbgpTrace {
    /// The balance cap `β·|V|/w` implied by the *effective* β — every
    /// group produced by a non-forced merge fits under it.
    pub fn effective_cap(&self, total_mass: u64, workers: usize) -> u64 {
        (self.effective_beta * total_mass as f64 / workers as f64).max(1.0) as u64
    }
}

/// Runs the merge heuristic: returns the partition index of every leaf
/// category.
fn partition_categories(
    graph: &CategoryGraph,
    workers: usize,
    beta: f64,
    beta_relaxation: f64,
) -> Vec<u16> {
    partition_categories_traced(graph, workers, beta, beta_relaxation).0
}

/// Runs the merge heuristic: the partition index of every leaf category
/// plus an [`HbgpTrace`] describing the run.
pub fn partition_categories_traced(
    graph: &CategoryGraph,
    workers: usize,
    beta: f64,
    beta_relaxation: f64,
) -> (Vec<u16>, HbgpTrace) {
    assert!(workers > 0, "need at least one worker");
    assert!(beta >= 1.0, "beta must be at least 1");
    assert!(beta_relaxation > 1.0, "relaxation must grow beta");
    let n = graph.n_categories();
    // Union-find over categories.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    let mut group_mass: Vec<u64> = graph.mass.clone();
    // Inter-group edges, rebuilt lazily as groups merge.
    let mut edges: HashMap<(u32, u32), u64> = graph.weights.clone();
    let mut n_groups = n;
    let initial_beta = beta;
    let mut beta = beta;
    let cap_base = graph.total_mass() as f64 / workers as f64;
    let mut relaxations: u32 = 0;
    let mut merges: u64 = 0;
    let mut forced_merges: u64 = 0;

    while n_groups > workers {
        // Find the heaviest edge that satisfies the balance constraint.
        let cap = (beta * cap_base).max(1.0) as u64;
        let mut best: Option<((u32, u32), u64)> = None;
        for (&(a, b), &w) in &edges {
            if group_mass[a as usize] + group_mass[b as usize] <= cap {
                let better = match best {
                    None => true,
                    Some((_, bw)) => w > bw || (w == bw && (a, b) < best.expect("set").0),
                };
                if better {
                    best = Some(((a, b), w));
                }
            }
        }
        let (a, b) = match best {
            Some((pair, _)) => pair,
            None => {
                if edges.is_empty() {
                    // Disconnected groups: merge the two lightest directly.
                    let mut roots: Vec<u32> = (0..n as u32)
                        .filter(|&c| find(&mut parent, c) == c)
                        .collect();
                    roots.sort_by_key(|&r| group_mass[r as usize]);
                    if roots.len() <= workers {
                        break;
                    }
                    forced_merges += 1;
                    (roots[0], roots[1])
                } else {
                    // Step 3(e): no mergeable edge — relax β and retry.
                    beta *= beta_relaxation;
                    relaxations += 1;
                    continue;
                }
            }
        };

        // Merge b into a.
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        debug_assert_ne!(ra, rb);
        parent[rb as usize] = ra;
        group_mass[ra as usize] += group_mass[rb as usize];
        n_groups -= 1;
        merges += 1;

        // Recalculate transition frequencies (step 3(c)): fold b's edges
        // into a's.
        let old_edges = std::mem::take(&mut edges);
        for ((x, y), w) in old_edges {
            let rx = find(&mut parent, x);
            let ry = find(&mut parent, y);
            if rx == ry {
                continue;
            }
            let key = (rx.min(ry), rx.max(ry));
            *edges.entry(key).or_default() += w;
        }
    }

    // Assign final groups to partitions, largest mass first onto the least
    // loaded partition (balanced bin placement of the ≤w groups — also
    // handles the fewer-groups-than-workers edge case).
    let mut roots: Vec<u32> = (0..n as u32).collect();
    for r in roots.iter_mut() {
        *r = find(&mut parent, *r);
    }
    let mut unique_roots: Vec<u32> = {
        let mut v: Vec<u32> = roots.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    unique_roots.sort_by_key(|&r| std::cmp::Reverse(group_mass[r as usize]));
    let group_masses: Vec<u64> = unique_roots
        .iter()
        .map(|&r| group_mass[r as usize])
        .collect();
    let mut part_load = vec![0u64; workers];
    let mut root_part: HashMap<u32, u16> = HashMap::new();
    for r in unique_roots {
        let target = part_load
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .expect("workers > 0");
        part_load[target] += group_mass[r as usize];
        root_part.insert(r, target as u16);
    }
    let assignment = roots.iter().map(|r| root_part[r]).collect();
    let trace = HbgpTrace {
        initial_beta,
        effective_beta: beta,
        relaxations,
        merges,
        forced_merges,
        group_masses,
    };
    (assignment, trace)
}

impl Partitioner for HbgpPartitioner {
    fn assign_items(
        &self,
        sessions: &Corpus,
        catalog: &ItemCatalog,
        n_items: u32,
        workers: usize,
    ) -> Vec<u16> {
        let graph = CategoryGraph::build(sessions, catalog);
        let cat_part = partition_categories(&graph, workers, self.beta, self.beta_relaxation);
        (0..n_items)
            .map(|i| cat_part[catalog.leaf_category(sisg_corpus::ItemId(i)).index()])
            .collect()
    }

    fn name(&self) -> &'static str {
        "hbgp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{assign_all, HashPartitioner, PartitionMap};
    use sisg_corpus::vocab::TokenSpace;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus};

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn category_graph_masses_sum_to_clicks() {
        let gen = corpus();
        let g = CategoryGraph::build(&gen.sessions, &gen.catalog);
        assert_eq!(g.total_mass(), gen.sessions.total_clicks());
    }

    #[test]
    fn category_graph_weights_are_symmetric_and_counted() {
        use sisg_corpus::{ItemId, UserId};
        let gen = corpus();
        let mut c = Corpus::new();
        // Find two items from different categories and alternate them.
        let a = ItemId(0);
        let b = (1..gen.config.n_items)
            .map(ItemId)
            .find(|&i| gen.catalog.leaf_category(i) != gen.catalog.leaf_category(a))
            .expect("two categories exist");
        c.push(UserId(0), &[a, b, a]);
        let g = CategoryGraph::build(&c, &gen.catalog);
        let (ca, cb) = (gen.catalog.leaf_category(a), gen.catalog.leaf_category(b));
        assert_eq!(g.weight(ca, cb), 2, "both directions summed");
        assert_eq!(g.weight(cb, ca), 2, "weight is symmetric");
        assert_eq!(g.weight(ca, ca), 0, "no self edge");
    }

    #[test]
    fn produces_exactly_w_nonempty_partitions() {
        let gen = corpus();
        for workers in [2usize, 4, 8] {
            let items = HbgpPartitioner::default().assign_items(
                &gen.sessions,
                &gen.catalog,
                gen.config.n_items,
                workers,
            );
            let mut seen = vec![false; workers];
            for &o in &items {
                seen[o as usize] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "some partition empty with {workers} workers"
            );
        }
    }

    #[test]
    fn whole_categories_stay_together() {
        let gen = corpus();
        let items = HbgpPartitioner::default().assign_items(
            &gen.sessions,
            &gen.catalog,
            gen.config.n_items,
            4,
        );
        for leaf in 0..gen.catalog.n_leaf_categories() {
            let members = gen.catalog.items_in_category(LeafCategoryId(leaf));
            if members.len() < 2 {
                continue;
            }
            let first = items[members[0].index()];
            assert!(
                members.iter().all(|m| items[m.index()] == first),
                "category {leaf} split across partitions"
            );
        }
    }

    #[test]
    fn beats_hash_on_cut_and_stays_balanced() {
        let gen = corpus();
        let space = TokenSpace::new(
            gen.config.n_items,
            gen.catalog.cardinalities(),
            gen.users.n_user_types(),
        );
        let workers = 4;
        let hbgp = assign_all(
            &HbgpPartitioner::default(),
            &gen.sessions,
            &gen.catalog,
            &space,
            workers,
            1,
        );
        let hash = assign_all(
            &HashPartitioner,
            &gen.sessions,
            &gen.catalog,
            &space,
            workers,
            1,
        );
        let cut_hbgp = hbgp.cut_fraction(&gen.sessions);
        let cut_hash = hash.cut_fraction(&gen.sessions);
        assert!(
            cut_hbgp < cut_hash * 0.5,
            "HBGP cut {cut_hbgp} should be far below hash cut {cut_hash}"
        );
        // Item-frequency balance within a relaxed bound (β is advisory; the
        // final bin placement may exceed it slightly on skewed data).
        let mut freqs = vec![0u64; space.len()];
        for s in gen.sessions.iter() {
            for it in s.items {
                freqs[it.index()] += 1;
            }
        }
        let item_map = PartitionMap::new(
            HbgpPartitioner::default().assign_items(
                &gen.sessions,
                &gen.catalog,
                gen.config.n_items,
                workers,
            ),
            workers,
        );
        let imbalance = item_map.imbalance(&freqs[..gen.config.n_items as usize]);
        assert!(
            imbalance < 2.5,
            "imbalance {imbalance} too large for 4 workers"
        );
    }

    #[test]
    fn single_worker_puts_everything_on_zero() {
        let gen = corpus();
        let items = HbgpPartitioner::default().assign_items(
            &gen.sessions,
            &gen.catalog,
            gen.config.n_items,
            1,
        );
        assert!(items.iter().all(|&o| o == 0));
    }

    #[test]
    fn trace_reflects_run_and_preserves_assignment() {
        let gen = corpus();
        let g = CategoryGraph::build(&gen.sessions, &gen.catalog);
        let (traced, trace) = partition_categories_traced(&g, 4, 1.2, 1.25);
        let plain = partition_categories(&g, 4, 1.2, 1.25);
        assert_eq!(traced, plain, "tracing must not change the assignment");
        assert_eq!(trace.initial_beta, 1.2);
        assert_eq!(
            trace.effective_beta,
            1.2 * 1.25f64.powi(trace.relaxations as i32)
        );
        assert_eq!(
            trace.merges,
            (g.n_categories() - trace.group_masses.len()) as u64
        );
        assert!(trace.group_masses.len() <= g.n_categories());
        assert_eq!(trace.group_masses.iter().sum::<u64>(), g.total_mass());
        // Balance invariant: without forced merges, every multi-category
        // group fits under the effective cap.
        if trace.forced_merges == 0 {
            let cap = trace.effective_cap(g.total_mass(), 4);
            let max_cat = g.mass.iter().copied().max().unwrap_or(0);
            for &m in &trace.group_masses {
                assert!(
                    m <= cap.max(max_cat),
                    "group mass {m} exceeds cap {cap} (max category {max_cat})"
                );
            }
        }
    }

    #[test]
    fn more_workers_than_categories_leaves_no_panic() {
        use sisg_corpus::{ItemId, UserId};
        // Two categories only, eight workers requested.
        let mut c = Corpus::new();
        c.push(UserId(0), &[ItemId(0), ItemId(1)]);
        let gen = corpus();
        let _ = partition_categories(&CategoryGraph::build(&c, &gen.catalog), 8, 1.2, 1.25);
    }
}
