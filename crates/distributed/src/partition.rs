//! Token-to-worker assignment.
//!
//! Stage 3 of the training pipeline (Section III-C): the dictionary is
//! partitioned into `(P_1, …, P_w)`. Items are placed by a [`Partitioner`]
//! (HBGP in production, hashing as the baseline); SI instances and user
//! types are assigned randomly, since the hot ones live in the shared set
//! `Q` anyway.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, ItemCatalog, TokenId};

/// Which worker owns each token.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    owner: Vec<u16>,
    n_partitions: usize,
}

impl PartitionMap {
    /// Builds a map from an explicit ownership vector.
    ///
    /// # Panics
    /// Panics if any owner index is out of range.
    pub fn new(owner: Vec<u16>, n_partitions: usize) -> Self {
        assert!(n_partitions > 0, "need at least one partition");
        assert!(
            owner.iter().all(|&o| (o as usize) < n_partitions),
            "owner index out of range"
        );
        Self {
            owner,
            n_partitions,
        }
    }

    /// The worker owning `token`.
    #[inline]
    pub fn owner(&self, token: TokenId) -> usize {
        self.owner[token.index()] as usize
    }

    /// Number of tokens covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when the map covers no tokens.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// The raw ownership vector (one entry per token), e.g. for
    /// checkpointing the stage-3 artifact.
    #[inline]
    pub fn owners(&self) -> &[u16] {
        &self.owner
    }

    /// Tokens owned by each partition.
    pub fn members(&self) -> Vec<Vec<TokenId>> {
        let mut m: Vec<Vec<TokenId>> = vec![Vec::new(); self.n_partitions];
        for (i, &o) in self.owner.iter().enumerate() {
            m[o as usize].push(TokenId(i as u32));
        }
        m
    }

    /// Per-partition total frequency mass under `freqs` — the load-balance
    /// measure HBGP optimizes ("the overall frequency of all items in each
    /// worker should be about the same"). `freqs` may be shorter than the
    /// token space (e.g. item frequencies only); tokens beyond its end
    /// count zero mass, so item-load imbalance can be computed on a map
    /// covering the full dictionary.
    pub fn load(&self, freqs: &[u64]) -> Vec<u64> {
        let mut load = vec![0u64; self.n_partitions];
        for (i, &o) in self.owner.iter().enumerate() {
            load[o as usize] += freqs.get(i).copied().unwrap_or(0);
        }
        load
    }

    /// Max-to-mean load ratio (1.0 = perfectly balanced).
    pub fn imbalance(&self, freqs: &[u64]) -> f64 {
        let load = self.load(freqs);
        let total: u64 = load.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / self.n_partitions as f64;
        let max = *load.iter().max().expect("non-empty") as f64;
        max / mean
    }

    /// Fraction of adjacent-click transition weight crossing partitions —
    /// the communication proxy HBGP minimizes.
    pub fn cut_fraction(&self, sessions: &Corpus) -> f64 {
        let mut cut = 0u64;
        let mut total = 0u64;
        for s in sessions.iter() {
            for w in s.items.windows(2) {
                total += 1;
                if self.owner(TokenId(w[0].0)) != self.owner(TokenId(w[1].0)) {
                    cut += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        }
    }
}

/// A strategy assigning *items* to workers. The full token map is derived
/// by [`assign_all`].
pub trait Partitioner {
    /// Returns the owner of every item (`items[i]` = owner of item `i`).
    fn assign_items(
        &self,
        sessions: &Corpus,
        catalog: &ItemCatalog,
        n_items: u32,
        workers: usize,
    ) -> Vec<u16>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Round-robin-by-id baseline: the "no smart partitioning" comparison for
/// the HBGP ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn assign_items(
        &self,
        _sessions: &Corpus,
        _catalog: &ItemCatalog,
        n_items: u32,
        workers: usize,
    ) -> Vec<u16> {
        (0..n_items)
            .map(|i| (i as usize % workers) as u16)
            .collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Builds the full token partition map: items by `partitioner`, SI and user
/// types uniformly at random (pipeline stage 3).
pub fn assign_all(
    partitioner: &dyn Partitioner,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    space: &TokenSpace,
    workers: usize,
    seed: u64,
) -> PartitionMap {
    let items = partitioner.assign_items(sessions, catalog, space.n_items(), workers);
    assert_eq!(items.len(), space.n_items() as usize);
    let mut owner = Vec::with_capacity(space.len());
    owner.extend_from_slice(&items);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A27);
    for _ in space.n_items() as usize..space.len() {
        owner.push(rng.gen_range(0..workers) as u16);
    }
    PartitionMap::new(owner, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::schema::SchemaCardinalities;
    use sisg_corpus::{CorpusConfig, GeneratedCorpus};

    #[test]
    fn hash_partitioner_round_robins() {
        let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
        let items =
            HashPartitioner.assign_items(&gen.sessions, &gen.catalog, gen.config.n_items, 4);
        assert_eq!(items[0], 0);
        assert_eq!(items[1], 1);
        assert_eq!(items[5], 1);
    }

    #[test]
    fn assign_all_covers_whole_space() {
        let gen = GeneratedCorpus::generate(CorpusConfig::tiny());
        let space = TokenSpace::new(
            gen.config.n_items,
            &SchemaCardinalities::for_items(gen.config.n_items),
            gen.users.n_user_types(),
        );
        let map = assign_all(&HashPartitioner, &gen.sessions, &gen.catalog, &space, 4, 7);
        assert_eq!(map.len(), space.len());
        let members = map.members();
        assert_eq!(members.len(), 4);
        assert!(members.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn load_and_imbalance() {
        let map = PartitionMap::new(vec![0, 0, 1], 2);
        let freqs = [5u64, 5, 10];
        assert_eq!(map.load(&freqs), vec![10, 10]);
        assert!((map.imbalance(&freqs) - 1.0).abs() < 1e-9);
        let skewed = PartitionMap::new(vec![0, 0, 0], 2);
        assert!((skewed.imbalance(&freqs) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn load_accepts_short_freq_slices() {
        let map = PartitionMap::new(vec![0, 1, 0, 1], 2);
        // Only the first two tokens have known frequencies.
        let load = map.load(&[10, 20]);
        assert_eq!(load, vec![10, 20]);
        assert!((map.imbalance(&[10, 20]) - 20.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn cut_fraction_counts_cross_partition_transitions() {
        use sisg_corpus::{ItemId, UserId};
        let mut c = Corpus::new();
        c.push(UserId(0), &[ItemId(0), ItemId(1), ItemId(2)]);
        // 0,1 on worker 0; 2 on worker 1 → one of two transitions crosses.
        let map = PartitionMap::new(vec![0, 0, 1], 2);
        assert!((map.cut_fraction(&c) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "owner index out of range")]
    fn out_of_range_owner_rejected() {
        let _ = PartitionMap::new(vec![0, 3], 2);
    }
}
