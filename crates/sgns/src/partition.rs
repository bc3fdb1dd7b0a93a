//! Vocabulary ownership for partitioned parallel training.
//!
//! An [`OwnershipPlan`] assigns every token row to exactly one training
//! thread (its *owner*) or to the replicated hot set — the paper's HBGP +
//! ATNS split (Section III), applied intra-process. The partitioned engine
//! (`crate::partitioned`) uses the plan to route every sampled pair to one
//! thread such that the pair's *context* row (and all its negatives, drawn
//! from the owner's local noise distribution) are always thread-local, so
//! the entire output-side update mass runs on the non-atomic kernel path
//! with zero sharing. See docs/PARALLELISM.md for the scaling model.
//!
//! Plans come from [`OwnershipPlan::balanced_by_frequency`]: greedy
//! frequency-mass balancing that ignores co-occurrence structure.

use sisg_corpus::TokenId;

/// Which training thread owns each vocabulary row, plus the replicated hot
/// set. Immutable once built; shared by reference across the training
/// threads.
#[derive(Debug, Clone)]
pub struct OwnershipPlan {
    threads: usize,
    /// Owner of every token (hot tokens keep their owner for routing
    /// fallbacks, but their rows live in the replica bank).
    owners: Vec<u16>,
    /// `slot + 1` of hot tokens, 0 for cold ones (dense branch-free test).
    hot_slot_plus_one: Vec<u32>,
    /// Slot → token of the hot set.
    hot_tokens: Vec<TokenId>,
    /// Cold tokens: row index inside the owner's shard matrices.
    local_index: Vec<u32>,
    /// Per shard: the cold tokens it owns, in local-index order.
    shard_tokens: Vec<Vec<TokenId>>,
}

impl OwnershipPlan {
    /// Builds a plan from an explicit owner vector (`owners[t]` = shard of
    /// token `t`) and a hot-token list. `hot` entries are removed from
    /// their shards and replicated instead.
    ///
    /// # Panics
    /// Panics when `threads == 0`, an owner index is out of range, or `hot`
    /// contains duplicates or out-of-vocabulary tokens.
    fn from_owners(owners: Vec<u16>, threads: usize, hot: Vec<TokenId>) -> Self {
        assert!(threads > 0, "need at least one shard");
        assert!(
            owners.iter().all(|&o| (o as usize) < threads),
            "owner index out of range"
        );
        let n = owners.len();
        let mut hot_slot_plus_one = vec![0u32; n];
        for (slot, &t) in hot.iter().enumerate() {
            assert!(t.index() < n, "hot token {t} out of vocabulary");
            assert_eq!(hot_slot_plus_one[t.index()], 0, "duplicate hot token {t}");
            hot_slot_plus_one[t.index()] = slot as u32 + 1;
        }
        let mut local_index = vec![u32::MAX; n];
        let mut shard_tokens: Vec<Vec<TokenId>> = vec![Vec::new(); threads];
        for i in 0..n {
            if hot_slot_plus_one[i] == 0 {
                let shard = &mut shard_tokens[owners[i] as usize];
                local_index[i] = shard.len() as u32;
                shard.push(TokenId(i as u32));
            }
        }
        Self {
            threads,
            owners,
            hot_slot_plus_one,
            hot_tokens: hot,
            local_index,
            shard_tokens,
        }
    }

    /// The self-contained default plan: the `hot_k` most frequent tokens
    /// are replicated; the remaining tokens are assigned greedily, most
    /// frequent first, to the shard with the least frequency mass (ties by
    /// shard index). Balanced by construction but blind to co-occurrence.
    pub fn balanced_by_frequency(freqs: &[u64], threads: usize, hot_k: usize) -> Self {
        assert!(threads > 0, "need at least one shard");
        let hot = top_k_by_frequency(freqs, hot_k);
        let is_hot = {
            let mut v = vec![false; freqs.len()];
            for &t in &hot {
                v[t.index()] = true;
            }
            v
        };
        // Most frequent first → the greedy bound (max/mean ≤ 1 + max_item/mean)
        // is tightest exactly where it matters, at the head.
        let mut order: Vec<usize> = (0..freqs.len()).filter(|&i| !is_hot[i]).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(freqs[i]), i));
        let mut owners = vec![0u16; freqs.len()];
        let mut load = vec![0u64; threads];
        for i in order {
            let shard = load
                .iter()
                .enumerate()
                .min_by_key(|&(s, &m)| (m, s))
                .map(|(s, _)| s)
                .unwrap_or(0);
            owners[i] = shard as u16;
            load[shard] += freqs[i];
        }
        // Hot tokens keep a deterministic owner for the both-hot routing
        // fallback's modulo to stay meaningful on any shard count.
        Self::from_owners(owners, threads, hot)
    }

    /// Default hot-set size for a vocabulary of `n` tokens: an eighth of
    /// the vocabulary, at least 64 rows (small vocabularies go all-hot,
    /// degenerating to pure replica training with periodic averaging).
    pub fn auto_hot_k(n: usize) -> usize {
        (n / 8).max(64)
    }

    /// Number of shards (training threads) the plan was built for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Vocabulary size.
    pub fn n_tokens(&self) -> usize {
        self.owners.len()
    }

    /// Owner shard of `token`.
    pub fn owner(&self, token: TokenId) -> usize {
        self.owners[token.index()] as usize
    }

    /// Hot-set slot of `token`, `None` when cold.
    #[inline]
    pub fn hot_slot(&self, token: TokenId) -> Option<usize> {
        let s = self.hot_slot_plus_one[token.index()];
        if s == 0 {
            None
        } else {
            Some(s as usize - 1)
        }
    }

    /// True when `token` is in the replicated hot set.
    #[inline]
    pub fn is_hot(&self, token: TokenId) -> bool {
        self.hot_slot_plus_one[token.index()] != 0
    }

    /// Row index of a cold `token` inside its owner's shard matrices.
    ///
    /// # Panics
    /// Panics (in debug builds) when called for a hot token.
    #[inline]
    pub fn local_index(&self, token: TokenId) -> usize {
        let i = self.local_index[token.index()];
        debug_assert_ne!(i, u32::MAX, "local_index of hot token {token}");
        i as usize
    }

    /// The cold tokens shard `s` owns, in local-index order.
    pub fn shard_tokens(&self, s: usize) -> &[TokenId] {
        &self.shard_tokens[s]
    }

    /// The hot set, in slot order.
    pub fn hot_tokens(&self) -> &[TokenId] {
        &self.hot_tokens
    }

    /// True when `token`'s row is writable on shard `s` (hot replica or
    /// owned cold row).
    #[inline]
    pub fn is_local(&self, s: usize, token: TokenId) -> bool {
        self.is_hot(token) || self.owner(token) == s
    }

    /// Routes a pair to its executing shard. The invariant (property-tested
    /// in `tests/partitioned.rs`) is that the *context* is always local on
    /// the routed shard:
    ///
    /// - cold context → its owner (the output update mass stays local);
    /// - hot context, cold target → the target's owner (input row is fresh
    ///   too — the pair is fully local);
    /// - both hot → deterministic spread over all shards.
    ///
    /// The only pairs whose target row is *not* local are cold-target /
    /// cold-context pairs whose owners differ — the partition's cut. Those
    /// train their output side against the canonical input snapshot and
    /// bank the input gradient for delivery to the owner at the next merge
    /// (docs/PARALLELISM.md §3).
    #[inline]
    pub fn route(&self, target: TokenId, context: TokenId) -> usize {
        if !self.is_hot(context) {
            self.owner(context)
        } else if !self.is_hot(target) {
            self.owner(target)
        } else {
            (target.0 as usize + context.0 as usize) % self.threads
        }
    }
}

/// The `k` most frequent tokens with non-zero frequency, ties broken by
/// token id — the ATNS hot-set selection rule over raw counts.
pub fn top_k_by_frequency(freqs: &[u64], k: usize) -> Vec<TokenId> {
    let mut order: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(freqs[i]), i));
    order.truncate(k);
    order.into_iter().map(|i| TokenId(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_token_is_hot_xor_owned_with_a_local_index() {
        let freqs = [9u64, 3, 7, 0, 5, 5, 1, 2];
        let plan = OwnershipPlan::balanced_by_frequency(&freqs, 3, 2);
        let mut seen = vec![false; freqs.len()];
        for s in 0..plan.threads() {
            for (local, &t) in plan.shard_tokens(s).iter().enumerate() {
                assert!(!plan.is_hot(t));
                assert_eq!(plan.owner(t), s);
                assert_eq!(plan.local_index(t), local);
                assert!(!seen[t.index()], "token {t} owned twice");
                seen[t.index()] = true;
            }
        }
        for &t in plan.hot_tokens() {
            assert!(plan.is_hot(t));
            assert!(!seen[t.index()], "hot token {t} also owned");
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "token neither hot nor owned");
    }

    #[test]
    fn top_k_prefers_frequency_then_id_and_skips_zero() {
        let hot = top_k_by_frequency(&[0, 5, 9, 5, 0], 3);
        assert_eq!(hot, vec![TokenId(2), TokenId(1), TokenId(3)]);
        assert_eq!(top_k_by_frequency(&[0, 0], 2), vec![]);
    }

    #[test]
    fn frequency_balancing_spreads_mass() {
        // 4 equal heavy tokens over 2 shards must split 2/2.
        let freqs = [100u64, 100, 100, 100];
        let plan = OwnershipPlan::balanced_by_frequency(&freqs, 2, 0);
        assert_eq!(plan.shard_tokens(0).len(), 2);
        assert_eq!(plan.shard_tokens(1).len(), 2);
    }

    #[test]
    fn routed_context_is_always_local() {
        let freqs = [9u64, 3, 7, 2, 5, 5, 1, 2, 4, 6];
        let plan = OwnershipPlan::balanced_by_frequency(&freqs, 3, 3);
        for t in 0..freqs.len() as u32 {
            for c in 0..freqs.len() as u32 {
                let (t, c) = (TokenId(t), TokenId(c));
                let s = plan.route(t, c);
                assert!(s < plan.threads());
                assert!(plan.is_local(s, c), "context {c} remote on shard {s}");
                // A remote target implies both ends are cold.
                if !plan.is_local(s, t) {
                    assert!(!plan.is_hot(t) && !plan.is_hot(c));
                }
            }
        }
    }

    #[test]
    fn hot_k_larger_than_vocab_goes_all_hot() {
        let freqs = [1u64, 2, 3];
        let plan = OwnershipPlan::balanced_by_frequency(&freqs, 4, 100);
        assert_eq!(plan.hot_tokens().len(), 3);
        for s in 0..4 {
            assert!(plan.shard_tokens(s).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate hot token")]
    fn duplicate_hot_tokens_rejected() {
        let _ = OwnershipPlan::from_owners(vec![0; 4], 1, vec![TokenId(1), TokenId(1)]);
    }

    #[test]
    #[should_panic(expected = "owner index out of range")]
    fn owner_out_of_range_rejected() {
        let _ = OwnershipPlan::from_owners(vec![2; 4], 2, vec![]);
    }
}
