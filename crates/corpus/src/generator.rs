//! Synthetic Taobao-like behavior-sequence generation.
//!
//! We do not have Taobao's click logs, so we generate corpora whose
//! *statistical shape* matches what the paper's machinery depends on:
//!
//! - **Zipfian item popularity** — hot items appear in most sessions, which
//!   is what ATNS's aggressive down-sampling and shared hot set address;
//! - **category-coherent sessions** — "most Taobao users tend to view items
//!   from one leaf category only within one browsing session"
//!   (Section III-B), the observation HBGP exploits; a small cross-category
//!   jump probability provides the edges HBGP must cut;
//! - **asymmetric transitions** — each item carries a funnel *stage*;
//!   transitions prefer stage-ascending targets, so `P(j|i) ≠ P(i|j)`
//!   (Section II-C estimates ~20% of pairs differ significantly);
//! - **informative SI** — transitions prefer items sharing brand / shop /
//!   style / demographics, so SI carries real signal for sparse items;
//! - **informative user types** — a user's category preferences derive from
//!   their user type, so users of one type behave alike.

use crate::catalog::ItemCatalog;
use crate::schema::{ItemFeature, SchemaCardinalities};
use crate::session::Corpus;
use crate::token::{ItemId, LeafCategoryId, UserId};
use crate::users::UserRegistry;
use crate::zipf::{zipf_weights, CumulativeSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a synthetic corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Number of items in the catalog.
    pub n_items: u32,
    /// Number of users.
    pub n_users: u32,
    /// Number of sessions to generate.
    pub n_sessions: u32,
    /// Mean session length (geometric, truncated to `[2, max_session_len]`).
    pub mean_session_len: f64,
    /// Hard cap on session length; the paper notes all training sequences
    /// have a fixed maximal length.
    pub max_session_len: usize,
    /// Zipf exponent of global item popularity.
    pub popularity_exponent: f64,
    /// Acceptance weight of a stage-*descending* (backward) transition
    /// relative to a forward one; `1.0` disables asymmetry, `0.0` makes
    /// sessions strictly stage-ascending.
    pub backward_acceptance: f64,
    /// Extra acceptance weight per shared SI value beyond the category-level
    /// features; `0.0` makes SI uninformative.
    pub si_affinity: f64,
    /// Extra acceptance weight when an item's buyer demographics match the
    /// session user's demographics.
    pub demo_affinity: f64,
    /// Probability of jumping to a related leaf category between two clicks.
    pub cross_category_prob: f64,
    /// Probability that a session's category comes from the user *type*'s
    /// preferred categories (the signal the `-U` variants exploit); the
    /// remainder splits 2:1 between the user's personal category and
    /// exploration.
    pub type_pref_prob: f64,
    /// Number of behavioral tag kinds for user types.
    pub tag_kinds: usize,
    /// Number of preferred leaf categories per user type.
    pub prefs_per_type: usize,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
}

impl CorpusConfig {
    /// A tiny corpus for unit tests (hundreds of items, thousands of clicks).
    pub fn tiny() -> Self {
        Self {
            n_items: 400,
            n_users: 300,
            n_sessions: 1_500,
            mean_session_len: 7.0,
            max_session_len: 40,
            popularity_exponent: 1.05,
            backward_acceptance: 0.25,
            si_affinity: 0.35,
            demo_affinity: 0.3,
            cross_category_prob: 0.08,
            type_pref_prob: 0.7,
            tag_kinds: 10,
            prefs_per_type: 3,
            seed: 42,
        }
    }

    /// A corpus of `n_items` items with Table II-like ratios: roughly
    /// 100 clicks per item (so enriched token counts land near the paper's
    /// ~900 tokens per item once 8 SI tokens are injected per click).
    pub fn scaled(n_items: u32, seed: u64) -> Self {
        let clicks_target = n_items as u64 * 100;
        let mean_len = 8.0;
        Self {
            n_items,
            n_users: (n_items / 2).max(100),
            n_sessions: (clicks_target as f64 / mean_len).ceil() as u32,
            mean_session_len: mean_len,
            max_session_len: 50,
            popularity_exponent: 1.05,
            backward_acceptance: 0.15,
            si_affinity: 0.35,
            demo_affinity: 0.3,
            cross_category_prob: 0.08,
            type_pref_prob: 0.8,
            tag_kinds: 12,
            prefs_per_type: 3,
            seed,
        }
    }
}

/// A generated corpus bundle: sessions plus the catalogs they reference.
#[derive(Debug, Clone)]
pub struct GeneratedCorpus {
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
    /// Item side information.
    pub catalog: ItemCatalog,
    /// Users and user types.
    pub users: UserRegistry,
    /// The behavior sequences.
    pub sessions: Corpus,
}

/// The synthetic workload generator.
#[derive(Debug)]
pub struct Generator {
    config: CorpusConfig,
    catalog: ItemCatalog,
    users: UserRegistry,
    /// Global popularity weight per item.
    popularity: Vec<f64>,
    /// Per-leaf-category popularity sampler over member items.
    cat_samplers: Vec<Option<CumulativeSampler>>,
    /// Per-leaf-category related categories (for cross-category jumps).
    related: Vec<Vec<LeafCategoryId>>,
    /// Per-user-type preferred categories.
    type_prefs: Vec<Vec<LeafCategoryId>>,
    /// Per-user personal extra category.
    user_extra: Vec<LeafCategoryId>,
}

impl Generator {
    /// Builds catalog, users and sampling structures for `config`.
    pub fn new(config: CorpusConfig) -> Self {
        let cards = SchemaCardinalities::for_items(config.n_items);
        let catalog = ItemCatalog::generate(config.n_items, cards, config.seed);
        let users = UserRegistry::generate(config.n_users, config.tag_kinds, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x6E6E_7261);

        // Global item popularity: Zipf over a random permutation of items, so
        // popularity is independent of id order and category.
        let n = config.n_items as usize;
        let weights = zipf_weights(n, config.popularity_exponent);
        let mut perm: Vec<usize> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut popularity = vec![0.0; n];
        for (rank, &item) in perm.iter().enumerate() {
            popularity[item] = weights[rank];
        }

        let n_leaf = catalog.n_leaf_categories();
        let cat_samplers: Vec<Option<CumulativeSampler>> = (0..n_leaf)
            .map(|l| {
                let items = catalog.items_in_category(LeafCategoryId(l));
                if items.is_empty() {
                    None
                } else {
                    let w: Vec<f64> = items.iter().map(|it| popularity[it.index()]).collect();
                    Some(CumulativeSampler::new(&w))
                }
            })
            .collect();

        // Related categories: prefer siblings under the same top-level
        // category, fall back to arbitrary ones.
        let nonempty: Vec<LeafCategoryId> = (0..n_leaf)
            .map(LeafCategoryId)
            .filter(|&l| !catalog.items_in_category(l).is_empty())
            .collect();
        let related = (0..n_leaf)
            .map(|l| {
                let leaf = LeafCategoryId(l);
                let top = catalog.top_level_of(leaf);
                let mut siblings: Vec<LeafCategoryId> = nonempty
                    .iter()
                    .copied()
                    .filter(|&o| o != leaf && catalog.top_level_of(o) == top)
                    .collect();
                while siblings.len() < 3 && siblings.len() < nonempty.len().saturating_sub(1) {
                    let cand = nonempty[rng.gen_range(0..nonempty.len())];
                    if cand != leaf && !siblings.contains(&cand) {
                        siblings.push(cand);
                    }
                }
                siblings.truncate(4);
                siblings
            })
            .collect();

        // Category preferences per user type. Preferences are anchored in
        // the type's *demographics*: every (gender, age) cell owns a pool of
        // categories, and a type draws most of its preferences from its
        // cell's pool. This is what gives Figures 4/5 their structure —
        // female and male user types (and age groups within them) behave
        // differently, so their embeddings separate.
        let n_cells = 3 * crate::schema::AGE_BUCKETS.len();
        let cell_pools: Vec<Vec<LeafCategoryId>> = (0..n_cells)
            .map(|cell| {
                let mut c_rng =
                    StdRng::seed_from_u64(config.seed ^ (cell as u64).wrapping_mul(0xBEEF_CAFE));
                let pool_size = 6.min(nonempty.len());
                (0..pool_size)
                    .map(|_| nonempty[c_rng.gen_range(0..nonempty.len())])
                    .collect()
            })
            .collect();
        let type_prefs = (0..users.n_user_types())
            .map(|t| {
                let key = users.type_key(crate::token::UserTypeId(t));
                let cell =
                    key.gender as usize * crate::schema::AGE_BUCKETS.len() + key.age as usize;
                let pool = &cell_pools[cell];
                let mut t_rng =
                    StdRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0x51_7CC1));
                (0..config.prefs_per_type)
                    .map(|_| {
                        if t_rng.gen_bool(0.8) && !pool.is_empty() {
                            pool[t_rng.gen_range(0..pool.len())]
                        } else {
                            nonempty[t_rng.gen_range(0..nonempty.len())]
                        }
                    })
                    .collect()
            })
            .collect();
        let user_extra = (0..config.n_users)
            .map(|_| nonempty[rng.gen_range(0..nonempty.len())])
            .collect();

        Self {
            config,
            catalog,
            users,
            popularity,
            cat_samplers,
            related,
            type_prefs,
            user_extra,
        }
    }

    /// The generated item catalog.
    pub fn catalog(&self) -> &ItemCatalog {
        &self.catalog
    }

    /// The generated user registry.
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }

    /// Global popularity weight of an item.
    pub fn popularity(&self, item: ItemId) -> f64 {
        self.popularity[item.index()]
    }

    /// Generates the full corpus.
    pub fn generate(self) -> GeneratedCorpus {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5E55_0000);
        let total_clicks = (self.config.n_sessions as f64 * self.config.mean_session_len) as usize;
        let mut sessions = Corpus::with_capacity(self.config.n_sessions as usize, total_clicks);
        let mut buf: Vec<ItemId> = Vec::with_capacity(self.config.max_session_len);
        for _ in 0..self.config.n_sessions {
            let user = UserId(rng.gen_range(0..self.config.n_users));
            self.generate_session(user, &mut rng, &mut buf);
            sessions.push(user, &buf);
        }
        GeneratedCorpus {
            config: self.config,
            catalog: self.catalog,
            users: self.users,
            sessions,
        }
    }

    /// Generates one session for `user` into `out`.
    fn generate_session(&self, user: UserId, rng: &mut StdRng, out: &mut Vec<ItemId>) {
        out.clear();
        let len = self.session_length(rng);
        let mut category = self.pick_session_category(user, rng);
        let user_demo = self.users.demographics_cross(self.users.user_type(user));

        let mut current = self.sample_from_category(category, rng);
        out.push(current);
        while out.len() < len {
            if rng.gen_bool(self.config.cross_category_prob) {
                if let Some(next_cat) = self.pick_related_category(category, rng) {
                    category = next_cat;
                    current = self.sample_from_category(category, rng);
                    out.push(current);
                    continue;
                }
            }
            current = self.sample_transition(current, category, user_demo, rng);
            out.push(current);
        }
    }

    /// Truncated geometric session length in `[2, max_session_len]`.
    fn session_length(&self, rng: &mut StdRng) -> usize {
        let p = 1.0 / (self.config.mean_session_len - 1.0).max(1.0);
        let mut len = 2;
        while len < self.config.max_session_len && rng.gen::<f64>() > p {
            len += 1;
        }
        len
    }

    fn pick_session_category(&self, user: UserId, rng: &mut StdRng) -> LeafCategoryId {
        let prefs = &self.type_prefs[self.users.user_type(user).index()];
        let u: f64 = rng.gen();
        let personal_cut = self.config.type_pref_prob + (1.0 - self.config.type_pref_prob) * 0.67;
        if u < self.config.type_pref_prob && !prefs.is_empty() {
            prefs[rng.gen_range(0..prefs.len())]
        } else if u < personal_cut {
            self.user_extra[user.index()]
        } else {
            // Exploration: any non-empty category, popularity-agnostic.
            loop {
                let l = LeafCategoryId(rng.gen_range(0..self.catalog.n_leaf_categories()));
                if !self.catalog.items_in_category(l).is_empty() {
                    return l;
                }
            }
        }
    }

    fn pick_related_category(
        &self,
        category: LeafCategoryId,
        rng: &mut StdRng,
    ) -> Option<LeafCategoryId> {
        let rel = &self.related[category.index()];
        if rel.is_empty() {
            None
        } else {
            Some(rel[rng.gen_range(0..rel.len())])
        }
    }

    /// Draws an item from a category proportionally to global popularity.
    fn sample_from_category(&self, category: LeafCategoryId, rng: &mut StdRng) -> ItemId {
        let sampler = self.cat_samplers[category.index()]
            .as_ref()
            .expect("session category must be non-empty");
        self.catalog.items_in_category(category)[sampler.sample(rng)]
    }

    /// Samples the next click after `current` via popularity-proposal +
    /// affinity-acceptance. The acceptance weight combines the forward-stage
    /// bias (asymmetry), SI overlap, and demographic match.
    fn sample_transition(
        &self,
        current: ItemId,
        category: LeafCategoryId,
        user_demo: u32,
        rng: &mut StdRng,
    ) -> ItemId {
        const MAX_TRIES: usize = 24;
        let mut fallback = current;
        for _ in 0..MAX_TRIES {
            let cand = self.sample_from_category(category, rng);
            if cand == current {
                continue;
            }
            fallback = cand;
            // Small-step cyclic walk: the preferred next click sits a short
            // stage-step ahead. Short steps keep multi-hop context pairs
            // (what a skip-gram window actually samples) on the *forward*
            // half-circle, so `ItemCatalog::is_forward` stays consistent
            // between 1-hop transitions and window-of-3 co-occurrences.
            let delta =
                (self.catalog.stage(cand) - self.catalog.stage(current)).rem_euclid(1.0) as f64;
            let mut w = if delta > 0.0 && delta < 0.2 {
                1.0
            } else if delta >= 0.8 {
                self.config.backward_acceptance
            } else {
                0.05
            };
            // Count SI shared beyond what the whole category shares
            // (top-level + leaf), i.e. shop / city / brand / style /
            // material / demographics.
            let extra = self.catalog.si_overlap(current, cand).saturating_sub(2);
            w *= 1.0 + self.config.si_affinity * extra as f64;
            let demo_slot = ItemFeature::AgeGenderPurchaseLevel.slot();
            if self.catalog.si_values(cand)[demo_slot] == user_demo {
                w *= 1.0 + self.config.demo_affinity;
            }
            // Normalize acceptance by a *typical* maximum (items rarely share
            // more than two extra SI values), clamped to 1. A loose bound
            // here would make per-try acceptance so small that the
            // try-budget fallback — which ignores direction — would dominate
            // and wash out the forward-stage asymmetry.
            let w_max = (1.0 + self.config.si_affinity * 2.0) * (1.0 + self.config.demo_affinity);
            if rng.gen::<f64>() < (w / w_max).min(1.0) {
                return cand;
            }
        }
        fallback
    }
}

impl GeneratedCorpus {
    /// Convenience: generate in one call.
    ///
    /// ```
    /// use sisg_corpus::{CorpusConfig, GeneratedCorpus};
    ///
    /// let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    /// assert_eq!(corpus.sessions.len() as u32, corpus.config.n_sessions);
    /// assert!(corpus.users.n_user_types() > 0);
    /// ```
    pub fn generate(config: CorpusConfig) -> Self {
        Generator::new(config).generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tiny() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    #[test]
    fn generates_requested_shape() {
        let g = tiny();
        assert_eq!(g.sessions.len() as u32, g.config.n_sessions);
        for s in g.sessions.iter() {
            assert!(s.len() >= 2, "sessions must have at least two clicks");
            assert!(s.len() <= g.config.max_session_len);
            assert!(s.user.0 < g.config.n_users);
            for it in s.items {
                assert!(it.0 < g.config.n_items);
            }
        }
    }

    #[test]
    fn sessions_are_category_coherent() {
        let g = tiny();
        let mut same = 0u64;
        let mut total = 0u64;
        for s in g.sessions.iter() {
            for w in s.items.windows(2) {
                total += 1;
                if g.catalog.leaf_category(w[0]) == g.catalog.leaf_category(w[1]) {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(
            frac > 0.8,
            "most transitions should stay in one leaf category, got {frac}"
        );
        assert!(frac < 1.0, "some cross-category jumps must exist for HBGP");
    }

    #[test]
    fn popularity_is_skewed() {
        let g = tiny();
        let mut counts: HashMap<ItemId, u64> = HashMap::new();
        for s in g.sessions.iter() {
            for &it in s.items {
                *counts.entry(it).or_default() += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = freqs.iter().sum();
        let top1pct: u64 = freqs.iter().take(freqs.len().div_ceil(100)).sum();
        assert!(
            top1pct as f64 / total as f64 > 0.05,
            "top-1% items should be disproportionately hot"
        );
    }

    #[test]
    fn transitions_are_asymmetric() {
        let g = tiny();
        let mut forward: HashMap<(ItemId, ItemId), u64> = HashMap::new();
        for s in g.sessions.iter() {
            for w in s.items.windows(2) {
                *forward.entry((w[0], w[1])).or_default() += 1;
            }
        }
        // Among ordered pairs seen often in at least one direction, a solid
        // fraction should be strongly one-directional.
        let mut asymmetric = 0u64;
        let mut considered = 0u64;
        for (&(a, b), &f) in &forward {
            if a >= b {
                continue;
            }
            let r = forward.get(&(b, a)).copied().unwrap_or(0);
            if f + r >= 5 {
                considered += 1;
                let hi = f.max(r) as f64;
                let lo = f.min(r) as f64;
                if hi >= 2.0 * lo.max(1.0) {
                    asymmetric += 1;
                }
            }
        }
        assert!(considered > 20, "need enough frequent pairs to measure");
        let frac = asymmetric as f64 / considered as f64;
        assert!(
            frac > 0.15,
            "expected a significant fraction of asymmetric pairs, got {frac}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.sessions.total_clicks(), b.sessions.total_clicks());
        for i in 0..a.sessions.len() {
            assert_eq!(a.sessions.session(i).items, b.sessions.session(i).items);
        }
    }

    #[test]
    fn scaled_config_hits_click_target() {
        let c = CorpusConfig::scaled(10_000, 1);
        let expected = 10_000u64 * 100;
        let planned = (c.n_sessions as f64 * c.mean_session_len) as u64;
        assert!(
            planned.abs_diff(expected) < expected / 10,
            "planned {planned} clicks should be within 10% of {expected}"
        );
    }
}
