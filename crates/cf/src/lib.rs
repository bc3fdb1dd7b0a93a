//! Item-to-item collaborative filtering — the "well-tuned CF" baseline.
//!
//! The paper's online A/B test (Figure 3) compares SISG against the
//! production CF engine, which follows the classic Amazon item-to-item
//! recipe [Linden et al. 2003] over co-occurrence in user behavior
//! sequences, with the tunings that matter in practice:
//!
//! - **windowed co-occurrence** — only items clicked within `window` steps
//!   of each other count as co-occurring;
//! - **session-length damping** — a pair observed in a long browsing spree
//!   carries less evidence than one in a short focused session
//!   (weight `1 / log2(2 + len)`);
//! - **cosine normalization with popularity damping** — raw counts are
//!   normalized by `(c_i · c_j)^λ` with tunable `λ` so hot items do not
//!   dominate every similarity list.
//!
//! The model stores the full top-`max_neighbors` similarity lists, which is
//! exactly the artifact the production matching stage serves.

use sisg_corpus::{Corpus, ItemId};
use std::collections::HashMap;

/// Tunables of the CF baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CfConfig {
    /// Co-occurrence window in clicks.
    pub window: usize,
    /// Popularity-damping exponent `λ`; `0.5` is classic cosine.
    pub damping: f64,
    /// Down-weight long sessions when `true`.
    pub session_damping: bool,
    /// Neighbors retained per item.
    pub max_neighbors: usize,
}

impl Default for CfConfig {
    fn default() -> Self {
        Self {
            window: 5,
            damping: 0.5,
            session_damping: true,
            max_neighbors: 200,
        }
    }
}

/// A scored similar item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// The similar item.
    pub item: ItemId,
    /// Similarity score, higher is better.
    pub score: f32,
}

/// A trained item-to-item CF model: per-item top-K similarity lists.
#[derive(Debug, Clone)]
pub struct CfModel {
    neighbors: Vec<Vec<ScoredItem>>,
}

impl CfModel {
    /// Trains on `corpus`, which must only reference items `< n_items`.
    ///
    /// ```
    /// use sisg_cf::{CfConfig, CfModel};
    /// use sisg_corpus::{Corpus, ItemId, UserId};
    ///
    /// let mut sessions = Corpus::new();
    /// sessions.push(UserId(0), &[ItemId(0), ItemId(1), ItemId(2)]);
    /// sessions.push(UserId(1), &[ItemId(0), ItemId(1)]);
    /// let cf = CfModel::train(&sessions, 3, &CfConfig::default());
    /// assert_eq!(cf.similar(ItemId(0), 1)[0].item, ItemId(1));
    /// ```
    pub fn train(corpus: &Corpus, n_items: u32, config: &CfConfig) -> Self {
        assert!(config.window > 0, "window must be positive");
        let n = n_items as usize;
        let mut item_count = vec![0.0f64; n];
        // Per-item sparse co-occurrence accumulators.
        let mut cooc: Vec<HashMap<u32, f64>> = vec![HashMap::new(); n];

        for session in corpus.iter() {
            let items = session.items;
            let w = if config.session_damping {
                1.0 / (2.0 + items.len() as f64).log2()
            } else {
                1.0
            };
            for (i, &a) in items.iter().enumerate() {
                item_count[a.index()] += w;
                let end = (i + 1 + config.window).min(items.len());
                for &b in &items[i + 1..end] {
                    if a == b {
                        continue;
                    }
                    // Symmetric accumulation: CF ignores click order — one of
                    // the deficiencies SISG's directional modeling fixes.
                    *cooc[a.index()].entry(b.0).or_default() += w;
                    *cooc[b.index()].entry(a.0).or_default() += w;
                }
            }
        }

        let mut neighbors: Vec<Vec<ScoredItem>> = Vec::with_capacity(n);
        for a in 0..n {
            let mut list: Vec<ScoredItem> = cooc[a]
                .iter()
                .map(|(&b, &c)| {
                    let denom = (item_count[a] * item_count[b as usize])
                        .max(f64::MIN_POSITIVE)
                        .powf(config.damping);
                    ScoredItem {
                        item: ItemId(b),
                        score: (c / denom) as f32,
                    }
                })
                .collect();
            list.sort_by(|x, y| {
                y.score
                    .partial_cmp(&x.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| x.item.0.cmp(&y.item.0))
            });
            list.truncate(config.max_neighbors);
            neighbors.push(list);
        }
        Self { neighbors }
    }

    /// Number of items the model covers.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.neighbors.len()
    }

    /// The top-`k` items most similar to `item` (fewer when the item has a
    /// short neighbor list; empty for items never observed).
    pub fn similar(&self, item: ItemId, k: usize) -> &[ScoredItem] {
        let list = &self.neighbors[item.index()];
        &list[..k.min(list.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_corpus::UserId;

    fn items(raw: &[u32]) -> Vec<ItemId> {
        raw.iter().copied().map(ItemId).collect()
    }

    fn corpus(sessions: &[&[u32]]) -> Corpus {
        let mut c = Corpus::new();
        for (u, s) in sessions.iter().enumerate() {
            c.push(UserId(u as u32), &items(s));
        }
        c
    }

    #[test]
    fn cooccurring_items_are_similar() {
        let c = corpus(&[&[0, 1, 2], &[0, 1, 3], &[0, 1, 2]]);
        let m = CfModel::train(&c, 4, &CfConfig::default());
        let sim = m.similar(ItemId(0), 1);
        assert_eq!(sim[0].item, ItemId(1), "0 and 1 always co-occur");
    }

    #[test]
    fn similarity_is_symmetric_in_rank() {
        let c = corpus(&[&[0, 1], &[0, 1], &[2, 3]]);
        let m = CfModel::train(&c, 4, &CfConfig::default());
        assert_eq!(m.similar(ItemId(0), 1)[0].item, ItemId(1));
        assert_eq!(m.similar(ItemId(1), 1)[0].item, ItemId(0));
        let s01 = m.similar(ItemId(0), 1)[0].score;
        let s10 = m.similar(ItemId(1), 1)[0].score;
        assert!((s01 - s10).abs() < 1e-6, "CF cannot express asymmetry");
    }

    #[test]
    fn window_limits_cooccurrence() {
        let c = corpus(&[&[0, 9, 9, 9, 9, 9, 1]]);
        let cfg = CfConfig {
            window: 2,
            ..Default::default()
        };
        let m = CfModel::train(&c, 10, &cfg);
        assert!(
            m.similar(ItemId(0), 10).iter().all(|s| s.item != ItemId(1)),
            "items 6 apart must not co-occur with window 2"
        );
    }

    #[test]
    fn unseen_items_are_cold() {
        let c = corpus(&[&[0, 1]]);
        let m = CfModel::train(&c, 5, &CfConfig::default());
        assert!(m.similar(ItemId(4), 10).is_empty());
    }

    #[test]
    fn damping_tames_hot_items() {
        // Item 9 co-occurs with everything (hot); item 2 co-occurs with 0
        // exclusively. With cosine damping, 2 should beat 9 for item 0.
        let mut sessions: Vec<Vec<u32>> = vec![vec![0, 2], vec![0, 2], vec![0, 2]];
        for other in [1u32, 3, 4, 5, 6, 7] {
            for _ in 0..3 {
                sessions.push(vec![other, 9]);
            }
        }
        sessions.push(vec![0, 9]);
        sessions.push(vec![0, 9]);
        sessions.push(vec![0, 9]);
        let c = corpus(&sessions.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
        let m = CfModel::train(&c, 10, &CfConfig::default());
        let top = m.similar(ItemId(0), 1)[0];
        assert_eq!(
            top.item,
            ItemId(2),
            "damped CF must prefer the exclusive partner"
        );
    }

    #[test]
    fn max_neighbors_truncates() {
        let c = corpus(&[&[0, 1, 2, 3, 4, 5]]);
        let cfg = CfConfig {
            max_neighbors: 2,
            ..Default::default()
        };
        let m = CfModel::train(&c, 6, &cfg);
        assert!(m.similar(ItemId(0), 100).len() <= 2);
    }

    #[test]
    fn session_damping_downweights_long_sessions() {
        // Pair (0,1) appears once in a short session; pair (2,3) once in a
        // long one. With session damping the short-session pair scores
        // higher despite equal raw co-occurrence.
        let mut sessions: Vec<Vec<u32>> = vec![vec![0, 1]];
        let mut long = vec![2, 3];
        long.extend(std::iter::repeat_n(9, 20));
        sessions.push(long);
        let c = corpus(&sessions.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
        // Use raw counts (damping = 0) so the cosine denominator does not
        // cancel the session weight for pairs seen in a single session.
        let cfg = CfConfig {
            damping: 0.0,
            ..Default::default()
        };
        let damped = CfModel::train(&c, 10, &cfg);
        let score = |m: &CfModel, a: u32, b: u32| {
            m.similar(ItemId(a), 10)
                .iter()
                .find(|s| s.item == ItemId(b))
                .map(|s| s.score)
                .unwrap()
        };
        assert!(
            score(&damped, 0, 1) > score(&damped, 2, 3),
            "short-session evidence must outweigh long-session evidence"
        );
        let undamped = CfModel::train(
            &c,
            10,
            &CfConfig {
                damping: 0.0,
                session_damping: false,
                ..Default::default()
            },
        );
        assert!(
            (score(&undamped, 0, 1) - score(&undamped, 2, 3)).abs() < 1e-6,
            "without session damping both pairs carry equal evidence"
        );
    }

    #[test]
    fn zero_damping_is_raw_counts() {
        let c = corpus(&[&[0, 1], &[0, 1], &[0, 2]]);
        let cfg = CfConfig {
            damping: 0.0,
            session_damping: false,
            ..Default::default()
        };
        let m = CfModel::train(&c, 3, &cfg);
        let top = m.similar(ItemId(0), 2);
        assert_eq!(top[0].item, ItemId(1));
        assert!(
            (top[0].score - 2.0).abs() < 1e-6,
            "raw count expected, got {}",
            top[0].score
        );
        assert!((top[1].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn window_one_only_adjacent() {
        let c = corpus(&[&[0, 1, 2]]);
        let cfg = CfConfig {
            window: 1,
            ..Default::default()
        };
        let m = CfModel::train(&c, 3, &cfg);
        assert!(m.similar(ItemId(0), 10).iter().all(|s| s.item != ItemId(2)));
    }

    #[test]
    fn repeated_item_in_session_not_self_similar() {
        let c = corpus(&[&[0, 0, 1]]);
        let m = CfModel::train(&c, 2, &CfConfig::default());
        assert!(m.similar(ItemId(0), 10).iter().all(|s| s.item != ItemId(0)));
    }
}
