//! Window pair sampling and frequency subsampling.
//!
//! Positive pairs `(v_i, v_j)` are drawn from a window around each target
//! (Section II-A). SISG's directional variants restrict sampling to the
//! *right* context window only (Section II-C: "we thus sample skip-grams
//! only from the right context window of every element in a sequence").
//! Very frequent tokens are subsampled per Mikolov et al. — the paper notes
//! this is applied "aggressively" to frequent SI tokens (Section III-A).

use rand::Rng;
use sisg_corpus::TokenId;

/// Whether pairs come from both sides of the target or only its right
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Classic word2vec window `{v_{i+j} | -m ≤ j ≤ m, j ≠ 0}`.
    Symmetric,
    /// Right context only — the `-D` (directional) variants.
    RightOnly,
}

/// Per-token keep probabilities for Mikolov subsampling.
///
/// A token with corpus frequency ratio `f` is kept with probability
/// `min(1, sqrt(t/f) + t/f)` — the formula used by the original word2vec
/// code (its discard rule rearranged).
#[derive(Debug, Clone)]
pub struct SubsampleTable {
    keep: Vec<f32>,
}

impl SubsampleTable {
    /// Builds keep probabilities from corpus frequencies with threshold `t`.
    /// `t <= 0` disables subsampling (all probabilities are 1).
    pub fn new(freqs: &[u64], threshold: f64) -> Self {
        let total: u64 = freqs.iter().sum();
        let keep = if threshold <= 0.0 || total == 0 {
            vec![1.0; freqs.len()]
        } else {
            freqs
                .iter()
                .map(|&c| {
                    if c == 0 {
                        1.0
                    } else {
                        let f = c as f64 / total as f64;
                        let p = (threshold / f).sqrt() + threshold / f;
                        p.min(1.0) as f32
                    }
                })
                .collect()
        };
        Self { keep }
    }

    /// Multiplies the keep probability of the given tokens by `factor` —
    /// the "aggressive down-sampling of high-frequency words" of ATNS
    /// (Section III-A) applies an extra factor to the shared hot set.
    pub fn scale_tokens(&mut self, tokens: &[TokenId], factor: f32) {
        for t in tokens {
            self.keep[t.index()] = (self.keep[t.index()] * factor).clamp(0.0, 1.0);
        }
    }

    /// Keep probability of `token`.
    #[inline]
    pub fn keep_prob(&self, token: TokenId) -> f32 {
        self.keep[token.index()]
    }

    /// Copies the surviving tokens of `seq` into `out` (cleared first):
    /// each occurrence is kept with its token's probability, one draw from
    /// `rng` per occurrence whose probability is below 1.
    pub fn filter_into<R: Rng + ?Sized>(
        &self,
        seq: &[TokenId],
        rng: &mut R,
        out: &mut Vec<TokenId>,
    ) {
        out.clear();
        out.extend(seq.iter().copied().filter(|&t| {
            let p = self.keep[t.index()];
            p >= 1.0 || rng.gen::<f32>() < p
        }));
    }
}

/// Window pair sampler. The window is fixed, not shrunk per target as in
/// word2vec: the paper sets it large enough that "all possible pairs per
/// sequence are sampled" (Section III-C).
#[derive(Debug, Clone, Copy)]
pub struct PairSampler {
    /// Window half-width `m`.
    pub window: usize,
    /// Symmetric or right-only windows.
    pub mode: WindowMode,
}

impl PairSampler {
    /// Collects the pairs of `seq` whose target passes `keep` into `out`
    /// (cleared first), target by target in sequence order, each target's
    /// left context before its right; a rejected target costs one call of
    /// `keep` and builds no window.
    pub fn pairs_where_into(
        &self,
        seq: &[TokenId],
        mut keep: impl FnMut(TokenId) -> bool,
        out: &mut Vec<(TokenId, TokenId)>,
    ) {
        out.clear();
        let n = seq.len();
        let b = self.window;
        for i in 0..n {
            if !keep(seq[i]) {
                continue;
            }
            let right_end = (i + b).min(n.saturating_sub(1));
            if self.mode == WindowMode::Symmetric {
                let left_start = i.saturating_sub(b);
                for j in left_start..i {
                    out.push((seq[i], seq[j]));
                }
            }
            for j in (i + 1)..=right_end {
                out.push((seq[i], seq[j]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().copied().map(TokenId).collect()
    }

    #[test]
    fn symmetric_pairs_cover_both_sides() {
        let s = seq(&[0, 1, 2]);
        let sampler = PairSampler {
            window: 1,
            mode: WindowMode::Symmetric,
        };
        let mut out = Vec::new();
        sampler.pairs_where_into(&s, |_| true, &mut out);
        let expect = vec![
            (TokenId(0), TokenId(1)),
            (TokenId(1), TokenId(0)),
            (TokenId(1), TokenId(2)),
            (TokenId(2), TokenId(1)),
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn right_only_pairs_never_look_back() {
        let s = seq(&[0, 1, 2, 3]);
        let sampler = PairSampler {
            window: 2,
            mode: WindowMode::RightOnly,
        };
        let mut out = Vec::new();
        sampler.pairs_where_into(&s, |_| true, &mut out);
        // Every context index must exceed its target index in the sequence.
        assert_eq!(
            out,
            vec![
                (TokenId(0), TokenId(1)),
                (TokenId(0), TokenId(2)),
                (TokenId(1), TokenId(2)),
                (TokenId(1), TokenId(3)),
                (TokenId(2), TokenId(3)),
            ]
        );
    }

    #[test]
    fn pairs_where_keeps_the_filtered_pairs_in_order() {
        let s = seq(&[0, 1, 2, 1, 3]);
        for mode in [WindowMode::Symmetric, WindowMode::RightOnly] {
            let sampler = PairSampler { window: 2, mode };
            let (mut all, mut some) = (Vec::new(), Vec::new());
            sampler.pairs_where_into(&s, |_| true, &mut all);
            sampler.pairs_where_into(&s, |t| t.0 % 2 == 1, &mut some);
            all.retain(|(t, _)| t.0 % 2 == 1);
            assert!(!some.is_empty());
            assert_eq!(some, all, "{mode:?}");
        }
    }

    #[test]
    fn empty_and_singleton_sequences_yield_nothing() {
        let sampler = PairSampler {
            window: 5,
            mode: WindowMode::Symmetric,
        };
        let mut out = Vec::new();
        sampler.pairs_where_into(&[], |_| true, &mut out);
        assert!(out.is_empty());
        sampler.pairs_where_into(&seq(&[9]), |_| true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn subsample_disabled_keeps_everything() {
        let t = SubsampleTable::new(&[100, 1], 0.0);
        assert_eq!(t.keep_prob(TokenId(0)), 1.0);
    }

    #[test]
    fn subsample_downweights_hot_tokens() {
        // Token 0 owns ~99% of mass; with t=1e-3 it must be heavily dropped.
        let t = SubsampleTable::new(&[99_000, 1_000], 1e-3);
        assert!(t.keep_prob(TokenId(0)) < 0.1);
        // sqrt(0.1) + 0.1 ≈ 0.416 — the cooler token is kept far more often.
        assert!(t.keep_prob(TokenId(1)) > 4.0 * t.keep_prob(TokenId(0)));
        let mut rng = StdRng::seed_from_u64(2);
        let mut kept = Vec::new();
        t.filter_into(&[TokenId(0); 10_000], &mut rng, &mut kept);
        let rate = kept.len() as f64 / 10_000.0;
        assert!((rate - t.keep_prob(TokenId(0)) as f64).abs() < 0.02);
    }

    #[test]
    fn filter_preserves_order() {
        let t = SubsampleTable::new(&[1, 1, 1], 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        t.filter_into(&seq(&[2, 0, 1]), &mut rng, &mut out);
        assert_eq!(out, seq(&[2, 0, 1]));
    }
}
