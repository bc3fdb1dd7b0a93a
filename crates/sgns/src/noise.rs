//! The negative-sampling noise distribution.
//!
//! Negatives are drawn from `P_noise(v) ∝ freq(v)^α` with `α = 0.75`
//! (Section III-C). We implement Walker's alias method: O(n) construction,
//! O(1) per draw — the per-pair cost matters because every positive pair
//! draws `N_neg = 20` negatives.
//!
//! Each slot of the table is one packed entry — the slot's threshold, its
//! own token and its alias token side by side — so a draw is one uniform
//! slot index, one 12-byte load and one compare against a uniform `f32`,
//! where the textbook layout reads three arrays (`prob[i]`, then
//! `alias[i]`, then `tokens[slot]`). The RNG is consumed exactly as that
//! layout consumes it, so the same seed draws the same tokens
//! (`tests/noise_packed.rs` holds the two to the same stream).

use rand::Rng;
use sisg_corpus::TokenId;

/// One slot of the alias table: keep `own` when the uniform draw falls
/// below `threshold`, else take `alias`.
#[derive(Debug, Clone, Copy)]
struct AliasEntry {
    threshold: f32,
    own: TokenId,
    alias: TokenId,
}

/// An alias-method sampler over the unigram^α distribution.
#[derive(Debug, Clone)]
pub struct NoiseTable {
    entries: Vec<AliasEntry>,
}

impl NoiseTable {
    /// Builds the table over all tokens `0..freqs.len()` with exponent
    /// `alpha`. Zero-frequency tokens get zero probability.
    pub fn from_freqs(freqs: &[u64], alpha: f64) -> Self {
        let tokens: Vec<TokenId> = (0..freqs.len() as u32).map(TokenId).collect();
        Self::from_token_freqs(&tokens, freqs, alpha)
    }

    /// Builds the table over an explicit token subset — each worker in the
    /// distributed engine owns a *local* noise distribution over its
    /// partition plus the shared hot set (Section III-C).
    ///
    /// # Panics
    /// Panics when `tokens` and `freqs` differ in length or all weights
    /// vanish.
    pub fn from_token_freqs(tokens: &[TokenId], freqs: &[u64], alpha: f64) -> Self {
        assert_eq!(tokens.len(), freqs.len(), "tokens/freqs length mismatch");
        assert!(!tokens.is_empty(), "empty noise distribution");
        let weights: Vec<f64> = freqs.iter().map(|&f| (f as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "all noise weights are zero");

        // Walker alias construction.
        let n = weights.len();
        let mut prob = vec![0.0f32; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = scaled[s] as f32;
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (from floating-point drift) saturate to probability 1.
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }

        let entries = tokens
            .iter()
            .zip(prob.iter().zip(&alias))
            .map(|(&own, (&threshold, &a))| AliasEntry {
                threshold,
                own,
                alias: tokens[a as usize],
            })
            .collect();
        Self { entries }
    }

    /// Number of tokens in the support.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the support is empty (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draws one negative sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TokenId {
        let entry = self.entries[rng.gen_range(0..self.entries.len())];
        if rng.gen::<f32>() < entry.threshold {
            entry.own
        } else {
            entry.alias
        }
    }

    /// Draws `n` samples into `dst` (cleared first) — the batched draw of
    /// a pair's negatives. The RNG consumption is identical to `n`
    /// repeated [`NoiseTable::sample`] calls, so switching call sites to
    /// this method changes no training trajectory.
    #[inline]
    pub fn sample_into<R: Rng + ?Sized>(&self, dst: &mut Vec<TokenId>, n: usize, rng: &mut R) {
        dst.clear();
        dst.reserve(n);
        for _ in 0..n {
            dst.push(self.sample(rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empirical_distribution_matches_unigram_alpha() {
        // freqs 1 and 16 with α=0.75 → weights 1 : 8.
        let t = NoiseTable::from_freqs(&[1, 16], 0.75);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 2];
        for _ in 0..80_000 {
            counts[t.sample(&mut rng).index()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((7.0..9.0).contains(&ratio), "ratio {ratio} not near 8");
    }

    #[test]
    fn zero_frequency_tokens_never_drawn() {
        let t = NoiseTable::from_freqs(&[0, 5, 0, 5], 0.75);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5_000 {
            let s = t.sample(&mut rng);
            assert!(s == TokenId(1) || s == TokenId(3), "drew zero-freq {s}");
        }
    }

    #[test]
    fn subset_table_stays_in_subset() {
        let tokens = vec![TokenId(10), TokenId(99), TokenId(7)];
        let t = NoiseTable::from_token_freqs(&tokens, &[3, 1, 2], 0.75);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_000 {
            assert!(tokens.contains(&t.sample(&mut rng)));
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let t = NoiseTable::from_freqs(&[1, 1_000_000], 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u64; 2];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng).index()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio} not near 1");
    }

    #[test]
    #[should_panic(expected = "all noise weights are zero")]
    fn all_zero_freqs_panic() {
        let _ = NoiseTable::from_freqs(&[0, 0], 0.75);
    }

    #[test]
    fn sample_into_matches_repeated_sample_exactly() {
        // Same seed → byte-identical draw sequence, across batch sizes
        // (incl. 0) and interleaved batches.
        let t = NoiseTable::from_freqs(&[3, 1, 4, 1, 5, 9, 2, 6], 0.75);
        let mut rng_a = StdRng::seed_from_u64(123);
        let mut rng_b = StdRng::seed_from_u64(123);
        let mut batch = Vec::new();
        for n in [5usize, 0, 1, 20, 7] {
            t.sample_into(&mut batch, n, &mut rng_a);
            assert_eq!(batch.len(), n);
            let singles: Vec<TokenId> = (0..n).map(|_| t.sample(&mut rng_b)).collect();
            assert_eq!(batch, singles);
        }
    }

    #[test]
    fn sample_into_distribution_matches_unigram_alpha() {
        // Same check as the per-draw test, through the batched API.
        let t = NoiseTable::from_freqs(&[1, 16], 0.75);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 2];
        let mut batch = Vec::new();
        for _ in 0..4_000 {
            t.sample_into(&mut batch, 20, &mut rng);
            for s in &batch {
                counts[s.index()] += 1;
            }
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((7.0..9.0).contains(&ratio), "ratio {ratio} not near 8");
    }
}
