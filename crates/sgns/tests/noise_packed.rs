//! The packed alias table draws exactly what the textbook three-array
//! layout draws.
//!
//! `NoiseTable` keeps one `(threshold, own token, alias token)` entry per
//! slot. The reference below keeps the classic three arrays — `prob[i]`,
//! `alias[i]` and `tokens[slot]` — built by the same Walker construction,
//! and draws a slot index and a uniform `f32` per sample in the same
//! order. For the same seed both must yield the same token stream, over
//! random frequency vectors with zero-frequency tokens, one-token supports
//! and token subsets as the distributed engine builds them.

use proptest::collection::vec;
use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_sgns::NoiseTable;

/// The three-array alias sampler, built by the same Walker construction
/// as `NoiseTable::from_token_freqs`.
struct ThreeArrayAlias {
    prob: Vec<f32>,
    alias: Vec<u32>,
    tokens: Vec<TokenId>,
}

impl ThreeArrayAlias {
    fn new(tokens: &[TokenId], freqs: &[u64], alpha: f64) -> Self {
        let weights: Vec<f64> = freqs.iter().map(|&f| (f as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let n = weights.len();
        let mut prob = vec![0.0f32; n];
        let mut alias = vec![0u32; n];
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s] = scaled[s] as f32;
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large.into_iter().chain(small) {
            prob[i] = 1.0;
        }
        Self {
            prob,
            alias,
            tokens: tokens.to_vec(),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> TokenId {
        let i = rng.gen_range(0..self.prob.len());
        let slot = if rng.gen::<f32>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        };
        self.tokens[slot]
    }
}

/// Draws `draws` tokens from both samplers with the same seed, one at a
/// time and through the batched `sample_into`, and compares the streams.
fn assert_same_stream(tokens: &[TokenId], freqs: &[u64], alpha: f64, seed: u64, draws: usize) {
    let packed = NoiseTable::from_token_freqs(tokens, freqs, alpha);
    let reference = ThreeArrayAlias::new(tokens, freqs, alpha);
    let mut rng_packed = StdRng::seed_from_u64(seed);
    let mut rng_ref = StdRng::seed_from_u64(seed);
    let mut rng_batched = StdRng::seed_from_u64(seed);
    let want: Vec<TokenId> = (0..draws).map(|_| reference.sample(&mut rng_ref)).collect();
    let got: Vec<TokenId> = (0..draws).map(|_| packed.sample(&mut rng_packed)).collect();
    prop_assert_eq!(&got, &want);
    let mut batched = Vec::new();
    packed.sample_into(&mut batched, draws, &mut rng_batched);
    prop_assert_eq!(&batched, &want);
    // Both consumed the RNG identically: the next raw draw agrees too.
    prop_assert_eq!(rng_packed.gen::<u64>(), rng_ref.gen::<u64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Full-vocabulary tables, a third of the tokens never seen.
    #[test]
    fn packed_table_draws_the_three_array_stream(
        raw in vec(0u64..50, 1..200),
        seed in 0u64..1_000_000,
        alpha_pct in 0u32..=100,
    ) {
        // Every third token becomes zero-frequency; keep one positive.
        let mut freqs: Vec<u64> = raw.iter().enumerate().map(|(i, &f)| if i % 3 == 2 { 0 } else { f }).collect();
        if freqs.iter().all(|&f| f == 0) {
            freqs[0] = 1;
        }
        let tokens: Vec<TokenId> = (0..freqs.len() as u32).map(TokenId).collect();
        assert_same_stream(&tokens, &freqs, alpha_pct as f64 / 100.0, seed, 500);
    }

    /// Subset tables as a TNS worker builds them: arbitrary, unordered
    /// token ids (its partition plus the hot set), every frequency ≥ 1.
    #[test]
    fn packed_subset_table_draws_the_three_array_stream(
        ids in vec(0u32..100_000, 1..120),
        raw in vec(0u64..1_000, 120..121),
        seed in 0u64..1_000_000,
    ) {
        let tokens: Vec<TokenId> = ids.iter().map(|&i| TokenId(i)).collect();
        let freqs: Vec<u64> = raw[..tokens.len()].iter().map(|&f| f.max(1)).collect();
        assert_same_stream(&tokens, &freqs, 0.75, seed, 500);
    }

    /// A one-token support draws that token forever, whatever its weight.
    #[test]
    fn one_token_support_draws_it_every_time(
        id in 0u32..1_000_000,
        freq in 1u64..1_000,
        seed in 0u64..1_000_000,
    ) {
        assert_same_stream(&[TokenId(id)], &[freq], 0.75, seed, 64);
        let table = NoiseTable::from_token_freqs(&[TokenId(id)], &[freq], 0.75);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(table.sample(&mut rng), TokenId(id));
        }
    }
}
