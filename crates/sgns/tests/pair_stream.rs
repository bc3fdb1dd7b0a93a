//! The `PairStream` contract, which sgns, Section III's workers and EGES
//! all rely on (DESIGN.md §5): over random sequences, windows, both window
//! modes, keep probabilities (0 and 1 included) and target filters,
//!
//! - the stream yields exactly the pairs of `SubsampleTable::filter_into`
//!   followed by `PairSampler::pairs_where_into`, sequence by sequence, in
//!   the same order — also when a caller draws from the same RNG between
//!   pairs and resumes the stream block by block (`next_until`);
//! - it leaves the caller's RNG in the same state as that reference;
//! - the identity subsample (`None`) draws nothing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_sgns::{PairSampler, PairStream, Sequences, SubsampleTable, WindowMode};

/// Vocabulary of the generated sequences.
const VOCAB: usize = 12;

/// Keep probabilities by code: both ends of the range appear often.
const KEEP: [f32; 5] = [0.0, 0.3, 0.5, 0.9, 1.0];

fn table(codes: &[u8]) -> SubsampleTable {
    let mut table = SubsampleTable::new(&[1; VOCAB], 0.0);
    for (t, &code) in codes.iter().enumerate() {
        table.scale_tokens(&[TokenId(t as u32)], KEEP[code as usize]);
    }
    table
}

fn sequences(raw: Vec<Vec<u32>>) -> Vec<Vec<TokenId>> {
    raw.into_iter()
        .map(|s| s.into_iter().map(TokenId).collect())
        .collect()
}

/// The reference loop: `filter_into`, then `pairs_where_into`, then one
/// caller draw after every pair.
fn reference(
    seqs: &[Vec<TokenId>],
    table: Option<&SubsampleTable>,
    sampler: PairSampler,
    keep: impl Fn(usize, TokenId) -> bool,
    rng: &mut StdRng,
) -> Vec<(TokenId, TokenId, u32)> {
    let (mut kept, mut pairs, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for (i, seq) in seqs.iter().enumerate() {
        match table {
            Some(table) => table.filter_into(seq, rng, &mut kept),
            None => kept.clone_from(seq),
        }
        sampler.pairs_where_into(&kept, |t| keep(i, t), &mut pairs);
        for &(t, c) in &pairs {
            out.push((t, c, rng.gen::<u32>()));
        }
    }
    out
}

/// The stream, resumed at every end in `ends`, with one caller draw after
/// every pair.
fn streamed<S: Sequences>(
    seqs: &S,
    table: Option<&SubsampleTable>,
    sampler: PairSampler,
    keep: impl Fn(usize, TokenId) -> bool,
    ends: &[usize],
    rng: &mut StdRng,
) -> Vec<(TokenId, TokenId, u32)> {
    let mut stream = PairStream::new(seqs, table, sampler);
    let mut out = Vec::new();
    for &end in ends.iter().chain([&seqs.n_sequences()]) {
        while let Some((t, c)) = stream.next_until(end, rng, &keep) {
            out.push((t, c, rng.gen::<u32>()));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stream_is_filter_then_pairs_where_and_leaves_the_rng_alike(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..VOCAB as u32, 0..14), 0..9),
        window in 1usize..6,
        right_only in 0u8..2,
        keep_codes in proptest::collection::vec(0u8..5, VOCAB),
        filter_mask in proptest::collection::vec(0u8..2, VOCAB),
        shard in 1usize..4,
        ends in proptest::collection::vec(0usize..10, 0..4),
        seed in 0u64..1_000,
    ) {
        let seqs = sequences(raw);
        let mode = match right_only {
            0 => WindowMode::Symmetric,
            _ => WindowMode::RightOnly,
        };
        let sampler = PairSampler { window, mode };
        let table = table(&keep_codes);
        // A filter of the responsibility rule's shape: by token, and by
        // the sequence's index.
        let keep = |i: usize, t: TokenId| filter_mask[t.index()] == 1 || i.is_multiple_of(shard);
        let mut ends = ends;
        ends.sort_unstable();

        for subsample in [Some(&table), None] {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let want = reference(&seqs, subsample, sampler, keep, &mut a);
            let got = streamed(&seqs, subsample, sampler, keep, &ends, &mut b);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG states differ");
        }

        // The identity draws nothing: a stream drained without caller
        // draws leaves the RNG as it was.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = PairStream::new(&seqs, None, sampler);
        while stream.next_until(usize::MAX, &mut rng, keep).is_some() {}
        prop_assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(seed).gen::<u64>());
        // Nor does a table whose every keep probability is 1.
        let all = SubsampleTable::new(&[1; VOCAB], 0.0);
        let mut stream = PairStream::new(&seqs, Some(&all), sampler);
        while stream.next(&mut rng).is_some() {}
        prop_assert_eq!(rng.gen::<u64>(), {
            let mut fresh = StdRng::seed_from_u64(seed);
            fresh.gen::<u64>();
            fresh.gen::<u64>()
        });
    }
}
