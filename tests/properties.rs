//! Property-based test suites over the core data structures and
//! invariants, spanning crates.

use proptest::prelude::*;
use taobao_sisg::corpus::schema::SchemaCardinalities;
use taobao_sisg::corpus::split::{NextItemSplit, SplitStage};
use taobao_sisg::corpus::vocab::{TokenSpace, VocabBuilder};
use taobao_sisg::corpus::{Corpus, ItemId, TokenId, UserId};
use taobao_sisg::embedding::codec;
use taobao_sisg::embedding::{EmbeddingStore, Matrix, TopK};

proptest! {
    /// Every token id in a generated space classifies back to exactly the
    /// constructor that produced it (layout is a bijection).
    #[test]
    fn token_space_roundtrip(n_items in 1u32..2_000, n_types in 0u32..500) {
        let cards = SchemaCardinalities::for_items(n_items);
        let space = TokenSpace::new(n_items, &cards, n_types);
        // Items.
        for raw in [0, n_items / 2, n_items - 1] {
            let t = space.item(ItemId(raw));
            prop_assert!(space.is_item(t));
        }
        // Full coverage: kind() is total over the space and describe()
        // never panics.
        let stride = (space.len() / 64).max(1);
        for idx in (0..space.len()).step_by(stride) {
            let t = TokenId(idx as u32);
            let _ = space.kind(t);
            prop_assert!(!space.describe(t).is_empty());
        }
    }

    /// The vocabulary counts exactly what was recorded.
    #[test]
    fn vocab_total_matches_records(counts in proptest::collection::vec(0u64..50, 1..20)) {
        let cards = SchemaCardinalities::for_items(100);
        let space = TokenSpace::new(100, &cards, 4);
        let mut b = VocabBuilder::new(space);
        let mut expected = 0;
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                b.record(TokenId(i as u32));
                expected += 1;
            }
        }
        let v = b.build();
        prop_assert_eq!(v.total_tokens(), expected);
        for (i, &c) in counts.iter().enumerate() {
            prop_assert_eq!(v.freq(TokenId(i as u32)), c);
        }
    }

    /// Codec round-trips arbitrary matrices bit-exactly.
    #[test]
    fn codec_roundtrip(rows in 0usize..40, dim in 1usize..16, seed in any::<u64>()) {
        let store = EmbeddingStore::new(rows, dim, seed);
        let blob = codec::encode(&store);
        let back = codec::decode(&blob).unwrap();
        prop_assert_eq!(back.n_tokens(), rows);
        prop_assert_eq!(back.dim(), dim);
        prop_assert_eq!(
            back.input_matrix().as_slice(),
            store.input_matrix().as_slice()
        );
        prop_assert_eq!(
            back.output_matrix().as_slice(),
            store.output_matrix().as_slice()
        );
    }

    /// Decoding never panics on arbitrary bytes — it returns an error.
    #[test]
    fn codec_rejects_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = codec::decode(&bytes);
    }

    /// TopK keeps exactly the k best-scoring entries.
    #[test]
    fn topk_matches_sort(
        scores in proptest::collection::vec(-100i32..100, 1..60),
        k in 1usize..20,
    ) {
        let mut top = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(TokenId(i as u32), s as f32);
        }
        let got: Vec<f32> = top.into_sorted().iter().map(|n| n.score).collect();
        let mut want: Vec<f32> = scores.iter().map(|&s| s as f32).collect();
        want.sort_by(|a, b| b.partial_cmp(a).unwrap());
        want.truncate(k);
        prop_assert_eq!(got, want);
    }

    /// The next-item split conserves clicks and only removes suffixes.
    #[test]
    fn split_conserves_clicks(lens in proptest::collection::vec(1usize..12, 1..30)) {
        let mut corpus = Corpus::new();
        let mut next = 0u32;
        for (u, &len) in lens.iter().enumerate() {
            let items: Vec<ItemId> = (0..len)
                .map(|_| {
                    next += 1;
                    ItemId(next % 50)
                })
                .collect();
            corpus.push(UserId(u as u32), &items);
        }
        for stage in [SplitStage::Validation, SplitStage::Test] {
            let holdout = match stage {
                SplitStage::Validation => 2u64,
                SplitStage::Test => 1,
            };
            let split = NextItemSplit::default().split(&corpus, stage);
            prop_assert_eq!(
                split.train.total_clicks() + split.eval.len() as u64 * holdout,
                corpus.total_clicks()
            );
            // Each train sequence is a prefix of the original.
            for (i, s) in split.train.iter().enumerate() {
                let orig = corpus.session(i);
                prop_assert_eq!(s.user, orig.user);
                prop_assert_eq!(s.items, &orig.items[..s.items.len()]);
            }
        }
    }

    /// Matrix rows never alias: writing one row leaves the others intact.
    #[test]
    fn matrix_row_isolation(rows in 2usize..20, dim in 1usize..8, target in 0usize..20) {
        let target = target % rows;
        let mut m = Matrix::zeros(rows, dim);
        m.row_mut(target).fill(7.0);
        for r in 0..rows {
            if r == target {
                prop_assert!(m.row(r).iter().all(|&v| v == 7.0));
            } else {
                prop_assert!(m.row(r).iter().all(|&v| v == 0.0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The alias-method noise table reproduces the unigram^α distribution
    /// for arbitrary frequency vectors (χ²-lite check on the heaviest bin).
    #[test]
    fn noise_table_is_proportional(freqs in proptest::collection::vec(0u64..100, 2..12)) {
        prop_assume!(freqs.iter().any(|&f| f > 0));
        use rand::SeedableRng;
        let table = taobao_sisg::sgns::NoiseTable::from_freqs(&freqs, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let draws = 30_000usize;
        let mut counts = vec![0u64; freqs.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng).index()] += 1;
        }
        let total: u64 = freqs.iter().sum();
        for (i, &f) in freqs.iter().enumerate() {
            let expected = draws as f64 * f as f64 / total as f64;
            if expected >= 300.0 {
                let got = counts[i] as f64;
                prop_assert!(
                    (got - expected).abs() < expected * 0.25 + 30.0,
                    "bin {}: got {}, expected {}", i, got, expected
                );
            }
            if f == 0 {
                prop_assert_eq!(counts[i], 0, "zero-frequency token drawn");
            }
        }
    }

    /// Directional pair sampling only ever looks right.
    #[test]
    fn right_only_pairs_point_forward(
        len in 2usize..40,
        window in 1usize..10,
    ) {
        use taobao_sisg::sgns::{PairSampler, WindowMode};
        // Token value encodes its position, so direction is checkable.
        let seq: Vec<TokenId> = (0..len as u32).map(TokenId).collect();
        let sampler = PairSampler { window, mode: WindowMode::RightOnly };
        let mut out = Vec::new();
        sampler.pairs_where_into(&seq, |_| true, &mut out);
        for (target, context) in out {
            prop_assert!(context.0 > target.0, "pair looks backward");
            prop_assert!((context.0 - target.0) as usize <= window);
        }
    }
}
