//! Behavioral guarantees of the ownership-partitioned parallel engine
//! (docs/PARALLELISM.md): determinism across runs, learning quality, warm
//! starts, and the legacy engine staying selectable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_embedding::math::cosine;
use sisg_embedding::EmbeddingStore;
use sisg_sgns::{count_freqs, train, train_into, SgnsConfig, TrainEngine};

/// Two-topic corpus, the shape the trainer unit tests use.
fn topic_corpus(seed: u64) -> Vec<Vec<TokenId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..400)
        .map(|_| {
            let topic = if rng.gen_bool(0.5) { 0u32 } else { 10u32 };
            (0..8)
                .map(|_| TokenId(topic + rng.gen_range(0u32..10)))
                .collect()
        })
        .collect()
}

fn small_config() -> SgnsConfig {
    SgnsConfig {
        dim: 16,
        window: 4,
        negatives: 5,
        epochs: 5,
        subsample: 0.0,
        // Pin the engine: these tests exercise the partitioned path
        // regardless of where the Auto density rule draws its line.
        engine: TrainEngine::Partitioned,
        ..Default::default()
    }
}

fn store_bits(store: &EmbeddingStore) -> Vec<u32> {
    store
        .input_matrix()
        .as_slice()
        .iter()
        .chain(store.output_matrix().as_slice())
        .map(|v| v.to_bits())
        .collect()
}

/// Same seed + same thread count ⇒ bit-identical merged embeddings. The
/// atomic Hogwild engine could never promise this; the partitioned engine
/// is deterministic by construction (replicated scan, per-sequence RNG,
/// ordered merges).
#[test]
fn same_seed_and_thread_count_is_deterministic() {
    let seqs = topic_corpus(22);
    let cfg = small_config().with_threads(4).with_replica_sync_rounds(3);
    let (a, stats_a) = train(&seqs, 20, &cfg);
    let (b, stats_b) = train(&seqs, 20, &cfg);
    assert!(stats_a.pairs > 1_000);
    assert_eq!(stats_a.pairs, stats_b.pairs);
    assert_eq!(stats_a.avg_loss.to_bits(), stats_b.avg_loss.to_bits());
    assert_eq!(store_bits(&a), store_bits(&b));
}

/// The partitioned engine must learn the same topic structure the
/// reference path does, across thread counts and an explicit hot size
/// (forcing real cold shards plus a replicated head on this tiny vocab).
#[test]
fn partitioned_training_learns_across_thread_counts() {
    let seqs = topic_corpus(23);
    for threads in [2usize, 3, 8] {
        let cfg = SgnsConfig {
            threads,
            hot_set_size: 6,
            ..small_config()
        };
        let (store, stats) = train(&seqs, 20, &cfg);
        assert!(stats.pairs > 1_000, "threads {threads}");
        let within = cosine(store.input(TokenId(1)), store.input(TokenId(2)));
        let cross = cosine(store.input(TokenId(1)), store.input(TokenId(12)));
        assert!(
            within > cross + 0.15,
            "threads {threads}: within {within} should beat cross {cross}"
        );
    }
}

/// `TrainEngine::AtomicHogwild` keeps the legacy lock-free path reachable
/// for A/B benchmarking.
#[test]
fn atomic_hogwild_engine_stays_selectable() {
    let seqs = topic_corpus(24);
    let cfg = small_config()
        .with_threads(2)
        .with_engine(TrainEngine::AtomicHogwild);
    let (store, stats) = train(&seqs, 20, &cfg);
    assert!(stats.pairs > 1_000);
    assert_eq!(store.n_tokens(), 20);
}

/// Warm starts flow through the partitioned engine: continuing from a
/// trained store must keep improving (lower loss than a cold start), as
/// the daily-update path relies on.
#[test]
fn partitioned_warm_start_continues_from_the_store() {
    let seqs = topic_corpus(25);
    let freqs = count_freqs(&seqs, 20);
    let cfg = small_config().with_threads(2);
    let (warm_store, _) = train(&seqs, 20, &cfg);
    let one_epoch = SgnsConfig {
        epochs: 1,
        learning_rate: 0.01,
        hot_set_size: 6,
        ..cfg.clone()
    };
    let (_, warm) = train_into(&seqs, &freqs, &one_epoch, warm_store);
    let cold_store = EmbeddingStore::new(20, one_epoch.dim, one_epoch.seed);
    let (_, cold) = train_into(&seqs, &freqs, &one_epoch, cold_store);
    assert!(
        warm.avg_loss < cold.avg_loss,
        "warm start should sit at lower loss: {} vs {}",
        warm.avg_loss,
        cold.avg_loss
    );
}
