//! Property tests for the online frequency/noise drift rules.
//!
//! DESIGN.md §12's drift rules claim the online tables are *exact*: after
//! ingesting any stream prefix, the cumulative frequency table equals a
//! from-scratch enrichment of the same events (zero tolerance), and the
//! noise distribution rebuilt from it samples identically. Subsampling
//! keep-probabilities must be monotone non-increasing in token counts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_core::{ServingConfig, Variant};
use sisg_corpus::{Corpus, CorpusConfig, EnrichedCorpus, EventLog, GeneratedCorpus, TokenId};
use sisg_sgns::{NoiseTable, SgnsConfig, SubsampleTable};
use sisg_stream::{IngestPipeline, StreamConfig};

const VARIANT: Variant = Variant::SisgFU;

fn stream_config() -> StreamConfig {
    StreamConfig {
        variant: VARIANT,
        sgns: SgnsConfig {
            dim: 8,
            window: 2,
            negatives: 3,
            epochs: 1,
            seed: 5,
            ..Default::default()
        },
        serving: ServingConfig {
            k: 10,
            min_clicks_for_warm: 2,
        },
        batch_sessions: 50,
        publish_every: 1_000_000, // never publishes: these tests fold only
    }
}

/// Ingests the first `n_batches` of a seeded log and returns the pipeline
/// plus the same events as a plain session corpus (the from-scratch
/// reference input).
fn ingest_prefix(n_batches: usize) -> (IngestPipeline, Corpus, GeneratedCorpus) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let log = EventLog::from_sessions(&corpus.sessions, 11, 300);
    let mut pipeline = IngestPipeline::new(
        corpus.catalog.clone(),
        corpus.users.clone(),
        stream_config(),
    )
    .expect("pipeline config is valid");
    let mut prefix = Corpus::new();
    for batch in log.batches(50).take(n_batches) {
        pipeline.ingest_batch(batch).expect("fold");
        for e in batch {
            prefix.push(e.user, &e.items);
        }
    }
    (pipeline, prefix, corpus)
}

#[test]
fn prefix_frequency_tables_match_a_from_scratch_build_exactly() {
    for n_batches in [1, 4, 9] {
        let (pipeline, prefix, corpus) = ingest_prefix(n_batches);
        let scratch = EnrichedCorpus::build_from_sessions(
            &prefix,
            &corpus.catalog,
            &corpus.users,
            corpus.config.n_items,
            VARIANT.enrich_options(),
        );
        assert_eq!(
            pipeline.freqs(),
            scratch.vocab().freqs(),
            "cumulative fold after {n_batches} batches must equal the \
             from-scratch enrichment (documented tolerance: exact)"
        );
        assert_eq!(pipeline.clicks().iter().sum::<u64>(), prefix.total_clicks());
    }
}

#[test]
fn noise_table_rebuilt_from_online_counts_samples_identically() {
    let (pipeline, prefix, corpus) = ingest_prefix(6);
    let scratch = EnrichedCorpus::build_from_sessions(
        &prefix,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        VARIANT.enrich_options(),
    );
    let online = NoiseTable::from_freqs(pipeline.freqs(), 0.75);
    let offline = NoiseTable::from_freqs(scratch.vocab().freqs(), 0.75);
    let mut rng_a = StdRng::seed_from_u64(99);
    let mut rng_b = StdRng::seed_from_u64(99);
    for i in 0..2_000 {
        assert_eq!(
            online.sample(&mut rng_a),
            offline.sample(&mut rng_b),
            "draw {i} diverged: the alias tables differ"
        );
    }
}

#[test]
fn vocabulary_admission_counts_first_sightings_once() {
    let (pipeline, prefix, corpus) = ingest_prefix(9);
    let scratch = EnrichedCorpus::build_from_sessions(
        &prefix,
        &corpus.catalog,
        &corpus.users,
        corpus.config.n_items,
        VARIANT.enrich_options(),
    );
    let distinct = scratch.vocab().freqs().iter().filter(|&&f| f > 0).count();
    // Every distinct token of the prefix was admitted exactly once.
    let outcome_admitted: u64 = pipeline.freqs().iter().filter(|&&f| f > 0).count() as u64;
    assert_eq!(outcome_admitted, distinct as u64);
}

proptest! {
    /// Within one table, a higher count can never subsample *less*
    /// aggressively: `keep_prob` is monotone non-increasing in counts
    /// (zero-count tokens are exempt — they keep probability 1).
    #[test]
    fn subsample_keep_prob_is_monotone_in_counts(
        counts in proptest::collection::vec(0u64..50_000, 2..64),
        threshold in 1e-5f64..1e-2,
    ) {
        let table = SubsampleTable::new(&counts, threshold);
        let mut indexed: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        indexed.sort_by_key(|&i| counts[i]);
        for pair in indexed.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            prop_assert!(
                table.keep_prob(TokenId(hi as u32)) <= table.keep_prob(TokenId(lo as u32)),
                "count {} keeps more than count {}",
                counts[hi], counts[lo]
            );
        }
    }

    /// Folding counts batch-by-batch is the same as counting once —
    /// the associativity that makes the online tables exact.
    #[test]
    fn count_folding_is_associative(
        a in proptest::collection::vec(0u64..1_000, 8),
        b in proptest::collection::vec(0u64..1_000, 8),
    ) {
        let mut folded = vec![0u64; 8];
        for (slot, &x) in folded.iter_mut().zip(&a) { *slot += x; }
        for (slot, &x) in folded.iter_mut().zip(&b) { *slot += x; }
        let once: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        prop_assert_eq!(folded, once);
    }
}
