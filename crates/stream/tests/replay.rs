//! Deterministic replay regression tests: the same seeded ingest plan
//! must replay to byte-identical snapshot codecs, identical counters, and
//! a pinned trace hash — the PR-4 simulation discipline applied to the
//! streaming pipeline.
//!
//! The pinned hashes cover control flow only (no float bits), so they are
//! machine-portable like the simtest traces; float determinism is checked
//! run-to-run through `store_checksum` and the encoded codec bytes.

use sisg_core::{ServingConfig, Variant};
use sisg_corpus::{Corpus, CorpusConfig, EventLog, GeneratedCorpus, ItemId, SessionEvent, UserId};
use sisg_obs::{names, registry};
use sisg_serve::{EngineStats, ServeEngine, ServeEngineConfig};
use sisg_sgns::SgnsConfig;
use sisg_stream::{IngestPipeline, ReplayOutcome, StreamConfig, StreamError};

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        variant: Variant::SisgFU,
        sgns: SgnsConfig {
            dim: 16,
            window: 2,
            negatives: 5,
            epochs: 1,
            seed,
            ..Default::default()
        },
        serving: ServingConfig {
            k: 10,
            min_clicks_for_warm: 2,
        },
        batch_sessions: 96,
        publish_every: 3,
    }
}

/// One full seeded run: cold engine from the untrained freeze, then the
/// whole event log through the pipeline under the virtual clock.
fn replay(seed: u64) -> (ReplayOutcome, EngineStats, u64) {
    replay_with(seed, Variant::SisgFU, &[])
}

/// [`replay`] of `variant`, after every `hostile` batch was offered to the
/// pipeline, first as a warm-start corpus and then as a stream batch, and
/// rejected with a typed error.
fn replay_with(
    seed: u64,
    variant: Variant,
    hostile: &[Vec<SessionEvent>],
) -> (ReplayOutcome, EngineStats, u64) {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let log = EventLog::from_sessions(&corpus.sessions, seed, 500);
    let mut pipeline = IngestPipeline::new(
        corpus.catalog.clone(),
        corpus.users.clone(),
        StreamConfig {
            variant,
            ..stream_config(seed)
        },
    )
    .expect("pipeline config is valid");
    for batch in hostile {
        let mut sessions = Corpus::new();
        for e in batch {
            sessions.push(e.user, &e.items);
        }
        for err in [
            pipeline.warm_start(&sessions).expect_err("warm start"),
            pipeline.ingest_batch(batch).expect_err("ingest"),
        ] {
            assert!(
                matches!(
                    err,
                    StreamError::UnknownItem { .. } | StreamError::UnknownUser { .. }
                ),
                "{err}"
            );
        }
    }
    let engine = ServeEngine::start(
        pipeline.freeze().expect("cold freeze"),
        ServeEngineConfig::builder()
            .n_shards(2)
            .build()
            .expect("engine config"),
    )
    .expect("engine starts");
    let outcome = pipeline.run_replay(&log, &engine).expect("replay");
    let epoch = engine.epoch();
    (outcome, engine.stats(), epoch)
}

#[test]
fn two_runs_of_the_same_plan_are_byte_identical() {
    let (a, _, epoch_a) = replay(7);
    let (b, _, epoch_b) = replay(7);
    assert_eq!(a.trace_hash, b.trace_hash, "control flow must replay");
    assert_eq!(
        a.store_checksum, b.store_checksum,
        "trained float bits must replay"
    );
    assert_eq!(a.codec, b.codec, "snapshot codecs must be byte-identical");
    assert_eq!(
        (a.events, a.batches, a.publishes, a.vocab_admitted),
        (b.events, b.batches, b.publishes, b.vocab_admitted),
        "stream counters must be identical"
    );
    assert_eq!(a.final_epoch, b.final_epoch);
    assert_eq!(epoch_a, epoch_b);
    assert_eq!(a.events, 1_500, "tiny corpus replays every session");
    assert!(a.publishes >= 2, "the plan must publish repeatedly");
    assert!(!a.codec.is_empty(), "the final snapshot must encode");
}

#[test]
fn a_different_seed_is_a_different_plan() {
    let (a, _, _) = replay(7);
    let (c, _, _) = replay(8);
    assert_ne!(a.trace_hash, c.trace_hash);
    assert_ne!(a.codec, c.codec);
}

/// One trace hash per seed, pinned like the simtest traces: an
/// unintentional behavior change in ingest, enrichment folding,
/// vocabulary admission, training control flow, or publication cadence
/// shows up as a hash mismatch here.
#[test]
fn pinned_trace_hashes_still_replay() {
    const PINNED: [(u64, u64); 2] = [(7, 0x74D0_9FDF_C33C_3D59), (21, 0x43DF_EB62_5A0E_4872)];
    for (seed, expect) in PINNED {
        let (outcome, _, _) = replay(seed);
        println!("seed {seed}: trace hash {:#018X}", outcome.trace_hash);
        assert_eq!(
            outcome.trace_hash, expect,
            "pinned trace for seed {seed} diverged — if the change is \
             intentional, re-pin with the printed hash"
        );
    }
}

#[test]
fn replay_closes_the_swap_accounting_loop() {
    let (outcome, stats, epoch) = replay(13);
    // The engine's epoch moved once per publication (this engine is fresh,
    // so its epoch is exactly our publication count).
    assert_eq!(epoch, outcome.publishes);
    assert_eq!(outcome.final_epoch, outcome.publishes);
    // Registry deltas since engine start: at least our swaps, and at
    // least one worker observed a new epoch and cleared its cache (the
    // post-publish probe guarantees one).
    assert!(
        stats.swaps >= outcome.publishes,
        "serve.swaps_total must count every publication: {stats:?}"
    );
    assert!(
        stats.cache_clears >= 1,
        "a post-swap request must clear the worker cache: {stats:?}"
    );
    // The stream.* family is live end-to-end (global counters: other
    // tests in this binary only add, so nonzero is race-free).
    for name in [
        names::STREAM_EVENTS_TOTAL,
        names::STREAM_BATCHES_TOTAL,
        names::STREAM_PUBLISHES_TOTAL,
        names::STREAM_VOCAB_ADMITTED_TOTAL,
    ] {
        assert!(registry().counter(name).get() > 0, "{name} never counted");
    }
    assert!(
        registry().histogram(names::STREAM_FRESHNESS_US).count() >= outcome.events,
        "every event's arrival must land in the freshness histogram"
    );
    assert!(
        registry()
            .histogram(&format!("{}.us", names::STREAM_TRAIN_SPAN))
            .count()
            > 0,
        "incremental folds must record their span"
    );
}

/// An event naming an item outside the catalog or a user outside the
/// registry is rejected at the stream boundary with its whole batch. It
/// once panicked inside enrichment (SISG-F-U) or trained silently as an
/// SI or user-type row (SGNS). The replay that continues after the
/// rejects is the replay that never saw them: same trace, same bits.
#[test]
fn unknown_ids_are_rejected_whole_and_leave_the_replay_untouched() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let (n_items, n_users) = (corpus.config.n_items, corpus.users.n_users());
    let event = |user: u32, items: &[u32]| SessionEvent {
        time: 1,
        user: UserId(user),
        items: items.iter().copied().map(ItemId).collect(),
    };
    let hostile = [
        // A valid session first: nothing of the batch may be folded.
        vec![event(0, &[0, 1]), event(1, &[2, n_items + 5])],
        vec![event(0, &[n_items])],
        vec![event(n_users + 1, &[0])],
    ];
    for variant in [Variant::SisgFU, Variant::Sgns] {
        let (clean, ..) = replay_with(7, variant, &[]);
        let (after, ..) = replay_with(7, variant, &hostile);
        assert_eq!(after.trace_hash, clean.trace_hash, "{variant:?}");
        assert_eq!(after.store_checksum, clean.store_checksum, "{variant:?}");
        assert_eq!(after.codec, clean.codec, "{variant:?}");
        assert_eq!(
            (after.events, after.batches, after.vocab_admitted),
            (clean.events, clean.batches, clean.vocab_admitted),
            "{variant:?}"
        );
    }
}
