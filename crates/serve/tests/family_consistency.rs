//! Pins the relationship between the two request-counter families
//! (docs/OBSERVABILITY.md "Two counter families"):
//!
//! - `serving.*` counts calls that go **through [`MatchingService`]** —
//!   the library-level API used by offline evaluation and by benches when
//!   they probe the service directly.
//! - `serve.*` counts requests answered by **engine workers from the
//!   resharded snapshot** — the snapshot serves without calling back into
//!   `MatchingService`, so engine traffic never moves `serving.*`.
//!
//! A process that does both (the benchmark's `serve_hot` takes its
//! parity reference from the service, then replays the stream through
//! the engine) therefore reports
//! `serving.*` ≥ `serve.*` for the overlapping kinds, with the delta
//! exactly the direct calls. This file is a single test in its own
//! binary: the obs registry is process-global, so sharing a binary with
//! other engine tests would race the deltas.

use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_obs::{names, registry};
use sisg_serve::{ServeEngine, ServeEngineConfig, ServeRequest};
use sisg_sgns::SgnsConfig;

fn counter(name: &'static str) -> u64 {
    registry().counter(name).get()
}

#[test]
fn direct_service_calls_move_serving_and_engine_traffic_moves_serve() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let (model, _) = SisgModel::train(
        &corpus,
        Variant::SisgFU,
        &SgnsConfig {
            dim: 16,
            epochs: 1,
            threads: 1,
            ..Default::default()
        },
    )
    .expect("train");
    let mut clicks = vec![0u64; corpus.config.n_items as usize];
    for s in corpus.sessions.iter() {
        for it in s.items {
            clicks[it.index()] += 1;
        }
    }
    let service = MatchingService::build(
        model,
        corpus.users.clone(),
        &clicks,
        ServingConfig {
            k: 20,
            min_clicks_for_warm: 3,
        },
    )
    .expect("build");

    let items: Vec<ItemId> = (0..20).map(ItemId).collect();

    // Phase 1: direct MatchingService calls. Only `serving.*` moves.
    let serving_before = counter(names::SERVING_REQUESTS_TOTAL);
    let serve_before = counter(names::SERVE_REQUESTS_TOTAL);
    for &item in &items {
        service
            .candidates(item, corpus.catalog.si_values(item), 10)
            .expect("known item");
    }
    service
        .cold_user_candidates(None, None, None, 10)
        .expect("cold user");
    assert_eq!(
        counter(names::SERVING_REQUESTS_TOTAL) - serving_before,
        items.len() as u64,
        "each direct candidates() call is one serving.* request"
    );
    assert_eq!(
        counter(names::SERVE_REQUESTS_TOTAL),
        serve_before,
        "direct service calls must not move engine-side serve.* counters"
    );

    // Phase 2: the same service moves into the engine; workers answer
    // from the resharded snapshot, so only `serve.*` moves.
    let engine = ServeEngine::start(
        service,
        ServeEngineConfig::builder()
            .n_shards(2)
            .cache_capacity(0)
            .build()
            .expect("valid config"),
    )
    .expect("engine starts");
    let serving_mid = counter(names::SERVING_REQUESTS_TOTAL);
    let serve_mid = counter(names::SERVE_REQUESTS_TOTAL);
    let serving_cold_user_mid = counter(names::SERVING_COLD_USER_TOTAL);
    for &item in &items {
        engine
            .serve(ServeRequest::Candidates {
                item,
                si_values: *corpus.catalog.si_values(item),
                k: 10,
            })
            .expect("serve");
    }
    engine
        .serve(ServeRequest::ColdUser {
            gender: None,
            age: None,
            purchase: None,
            k: 10,
        })
        .expect("cold user");
    assert_eq!(
        counter(names::SERVE_REQUESTS_TOTAL) - serve_mid,
        items.len() as u64 + 1,
        "each engine request is one serve.* request"
    );
    assert_eq!(
        counter(names::SERVING_REQUESTS_TOTAL),
        serving_mid,
        "engine traffic is answered from the snapshot, never through \
         MatchingService — serving.* must not move"
    );
    assert_eq!(
        counter(names::SERVING_COLD_USER_TOTAL),
        serving_cold_user_mid,
        "engine cold-user inference bypasses MatchingService too"
    );
}
