//! Integration tests for the sharded engine: answer parity with the
//! direct [`MatchingService`] (cached and uncached), snapshot hot-swap
//! under concurrent load, and typed structural failures. Backpressure is
//! pinned in `backpressure.rs`.

use sisg_core::{CoreError, MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_serve::{
    ColdPathMode, ServeEngine, ServeEngineConfig, ServeError, ServeRequest, ServingSnapshot,
    TenantConfig, TenantId,
};
use sisg_sgns::SgnsConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn sgns(seed: u64) -> SgnsConfig {
    SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 3,
        epochs: 1,
        seed,
        ..Default::default()
    }
}

/// Trains deterministically and builds a service with a cold tail
/// (`min_clicks_for_warm: 3` leaves rarely-clicked items on the Eq. 6
/// path).
fn build_service(corpus: &GeneratedCorpus, seed: u64) -> MatchingService {
    let (model, _) = SisgModel::train(corpus, Variant::SisgFU, &sgns(seed)).expect("train");
    MatchingService::build(
        model,
        corpus.users.clone(),
        &corpus.sessions.item_clicks(corpus.config.n_items),
        ServingConfig {
            k: 20,
            min_clicks_for_warm: 3,
        },
    )
    .expect("build")
}

/// Spins until the client threads have served `n` requests. A test-side
/// progress probe that waits on real threads, so `yield_now` is the point.
#[allow(clippy::disallowed_methods)]
fn wait_for_served(served: &AtomicU64, n: u64) {
    // ORDERING: Relaxed — a monotone progress probe; no data is published
    // through the counter.
    while served.load(Ordering::Relaxed) < n {
        std::thread::yield_now();
    }
}

fn candidates_request(corpus: &GeneratedCorpus, item: ItemId, k: usize) -> ServeRequest {
    ServeRequest::Candidates {
        item,
        si_values: *corpus.catalog.si_values(item),
        k,
    }
}

#[test]
fn engine_answers_match_the_direct_service_and_cache_is_bit_identical() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let service = build_service(&corpus, 1);
    let k = 10;

    // Reference answers from the un-sharded service, before it moves into
    // the engine. Track which items are cold so the test provably
    // exercises both paths.
    let items: Vec<ItemId> = (0..corpus.config.n_items).map(ItemId).collect();
    let reference: Vec<Vec<sisg_core::Recommendation>> = items
        .iter()
        .map(|&i| {
            service
                .candidates(i, corpus.catalog.si_values(i), k)
                .expect("known item")
        })
        .collect();
    let cold: Vec<bool> = items.iter().map(|&i| service.is_cold(i)).collect();
    assert!(cold.iter().any(|&c| c), "corpus must have cold items");
    assert!(cold.iter().any(|&c| !c), "corpus must have warm items");
    let user_reference = service
        .cold_user_candidates(None, None, None, k)
        .expect("all user types match");

    let config = ServeEngineConfig::builder()
        .n_shards(3)
        .queue_capacity(16)
        .cache_capacity(256)
        .cache_admit_after(1)
        .build()
        .expect("valid config");
    let engine = ServeEngine::start(service, config).expect("engine starts");

    // First pass: every answer must be bit-identical to the direct
    // service; nothing is cached yet.
    for (idx, &item) in items.iter().enumerate() {
        let resp = engine
            .serve(candidates_request(&corpus, item, k))
            .expect("serve");
        assert_eq!(
            resp.recommendations, reference[idx],
            "item {item:?} diverged from the direct service"
        );
        assert_eq!(resp.shard, item.index() % 3);
        assert_eq!(resp.epoch, 0);
        assert!(!resp.cache_hit, "first sighting cannot be a cache hit");
    }

    // Second pass: cold answers now come from the admission cache
    // (admit_after = 1) and must still be bit-identical.
    for (idx, &item) in items.iter().enumerate() {
        let resp = engine
            .serve(candidates_request(&corpus, item, k))
            .expect("serve");
        assert_eq!(
            resp.recommendations, reference[idx],
            "cached answer for {item:?} diverged"
        );
        assert_eq!(
            resp.cache_hit, cold[idx],
            "cold answers cache, warm answers never touch the cache"
        );
    }

    // Cold-user path: same parity and caching contract.
    let user_req = ServeRequest::ColdUser {
        gender: None,
        age: None,
        purchase: None,
        k,
    };
    let first = engine.serve(user_req).expect("cold user");
    assert_eq!(first.recommendations, user_reference);
    assert!(!first.cache_hit);
    let second = engine.serve(user_req).expect("cold user");
    assert_eq!(second.recommendations, user_reference);
    assert!(
        second.cache_hit,
        "repeated cold-user key must hit the cache"
    );
}

#[test]
fn quantized_cold_path_with_saturating_ef_is_bit_identical_to_brute_force() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let service = build_service(&corpus, 1);
    let k = 10;

    let items: Vec<ItemId> = (0..corpus.config.n_items).map(ItemId).collect();
    let reference: Vec<Vec<sisg_core::Recommendation>> = items
        .iter()
        .map(|&i| {
            service
                .candidates(i, corpus.catalog.si_values(i), k)
                .expect("known item")
        })
        .collect();
    let cold: Vec<bool> = items.iter().map(|&i| service.is_cold(i)).collect();
    assert!(cold.iter().any(|&c| c), "corpus must have cold items");
    let user_reference = service
        .cold_user_candidates(None, None, None, k)
        .expect("all user types match");

    // ef_search ≥ the whole catalog makes the int8 shortlist the whole
    // catalog: the quantized index proposes every item, and the exact f32
    // re-rank then reproduces the brute-force answer bit for bit. This
    // isolates re-rank correctness from int8 recall (which the
    // serve_cold_quant benchmark workload gates).
    let config = ServeEngineConfig::builder()
        .n_shards(2)
        .cache_capacity(0)
        .cold_path(ColdPathMode::QuantAnn {
            ef_search: corpus.config.n_items as usize,
        })
        .build()
        .expect("valid config");
    let quant_searches_before = sisg_obs::registry()
        .counter(sisg_obs::names::SERVE_QUANT_COLD_SEARCHES_TOTAL)
        .get();
    let engine = ServeEngine::start(service, config).expect("engine starts");

    for (idx, &item) in items.iter().enumerate() {
        let resp = engine
            .serve(candidates_request(&corpus, item, k))
            .expect("serve");
        assert_eq!(
            resp.recommendations, reference[idx],
            "item {item:?} (cold = {}) diverged from brute force under \
             QuantAnn with a saturating beam",
            cold[idx]
        );
    }
    let resp = engine
        .serve(ServeRequest::ColdUser {
            gender: None,
            age: None,
            purchase: None,
            k,
        })
        .expect("cold user");
    assert_eq!(resp.recommendations, user_reference);

    // The cold answers above must actually have come from the quantized
    // index, not a silent brute-force fallback.
    let quant_searches = sisg_obs::registry()
        .counter(sisg_obs::names::SERVE_QUANT_COLD_SEARCHES_TOTAL)
        .get()
        - quant_searches_before;
    let n_cold = cold.iter().filter(|&&c| c).count() as u64;
    assert!(
        quant_searches > n_cold,
        "expected > {n_cold} quantized cold searches, saw {quant_searches}"
    );
}

#[test]
fn hot_swap_drops_no_requests_and_post_swap_answers_match_a_fresh_build() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let k = 10;
    let service_a = build_service(&corpus, 1);
    let service_b = build_service(&corpus, 2);
    // Training is deterministic, so a second build from seed 2 is the
    // fresh-build reference for post-swap parity.
    let reference_b = build_service(&corpus, 2);

    let items: Vec<ItemId> = (0..corpus.config.n_items).map(ItemId).collect();
    let answers_a: Vec<Vec<sisg_core::Recommendation>> = items
        .iter()
        .map(|&i| {
            service_a
                .candidates(i, corpus.catalog.si_values(i), k)
                .expect("known item")
        })
        .collect();
    let answers_b: Vec<Vec<sisg_core::Recommendation>> = items
        .iter()
        .map(|&i| {
            reference_b
                .candidates(i, corpus.catalog.si_values(i), k)
                .expect("known item")
        })
        .collect();

    let config = ServeEngineConfig::builder()
        .n_shards(2)
        .queue_capacity(64)
        .cache_capacity(128)
        .cache_admit_after(1)
        .build()
        .expect("valid config");
    let engine = ServeEngine::start(service_a, config).expect("engine starts");

    // ORDERING: Relaxed everywhere below — stop/served/torn/failed are
    // plain test counters with no payload behind them; the scoped-thread
    // join orders the final reads, and the engine under test does its
    // own synchronization.
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let torn = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                // ORDERING: Relaxed — see the counter note above.
                while !stop.load(Ordering::Relaxed) {
                    for (idx, &item) in items.iter().enumerate() {
                        match engine.serve(candidates_request(&corpus, item, k)) {
                            Ok(resp) => {
                                served.fetch_add(1, Ordering::Relaxed);
                                // Every response must be a coherent pair:
                                // the answer of the epoch it claims.
                                let expected = match resp.epoch {
                                    0 => &answers_a[idx],
                                    1 => &answers_b[idx],
                                    _ => {
                                        torn.fetch_add(1, Ordering::Relaxed);
                                        continue;
                                    }
                                };
                                // ORDERING: Relaxed — counter note above.
                                if &resp.recommendations != expected {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(_) => {
                                // ORDERING: Relaxed — counter note above.
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        // Let the clients build up steady-state traffic, then swap
        // mid-flight.
        wait_for_served(&served, 200);
        let epoch = engine
            .install(ServingSnapshot::from_service_with(
                service_b,
                engine.config().n_shards(),
                engine.config().cold_path(),
            ))
            .expect("install accepted");
        assert_eq!(epoch, 1);
        wait_for_served(&served, 400);
        // ORDERING: Relaxed — see the counter note above.
        stop.store(true, Ordering::Relaxed);
    });

    // ORDERING: Relaxed — reads after scope join; see the counter note.
    assert_eq!(
        failed.load(Ordering::Relaxed),
        0,
        "hot swap dropped requests"
    );
    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn epoch/answer pair");
    assert!(served.load(Ordering::Relaxed) >= 400);

    // Quiesced post-swap traffic runs on the new snapshot and matches the
    // fresh build bit-for-bit (caches were dropped on reload).
    for (idx, &item) in items.iter().enumerate() {
        let resp = engine
            .serve(candidates_request(&corpus, item, k))
            .expect("serve");
        assert_eq!(resp.epoch, 1, "post-swap answers must come from epoch 1");
        assert_eq!(
            resp.recommendations, answers_b[idx],
            "post-swap answer for {item:?} diverged from a fresh build"
        );
    }
    assert!(engine.stats().swaps >= 1);
}

#[test]
fn repeated_installs_under_load_stay_coherent_and_clear_caches() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let k = 10;
    let seeds = [11u64, 12, 13];
    let items: Vec<ItemId> = (0..corpus.config.n_items).map(ItemId).collect();

    // Per-epoch reference answers from fresh builds (training is
    // deterministic, so a rebuild is the fresh-engine reference).
    let answers: Vec<Vec<Vec<sisg_core::Recommendation>>> = seeds
        .iter()
        .map(|&seed| {
            let reference = build_service(&corpus, seed);
            items
                .iter()
                .map(|&i| {
                    reference
                        .candidates(i, corpus.catalog.si_values(i), k)
                        .expect("known item")
                })
                .collect()
        })
        .collect();

    let config = ServeEngineConfig::builder()
        .n_shards(2)
        .queue_capacity(64)
        .cache_capacity(128)
        .cache_admit_after(1)
        .build()
        .expect("valid config");
    let engine = ServeEngine::start(build_service(&corpus, seeds[0]), config.clone())
        .expect("engine starts");

    // Pre-freeze the publications (the streaming pipeline's off-thread
    // freeze) so the install loop below is pure pointer swaps under load.
    let publications: Vec<sisg_serve::ServingSnapshot> = seeds[1..]
        .iter()
        .map(|&seed| {
            sisg_serve::ServingSnapshot::from_service_with(
                build_service(&corpus, seed),
                config.n_shards(),
                config.cold_path(),
            )
        })
        .collect();

    // A snapshot built for the wrong worker count must be rejected, not
    // installed.
    let mismatched = sisg_serve::ServingSnapshot::from_service_with(
        build_service(&corpus, seeds[0]),
        config.n_shards() + 1,
        config.cold_path(),
    );
    let err = engine
        .install(mismatched)
        .map(|_| ())
        .expect_err("mismatched shard count must be rejected");
    assert!(matches!(
        err,
        ServeError::Rejected(CoreError::InvalidConfig {
            field: "n_shards",
            ..
        })
    ));
    assert_eq!(engine.epoch(), 0, "a rejected install must not swap");

    // ORDERING: Relaxed everywhere below — stop/served/torn/failed are
    // plain test counters with no payload behind them; the scoped-thread
    // join orders the final reads, and the engine under test does its
    // own synchronization.
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    let torn = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                // ORDERING: Relaxed — see the counter note above.
                while !stop.load(Ordering::Relaxed) {
                    for (idx, &item) in items.iter().enumerate() {
                        match engine.serve(candidates_request(&corpus, item, k)) {
                            Ok(resp) => {
                                served.fetch_add(1, Ordering::Relaxed);
                                match answers.get(resp.epoch as usize) {
                                    Some(expected) if expected[idx] == resp.recommendations => {}
                                    // ORDERING: Relaxed — counter note above.
                                    _ => {
                                        torn.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                // ORDERING: Relaxed — counter note above.
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        // Repeated publications, each landing mid-traffic.
        let mut watermark = 150u64;
        for (i, snapshot) in publications.into_iter().enumerate() {
            wait_for_served(&served, watermark);
            let epoch = engine.install(snapshot).expect("install accepted");
            assert_eq!(epoch, i as u64 + 1);
            watermark += 150;
        }
        wait_for_served(&served, watermark);
        // ORDERING: Relaxed — see the counter note above.
        stop.store(true, Ordering::Relaxed);
    });

    // ORDERING: Relaxed — reads after scope join; see the counter note.
    assert_eq!(
        failed.load(Ordering::Relaxed),
        0,
        "sustained traffic across repeated publications saw errors"
    );
    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn epoch/answer pair");

    // Quiesced: every answer comes from the last publication and matches
    // the fresh build; visiting every item makes both workers observe the
    // final epoch (and clear their admission caches).
    let last = seeds.len() - 1;
    for (idx, &item) in items.iter().enumerate() {
        let resp = engine
            .serve(candidates_request(&corpus, item, k))
            .expect("serve");
        assert_eq!(resp.epoch, last as u64);
        assert_eq!(
            resp.recommendations, answers[last][idx],
            "post-publication answer for {item:?} diverged from a fresh build"
        );
    }
    let stats = engine.stats();
    assert!(stats.swaps >= 2, "every install must count: {stats:?}");
    assert!(
        stats.cache_clears >= 1,
        "workers must clear caches after observing a new epoch: {stats:?}"
    );
}

/// Each request is counted once, in its tenant's slice; `stats()` sums
/// the engine's slices and derives cache misses, and must equal a count
/// kept by hand. The tenant's label is unique to this test, so engines
/// other tests run in parallel cannot move it.
#[test]
fn stats_equal_the_hand_counted_traffic() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let service = build_service(&corpus, 1);
    let tenant = TenantId(5);
    let engine = ServeEngine::start(
        service,
        ServeEngineConfig::builder()
            .n_shards(2)
            .cache_capacity(64)
            .cache_admit_after(1)
            .tenant(TenantConfig::new(tenant, "ledger_probe"))
            .build()
            .expect("valid config"),
    )
    .expect("engine starts");
    let snapshot = engine.snapshot();
    let (warm, cold): (Vec<ItemId>, Vec<ItemId>) = (0..corpus.config.n_items)
        .map(ItemId)
        .partition(|&i| !snapshot.is_cold(i));
    assert!(!warm.is_empty() && cold.len() >= 2, "need both paths");
    let user = ServeRequest::ColdUser {
        gender: Some(0),
        age: None,
        purchase: None,
        k: 5,
    };
    let mut traffic: Vec<ServeRequest> = warm
        .iter()
        .take(7)
        .map(|&i| candidates_request(&corpus, i, 5))
        .collect();
    for &item in &cold[..2] {
        // A miss, then hits once admitted.
        traffic.extend([candidates_request(&corpus, item, 5); 3]);
    }
    traffic.extend([user; 2]);

    let mut expected = sisg_serve::EngineStats::default();
    for req in traffic {
        let resp = engine.serve(req.for_tenant(tenant)).expect("serves");
        expected.requests += 1;
        match req {
            ServeRequest::Candidates { item, .. } if !snapshot.is_cold(item) => {
                expected.warm_hits += 1;
                continue;
            }
            ServeRequest::Candidates { .. } => expected.cold_item_requests += 1,
            ServeRequest::ColdUser { .. } => expected.cold_user_requests += 1,
        }
        if resp.cache_hit {
            expected.cache_hits += 1;
        } else {
            expected.cache_misses += 1;
        }
    }
    assert_eq!(
        (
            expected.warm_hits,
            expected.cache_hits,
            expected.cache_misses
        ),
        (7, 5, 3),
        "the traffic covers every counter"
    );
    assert_eq!(engine.stats(), expected);
    let row = &engine.tenant_stats()[0];
    assert_eq!(
        (row.requests, row.warm_hits, row.cache_hits, row.shed),
        (
            expected.requests,
            expected.warm_hits,
            expected.cache_hits,
            0
        )
    );
}

#[test]
fn structural_failures_are_typed_not_panics() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let service = build_service(&corpus, 1);
    let engine = ServeEngine::start(service, ServeEngineConfig::default()).expect("engine starts");

    // An item outside the trained catalog.
    let unknown = ItemId(corpus.config.n_items);
    let err = engine
        .serve(ServeRequest::Candidates {
            item: unknown,
            si_values: [0; sisg_corpus::schema::ItemFeature::COUNT],
            k: 5,
        })
        .expect_err("unknown item must be rejected");
    assert_eq!(err, ServeError::Rejected(CoreError::UnknownItem(unknown)));

    // A hold on a shard the engine doesn't have.
    let err = engine
        .hold_shard(usize::MAX)
        .map(|_| ())
        .expect_err("out-of-range shard");
    assert!(matches!(err, ServeError::Rejected(_)));

    // A degenerate config never reaches the builder's `build()`; with
    // private fields that is the only construction path out here, so the
    // worker pool can never see one.
    let err = ServeEngineConfig::builder()
        .n_shards(0)
        .build()
        .map(|_| ())
        .expect_err("zero shards rejected at build");
    assert!(matches!(
        err,
        CoreError::InvalidConfig {
            field: "n_shards",
            ..
        }
    ));

    // A request tagged with a tenant absent from the engine's tenant
    // table is a typed error, not a panic.
    let service = build_service(&corpus, 1);
    let config = ServeEngineConfig::builder()
        .tenant(sisg_serve::TenantConfig::new(
            sisg_serve::TenantId(1),
            "only",
        ))
        .build()
        .expect("valid config");
    let tenanted = ServeEngine::start(service, config).expect("engine starts");
    let err = tenanted
        .serve(
            ServeRequest::ColdUser {
                gender: None,
                age: None,
                purchase: None,
                k: 3,
            }
            .for_tenant(sisg_serve::TenantId(9)),
        )
        .expect_err("undeclared tenant rejected");
    assert_eq!(err, ServeError::UnknownTenant(sisg_serve::TenantId(9)));
}
