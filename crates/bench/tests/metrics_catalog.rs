//! The metric-catalog cross-check: every metric the instrumented code can
//! emit is (a) declared in `sisg_obs::names::ALL` and (b) documented in
//! `docs/OBSERVABILITY.md`, and every declared name is actually produced
//! by a real workload.
//!
//! One test drives each instrumented layer on a tiny corpus — SGNS and
//! EGES training, the shared-memory distributed runtime and the simulated
//! message-passing protocol, warm/cold/cold-user serving, HNSW search, and
//! the recall harness — then snapshots the process-wide registry and
//! reconciles it against the declared catalog and the documentation, in
//! both directions.

use sisg_ann::{recall_at_k, HnswConfig, QHnswIndex};
use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
use sisg_corpus::{CorpusConfig, EnrichOptions, EventLog, GeneratedCorpus, ItemId};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{CrashSpec, DistConfig, FaultPlan, TrainingPipeline};
use sisg_eges::{EgesConfig, EgesModel, WalkConfig};
use sisg_embedding::{Matrix, QuantMatrix};
use sisg_obs::{names, registry};
use sisg_serve::{
    ColdPathMode, ServeEngine, ServeEngineConfig, ServeError, ServeRequest, ServingSnapshot,
    TenantConfig, TenantId,
};
use sisg_sgns::SgnsConfig;
use sisg_stream::{IngestPipeline, StreamConfig};
use std::path::Path;

fn exercise_every_layer() -> GeneratedCorpus {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let sgns = SgnsConfig {
        dim: 8,
        window: 2,
        negatives: 2,
        epochs: 1,
        ..Default::default()
    };

    // A plain SGNS run: the trainer's per-epoch flush records every
    // sgns.* name.
    let (_, stats) = SisgModel::train(&corpus, Variant::Sgns, &sgns).expect("train");
    assert!(stats.stats.pairs > 0, "the SGNS run trained nothing");

    let si = *corpus.catalog.si_values(ItemId(0));

    // The sharded serve engine: a warm hit, a cold miss then cache hit, a
    // cold-user pair, a deterministic budget shed behind a held shard,
    // and a snapshot install — every serve.* name records.
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
    let mut mixed_clicks = vec![10u64; corpus.config.n_items as usize];
    mixed_clicks[1] = 0; // one cold item to drive the Eq. 6 cache path
    let serving = ServingConfig {
        k: 10,
        min_clicks_for_warm: 1,
    };
    let svc =
        MatchingService::build(model, corpus.users.clone(), &mixed_clicks, serving).expect("build");
    let engine = ServeEngine::start(
        svc,
        ServeEngineConfig::builder()
            .n_shards(1)
            .queue_capacity(1)
            .cache_capacity(16)
            .cache_admit_after(1)
            .build()
            .expect("valid engine config"),
    )
    .expect("engine starts");
    let warm_req = ServeRequest::Candidates {
        item: ItemId(0),
        si_values: si,
        k: 5,
    };
    let cold_req = ServeRequest::Candidates {
        item: ItemId(1),
        si_values: *corpus.catalog.si_values(ItemId(1)),
        k: 5,
    };
    engine.serve(warm_req).expect("warm engine serve");
    engine.serve(cold_req).expect("cold engine serve");
    let hit = engine.serve(cold_req).expect("cached engine serve");
    assert!(hit.cache_hit, "repeated cold key must hit the cache");
    let user_req = ServeRequest::ColdUser {
        gender: Some(0),
        age: None,
        purchase: None,
        k: 5,
    };
    engine.serve(user_req).expect("cold-user engine serve");
    // The held worker leaves the queue empty; an abandoned response's
    // task keeps the one slot until the worker runs it, so the next
    // submit sheds against the implicit tenant's budget.
    let hold = engine.hold_shard(0).expect("hold accepted");
    drop(engine.submit(warm_req).expect("the one slot is free"));
    match engine.submit(warm_req) {
        Err(ServeError::SloBudgetExhausted { .. }) => {}
        Err(other) => panic!("expected a budget shed, got {other}"),
        Ok(_) => panic!("the abandoned task holds the one slot"),
    }
    drop(hold);
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
    let next =
        MatchingService::build(model, corpus.users.clone(), &mixed_clicks, serving).expect("build");
    let next = ServingSnapshot::from_service_with(next, 1, ColdPathMode::BruteForce);
    assert_eq!(engine.install(next), Ok(1));

    // A quantized cold-path engine so the serve.quant.* counters, the
    // bytes-per-item gauge, and the index build histogram all record
    // from a live cold path.
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
    let quant_svc =
        MatchingService::build(model, corpus.users.clone(), &mixed_clicks, serving).expect("build");
    let quant_engine = ServeEngine::start(
        quant_svc,
        ServeEngineConfig::builder()
            .n_shards(1)
            .cache_capacity(0)
            .cold_path(ColdPathMode::QuantAnn { ef_search: 32 })
            .build()
            .expect("valid engine config"),
    )
    .expect("quantized engine starts");
    quant_engine
        .serve(cold_req)
        .expect("quantized cold-item serve");
    quant_engine
        .serve(user_req)
        .expect("quantized cold-user serve");

    // A tenant-labeled engine so every declared `serve.tenant.<label>.*`
    // suffix records: a warm hit, a cold miss then a cache hit, a
    // cold-user request, and a deterministic budget shed (the tenant's
    // single per-shard slot held by an uncollected submit).
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");
    let tenant_svc =
        MatchingService::build(model, corpus.users.clone(), &mixed_clicks, serving).expect("build");
    let tenant = TenantId(1);
    let tenant_engine = ServeEngine::start(
        tenant_svc,
        ServeEngineConfig::builder()
            .n_shards(1)
            .queue_capacity(1)
            .cache_capacity(16)
            .cache_admit_after(1)
            .tenant(TenantConfig::new(tenant, "catalog_probe"))
            .build()
            .expect("valid engine config"),
    )
    .expect("tenant engine starts");
    tenant_engine
        .serve(warm_req.for_tenant(tenant))
        .expect("tenant warm serve");
    tenant_engine
        .serve(cold_req.for_tenant(tenant))
        .expect("tenant cold serve");
    let hit = tenant_engine
        .serve(cold_req.for_tenant(tenant))
        .expect("tenant cached serve");
    assert!(hit.cache_hit, "repeated tenant cold key must hit the cache");
    tenant_engine
        .serve(user_req.for_tenant(tenant))
        .expect("tenant cold-user serve");
    let held = tenant_engine
        .submit(warm_req.for_tenant(tenant))
        .expect("the tenant's one slot fits");
    match tenant_engine.submit(warm_req.for_tenant(tenant)) {
        Err(ServeError::SloBudgetExhausted { .. }) => {}
        Err(other) => panic!("expected a budget shed, got {other}"),
        Ok(_) => panic!("second submit must exhaust the tenant budget"),
    }
    held.wait().expect("held tenant request completes");

    // The streaming ingest pipeline end-to-end: a seeded click-stream
    // folded into incremental SGNS updates with repeated snapshot
    // publications, so every stream.* name (counters, the freshness
    // histogram, the train span) plus serve.cache_clears_total records
    // from a live run.
    let log = EventLog::from_sessions(&corpus.sessions, 3, 400);
    let mut pipeline = IngestPipeline::new(
        corpus.catalog.clone(),
        corpus.users.clone(),
        StreamConfig {
            variant: Variant::SisgFU,
            sgns: SgnsConfig {
                seed: 9,
                ..sgns.clone()
            },
            serving: ServingConfig {
                k: 10,
                min_clicks_for_warm: 2,
            },
            batch_sessions: 64,
            publish_every: 2,
        },
    )
    .expect("stream config is valid");
    let stream_engine = ServeEngine::start(
        pipeline.freeze().expect("cold freeze"),
        ServeEngineConfig::builder()
            .n_shards(2)
            .build()
            .expect("valid engine config"),
    )
    .expect("stream engine starts");
    let outcome = pipeline
        .run_replay(&log, &stream_engine)
        .expect("stream replay");
    assert!(outcome.publishes > 0, "the stream drive must publish");

    // EGES.
    EgesModel::train(
        &corpus,
        &EgesConfig {
            dim: 8,
            window: 2,
            negatives: 2,
            epochs: 1,
            walk: WalkConfig {
                walks_per_node: 1,
                walk_length: 5,
                seed: 1,
            },
            ..Default::default()
        },
    );

    // The distributed runtime; a tiny sync interval forces ATNS rounds so
    // the sync span records.
    let dist = DistConfig {
        workers: 2,
        dim: 8,
        window: 2,
        negatives: 2,
        epochs: 1,
        hot_set_size: 32,
        sync_interval: 4,
        strategy: PartitionStrategy::Hash,
        ..Default::default()
    };
    let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, dist.clone());
    pipeline.train();
    let enriched = &pipeline.enriched;

    // The Section III machines under their fault layer: a simulated
    // cluster under message loss plus one crash, so the message, retry,
    // dedup, fault-injection, and recovery counters all record from a
    // genuine fault path.
    let mut plan = FaultPlan::message_faults(7, 0.15, 0.05, 0.05);
    plan.crashes.push(CrashSpec {
        worker: 1,
        after_pairs: 16,
        down_ticks: 64,
    });
    let faulted = sisg_simtest::SimConfig::new(
        DistConfig {
            hot_set_size: 0,
            sync_interval: 1_000,
            ..dist
        },
        plan,
    );
    let out = sisg_simtest::simulate(enriched, &corpus.catalog, &faulted);
    assert!(out.completed, "faulted simulation did not drain");
    assert!(out.report.retries > 0 && out.report.recoveries == 1);

    // HNSW search and the recall harness.
    let vectors = Matrix::uniform_init(200, 8, 3);
    let index = QHnswIndex::build(QuantMatrix::from_matrix(&vectors), HnswConfig::default());
    recall_at_k(|q, k| index.search(q, k), &vectors, &[0, 7, 21], 5);

    corpus
}

#[test]
fn every_emitted_metric_is_declared_and_documented() {
    // Declared ⊆ documented: docs/OBSERVABILITY.md names every metric.
    let doc_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OBSERVABILITY.md");
    let doc = std::fs::read_to_string(&doc_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", doc_path.display()));
    for name in names::ALL {
        assert!(
            doc.contains(name),
            "metric `{name}` is not documented in docs/OBSERVABILITY.md"
        );
    }
    // The per-tenant family is cataloged as templates, one documented row
    // per declared suffix with a literal `<label>` segment.
    for suffix in names::SERVE_TENANT_SUFFIXES {
        let row = format!("serve.tenant.<label>.{suffix}");
        assert!(
            doc.contains(&row),
            "tenant template `{row}` is not documented in docs/OBSERVABILITY.md"
        );
    }

    exercise_every_layer();
    let snapshot = registry().snapshot("metrics_catalog");
    let emitted: Vec<&str> = snapshot.metric_names();

    // Emitted ⊆ declared: no instrumentation site invents a name outside
    // the catalog. Tenant-labeled names are declared when they
    // instantiate a `serve.tenant.<label>.<suffix>` template.
    for name in &emitted {
        assert!(
            names::ALL.contains(name) || names::split_tenant_metric(name).is_some(),
            "metric `{name}` is emitted but not declared in sisg_obs::names::ALL"
        );
    }

    // Declared ⊆ emitted: every declared name is reachable by a real
    // workload — dead catalog entries rot documentation.
    for name in names::ALL {
        assert!(
            emitted.contains(name),
            "metric `{name}` is declared but none of the workloads emitted it"
        );
    }
    // Every declared tenant suffix too: the tenant engine above must
    // instantiate each template at least once.
    for suffix in names::SERVE_TENANT_SUFFIXES {
        assert!(
            emitted
                .iter()
                .any(|n| names::split_tenant_metric(n).is_some_and(|(_, s)| s == *suffix)),
            "tenant template suffix `{suffix}` was never instantiated by the workloads"
        );
    }
}
