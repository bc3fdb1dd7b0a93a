//! Pins per-tenant metric isolation: traffic tagged with tenant A moves
//! only A's `serve.tenant.<label>.*` slice (which the engine's stats
//! sum), never tenant B's — and a budget shed is charged to the
//! shedding tenant alone — and a tenant's SI-aggregation mode reaches
//! its cold-item answers. Single test in its own binary: the obs
//! registry is process-global, so sharing a binary with other engine
//! tests would race the per-tenant deltas.

use sisg_core::{
    MatchingService, Recommendation, ServingConfig, SiAggregation, SisgModel, Variant,
};
use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_obs::{names, registry};
use sisg_serve::{
    ServeEngine, ServeEngineConfig, ServeError, ServeRequest, TenantConfig, TenantId,
};
use sisg_sgns::SgnsConfig;

fn tenant_counter(label: &str, suffix: &str) -> u64 {
    registry()
        .counter(&names::tenant_metric(label, suffix))
        .get()
}

/// All seven counters of one tenant's metric slice, for before/after
/// comparison.
fn slice(label: &str) -> Vec<(String, u64)> {
    names::SERVE_TENANT_SUFFIXES
        .iter()
        .filter(|&&s| s != "request.ns") // histogram, not a counter
        .map(|&s| (s.to_string(), tenant_counter(label, s)))
        .collect()
}

#[test]
fn tenant_traffic_moves_only_its_own_metric_slice() {
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
    let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
    let serving = ServingConfig {
        k: 20,
        min_clicks_for_warm: 3,
    };
    let service =
        MatchingService::build(model, corpus.users.clone(), &clicks, serving).expect("build");

    let alpha = TenantId(1);
    let beta = TenantId(2);
    let engine = ServeEngine::start(
        service,
        ServeEngineConfig::builder()
            .n_shards(2)
            .queue_capacity(4)
            .cache_capacity(64)
            .cache_admit_after(1)
            .tenant(TenantConfig::new(alpha, "iso_alpha").shed_budget(3))
            .tenant(TenantConfig::new(beta, "iso_beta").shed_budget(1))
            .build()
            .expect("valid config"),
    )
    .expect("engine starts");

    // Phase 1: alpha-only traffic. Beta's whole slice must stay frozen.
    let beta_before = slice("iso_beta");
    let alpha_before = tenant_counter("iso_alpha", "requests_total");
    let engine_before = engine.stats().requests;
    let items: Vec<ItemId> = (0..12).map(ItemId).collect();
    for &item in &items {
        engine
            .serve(
                ServeRequest::Candidates {
                    item,
                    si_values: *corpus.catalog.si_values(item),
                    k: 10,
                }
                .for_tenant(alpha),
            )
            .expect("alpha request serves");
    }
    assert_eq!(
        tenant_counter("iso_alpha", "requests_total") - alpha_before,
        items.len() as u64,
        "each alpha request is one alpha requests_total"
    );
    assert_eq!(
        engine.stats().requests - engine_before,
        items.len() as u64,
        "the engine's stats sum its tenants' slices"
    );
    assert_eq!(
        slice("iso_beta"),
        beta_before,
        "alpha traffic must not move any counter in beta's slice"
    );

    // Phase 2: shed beta against its own budget (1/4 share of a 4-deep
    // queue = exactly 1 slot per shard): submit without collecting to
    // take the slot, then the next same-shard submit sheds. Alpha's shed
    // counter must not move.
    let alpha_shed_before = tenant_counter("iso_alpha", "shed_total");
    let beta_shed_before = tenant_counter("iso_beta", "shed_total");
    let req = ServeRequest::Candidates {
        item: ItemId(0),
        si_values: *corpus.catalog.si_values(ItemId(0)),
        k: 10,
    };
    let held = engine.submit(req.for_tenant(beta)).expect("first fits");
    let err = engine
        .submit(req.for_tenant(beta))
        .expect_err("budget slot is taken");
    assert!(
        matches!(err, ServeError::SloBudgetExhausted { tenant, .. } if tenant == beta),
        "shed must name the shedding tenant: {err:?}"
    );
    assert_eq!(
        tenant_counter("iso_beta", "shed_total") - beta_shed_before,
        1,
        "the shed lands on beta's counter"
    );
    assert_eq!(
        tenant_counter("iso_alpha", "shed_total"),
        alpha_shed_before,
        "alpha's shed counter must not move"
    );
    // Releasing the slot (collecting the response) restores capacity.
    held.wait().expect("held request completes");
    engine
        .serve(req.for_tenant(beta))
        .expect("slot freed after collection");

    // tenant_stats reads the same slices back as per-engine deltas.
    let stats = engine.tenant_stats();
    let alpha_stats = stats
        .iter()
        .find(|s| s.tenant == alpha)
        .expect("alpha reported");
    let beta_stats = stats
        .iter()
        .find(|s| s.tenant == beta)
        .expect("beta reported");
    assert_eq!(alpha_stats.requests, items.len() as u64);
    assert_eq!(alpha_stats.shed, 0);
    assert_eq!(beta_stats.requests, 2, "held + post-release request");
    assert_eq!(beta_stats.shed, 1);

    // Phase 3: a `Weighted` tenant's cold-item answers are the service's
    // own answer under `Weighted`, bit for bit, and not the Eq. 6 sum.
    let snapshot = engine.snapshot();
    let model = snapshot.model();
    let model = SisgModel::from_store(
        model.variant(),
        model.space().clone(),
        model.store().clone(),
    )
    .expect("same store");
    let service =
        MatchingService::build(model, corpus.users.clone(), &clicks, serving).expect("build");
    let cold: Vec<ItemId> = (0..corpus.config.n_items)
        .map(ItemId)
        .filter(|&i| service.is_cold(i))
        .collect();
    let reference = |aggregation| -> Vec<_> {
        cold.iter()
            .map(|&item| {
                service
                    .cold_item_candidates_with(
                        item,
                        corpus.catalog.si_values(item),
                        10,
                        aggregation,
                        |query, n| service.model().similar_items_to_vector(query, n),
                    )
                    .expect("catalog SI")
            })
            .collect()
    };
    let weighted = reference(SiAggregation::Weighted);
    let ranked = |lists: &[Vec<Recommendation>]| -> Vec<Vec<ItemId>> {
        lists
            .iter()
            .map(|list| list.iter().map(|r| r.item).collect())
            .collect()
    };
    assert_ne!(
        ranked(&weighted),
        ranked(&reference(SiAggregation::Sum)),
        "the two modes must rank at least one cold item differently"
    );
    let gamma = TenantId(3);
    let engine = ServeEngine::start(
        service,
        ServeEngineConfig::builder()
            .n_shards(2)
            .tenant(TenantConfig::new(gamma, "iso_gamma").si_weighting(SiAggregation::Weighted))
            .build()
            .expect("valid config"),
    )
    .expect("engine starts");
    for (&item, want) in cold.iter().zip(&weighted) {
        let resp = engine
            .serve(
                ServeRequest::Candidates {
                    item,
                    si_values: *corpus.catalog.si_values(item),
                    k: 10,
                }
                .for_tenant(gamma),
            )
            .expect("gamma request serves");
        assert_eq!(
            &resp.recommendations, want,
            "weighted answer for {item:?} diverged from the reference"
        );
    }
}
